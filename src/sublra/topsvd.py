"""Top singular triplets of a factored product without materializing it.

``topsvd_of_lra`` is exact: thin QR factorizations of both factors reduce
A @ B to a k-by-k core, whose SVD is composed with the two orthonormal
bases.  ``recompress`` truncates a factored iterate to rank rho through it.
``topsvd_of_lra_qrp`` uses pivoted QR factorizations instead and truncates
the core to rho-by-rho before its SVD; it is an approximation whose quality
rests on the pivoting seeing the decay in *both* factors, which holds for
LRA-shaped inputs where the inner coordinates carry the decay, but can break
when one factor is flat (e.g. orthonormal).  Both cost O((m + n) k^2) flops,
superfast relative to the m-by-n product whenever k^2 << min(m, n).

The exact path's QRs and SVD run on ``numpy.linalg``, whose OpenBLAS also
serves every matrix product of the refinement, so recompressing inside a
refine run stays on one BLAS thread pool.  scipy is kept for what numpy does
not offer: the gesvd retry and the pivoted QR.
"""

import warnings

import numpy as np
import scipy.linalg as la

from .core import DimensionError, PreconditionError, TopSVD


class QRPFallbackWarning(UserWarning):
    """The pivoted path hit a singular core and fell back to the exact path."""


def _check_ranks(L, rho):
    m, n = L.shape
    k = L.rank_bound
    if not 1 <= rho <= k:
        raise DimensionError(f"rho={rho} out of range for rank bound {k}")
    if k > min(m, n):
        raise DimensionError(
            f"rank bound {k} exceeds min(m, n) = {min(m, n)}")


def _svd(a):
    """SVD by numpy's LAPACK gesdd, retried with scipy's gesvd when gesdd
    does not converge.

    gesdd fails on some matrices whose singular values cluster (seen on a
    60-by-60 core of a refine iterate with 20 of them at 1.0); gesvd
    factors those, and numpy has no gesvd.  Whatever gesdd factors keeps
    its exact output.
    """
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError:
        return la.svd(a, lapack_driver="gesvd")


def topsvd_of_lra(L, rho):
    """Exact rho-top SVD of A @ B.

    Thin QR factorizations A = Q_A R_A and B^T = Q_B R_B give
    A B = Q_A (R_A R_B^T) Q_B^T, so the SVD U_W diag(s_W) V_W^T of the k-by-k
    core R_A R_B^T yields the top triplets (Q_A U_W, s_W, Q_B V_W), cut to
    the leading rho.  A factor with an inf or NaN entry raises
    PreconditionError.
    """
    _check_ranks(L, rho)
    for name, factor in (("factor A", L.A), ("factor B", L.B)):
        if not np.isfinite(factor).all():
            raise PreconditionError(f"{name} has non-finite entries")
    Qa, Ra = np.linalg.qr(L.A)
    Qb, Rb = np.linalg.qr(L.B.T)
    Uw, sw, Vwt = _svd(Ra @ Rb.T)
    return TopSVD(Qa @ Uw[:, :rho], sw[:rho], Qb @ Vwt[:rho].T)


def _subpermutation(perm, rho):
    """rho-by-rho permutation left after dropping the trailing rows of the
    full permutation matrix with ones at (i, perm[i]) and its zero columns."""
    cols = np.sort(perm[:rho])
    P = np.zeros((rho, rho))
    P[np.arange(rho), np.searchsorted(cols, perm[:rho])] = 1.0
    return P


def topsvd_of_lra_qrp(L, rho, h=1.01):
    """Approximate rho-top SVD of A @ B via column-pivoted QR factorizations.

    A = Q R P and B = P' L Q' (the latter from pivoted QR of B^T); both
    triangular factors and the permutations are cut down to their leading
    rho-by-rho parts and the resulting small core is SVD'd.  With the strong
    rank-revealing pivoting of the literature the reconstruction error is
    within sqrt(1 + h^2 (k - rho) rho) of the optimal sigma_{rho+1}; standard
    column pivoting is used here, so that factor is a tested heuristic, not a
    guarantee.  A singular core falls back to the exact path with a warning.
    """
    _check_ranks(L, rho)
    if h <= 1.0:
        raise ValueError("h must exceed 1")
    Q, R, piva = la.qr(L.A, mode="economic", pivoting=True)
    Qb, Lt, pivb = la.qr(L.B.T, mode="economic", pivoting=True)
    # pivoted diagonals are nonincreasing in magnitude; a collapse below
    # roundoff scale means the rho-by-rho core carries no rank-rho signal
    diag_r = np.abs(np.diag(R))
    diag_l = np.abs(np.diag(Lt))
    if (diag_r[rho - 1] <= 1e-14 * diag_r[0]
            or diag_l[rho - 1] <= 1e-14 * diag_l[0]):
        warnings.warn("singular pivoted core; falling back to exact top-SVD",
                      QRPFallbackWarning, stacklevel=2)
        return topsvd_of_lra(L, rho)
    # A = Q R P with P = S_a, B = S_b^T L' Q'^T-style with L' = Lt^T
    P_rho = _subpermutation(piva, rho)
    # P' columns follow pivb; dropping trailing columns then zero rows
    # mirrors the row-side construction on the transpose.
    Pp_rho = _subpermutation(pivb, rho).T
    core = (R[:rho, :rho] @ P_rho) @ (Pp_rho @ Lt.T[:rho, :rho])
    Uc, s, Vct = la.svd(core)
    if s[0] == 0.0 or s[rho - 1] <= 1e-14 * s[0]:
        warnings.warn("singular pivoted core; falling back to exact top-SVD",
                      QRPFallbackWarning, stacklevel=2)
        return topsvd_of_lra(L, rho)
    U = Q[:, :rho] @ Uc
    V = Qb[:, :rho] @ Vct.T
    return TopSVD(U, s, V)


def recompress(L, rho):
    """Truncate a factored form back to rank rho exactly, keeping it factored.

    The error obeys the triangle-inequality growth bounds
    ||M - (AB)_rho|| <= ||M - AB|| + tau_rho(AB)
    and ||M - (AB)_rho|| <= 2 ||M - AB|| + tau_rho(M).
    """
    return topsvd_of_lra(L, rho).to_factored2()


# Flop model for the exact path, mirroring its matrix shapes; used to pin the
# superfast cost envelope in tests without timing noise.

def _qr_flops(m, k):
    # Householder R of an m-by-k panel, then its thin Q formed explicitly
    return 2 * (2 * m * k * k - 2 * k ** 3 // 3)


def _svd_flops(k):
    return 14 * k ** 3


def _matmul_flops(m, k, n):
    return 2 * m * k * n


def topsvd_flop_estimate(m, n, k, rho):
    """Modeled flop count of the exact path: O((m + n) k^2)."""
    return (_qr_flops(m, k) + _qr_flops(n, k) + _matmul_flops(k, k, k)
            + _svd_flops(k)
            + _matmul_flops(m, k, rho) + _matmul_flops(n, k, rho))
