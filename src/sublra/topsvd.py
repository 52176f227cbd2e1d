"""Top singular triplets of a factored product without materializing it.

``topsvd_of_lra`` is exact: SVD both factors, SVD the small core, compose.
``topsvd_of_lra_qrp`` swaps the factor SVDs for pivoted QR factorizations and
truncates the core to rho-by-rho before its SVD; it is an approximation whose
quality rests on the pivoting seeing the decay in *both* factors, which holds
for LRA-shaped inputs where the inner coordinates carry the decay, but can
break when one factor is flat (e.g. orthonormal).  Both cost
O((m + n) k^2) flops, superfast relative to the m-by-n product whenever
k^2 << min(m, n).
"""

import warnings

import numpy as np
import scipy.linalg as la

from .core import DimensionError, TopSVD


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


def _svd(a, full_matrices=True):
    """SVD by LAPACK gesdd, retried with gesvd when gesdd does not converge.

    gesdd fails on some matrices whose singular values cluster (seen on a
    60-by-60 core of a refine iterate with 20 of them at 1.0); gesvd
    factors those.  Whatever gesdd factors keeps its exact output.
    """
    try:
        return la.svd(a, full_matrices=full_matrices)
    except la.LinAlgError:
        return la.svd(a, full_matrices=full_matrices, lapack_driver="gesvd")


def topsvd_of_lra(L, rho):
    """Exact rho-top SVD of A @ B.

    Factor SVDs A = U_A S_A V_A^T and B = U_B S_B V_B^T reduce the product
    to the k-by-k core W = S_A V_A^T U_B S_B with A B = U_A W V_B^T; the
    core's SVD is then composed into the output.
    """
    _check_ranks(L, rho)
    Ua, sa, Vat = _svd(L.A, full_matrices=False)
    Ub, sb, Vbt = _svd(L.B, full_matrices=False)
    W = (sa[:, None] * Vat) @ (Ub * sb[None, :])
    Uw, sw, Vwt = _svd(W)
    U = Ua @ Uw[:, :rho]
    V = Vbt.T @ Vwt.T[:, :rho]
    return TopSVD(U, sw[:rho], V)


def topsvd_of_lra3(L3, rho):
    """Thin three-factor wrapper: folds the middle factor into X."""
    return topsvd_of_lra(L3.to_factored2(), rho)


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


def recompress(L, rho, method="svd", h=1.01):
    """Truncate a factored form back to rank rho, keeping it factored.

    method "svd" uses the exact path, "qrp" the pivoted approximation.  The
    error after exact re-compression obeys the triangle-inequality growth
    bounds ||M - (AB)_rho|| <= ||M - AB|| + tau_rho(AB)
    and ||M - (AB)_rho|| <= 2 ||M - AB|| + tau_rho(M).
    """
    if method == "svd":
        S = topsvd_of_lra(L, rho)
    elif method == "qrp":
        S = topsvd_of_lra_qrp(L, rho, h=h)
    else:
        raise ValueError(f"unknown recompress method {method!r}")
    return S.to_factored2()


# Flop model for the exact path, mirroring its matrix shapes; used to pin the
# superfast cost envelope in tests without timing noise.

def _svd_flops(m, n):
    small, big = sorted((m, n))
    return 14 * big * small * small


def _matmul_flops(m, k, n):
    return 2 * m * k * n


def topsvd_flop_estimate(m, n, k, rho):
    """Modeled flop count of the exact path: O((m + n) k^2)."""
    return (_svd_flops(m, k) + _svd_flops(k, n) + _svd_flops(k, k)
            + 2 * _matmul_flops(k, k, k)
            + _matmul_flops(m, k, rho) + _matmul_flops(n, k, rho))
