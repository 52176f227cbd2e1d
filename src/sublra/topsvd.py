"""Top singular triplets of a factored product without materializing it.

``topsvd_of_lra`` is exact: thin QR factorizations of both factors reduce
A @ B to a k-by-k core, whose SVD is composed with the two orthonormal
bases.  ``recompress`` truncates a factored iterate to rank rho through it.
``topsvd_of_lra_qrp`` uses pivoted QR factorizations instead and truncates
the core to rho-by-rho before its SVD, permuting the triangular factors by
indexing with the pivot order, not by permutation matrices.  It is an
approximation whose quality rests on the pivoting seeing the decay in *both*
factors, which holds for LRA-shaped inputs where the inner coordinates carry
the decay, but can break when one factor is flat (e.g. orthonormal).  Both
cost O((m + n) k^2) flops, superfast relative to the m-by-n product whenever
k^2 << min(m, n).

The exact path's QRs (``core.thin_qr``, whose Q factors are compact WY
matrix products) and both paths' core SVDs (one helper, ``_svd``) run on
``numpy.linalg`` and numpy's BLAS, whose OpenBLAS also serves every matrix
product of the refinement, so recompressing inside a refine run stays on
one BLAS thread pool.  scipy is kept for what numpy does not offer: the
gesvd retry and the pivoted QR.
"""

import warnings

import numpy as np
import scipy.linalg as la

from .core import DimensionError, PreconditionError, TopSVD, thin_qr


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
    Qa, Ra = thin_qr(L.A)
    Qb, Rb = thin_qr(L.B.T)
    Uw, sw, Vwt = _svd(Ra @ Rb.T)
    return TopSVD(Qa @ Uw[:, :rho], sw[:rho], Qb @ Vwt[:rho].T)


def topsvd_of_lra_qrp(L, rho):
    """Approximate rho-top SVD of A @ B via column-pivoted QR factorizations.

    A = Q R P and B = P' L Q' (the latter from pivoted QR of B^T); both
    triangular factors and the permutations are cut down to their leading
    rho-by-rho parts and the resulting small core is SVD'd.  With the strong
    rank-revealing pivoting of the literature, whose parameter h > 1 bounds
    the pivoting's growth, the reconstruction error is within
    sqrt(1 + h^2 (k - rho) rho) of the optimal sigma_{rho+1}; standard column
    pivoting is used here, so that factor is a tested heuristic, not a
    guarantee.  When either pivoted diagonal or the core's singular values
    fall below 1e-14 of their leading value, it warns and falls back to the
    exact path.
    """
    _check_ranks(L, rho)
    Q, R, piva = la.qr(L.A, mode="economic", pivoting=True)
    Qb, Lt, pivb = la.qr(L.B.T, mode="economic", pivoting=True)
    # the leading rho pivots, put back in their original relative order,
    # permute the columns of R and the rows of Lt^T cut to rho-by-rho; the
    # operands are made C-contiguous because BLAS's summation order, and so
    # the core's last bits, depends on their layout
    core = (np.ascontiguousarray(R[:rho, np.argsort(piva[:rho])])
            @ np.ascontiguousarray(Lt.T[np.argsort(pivb[:rho]), :rho]))
    Uc, s, Vct = _svd(core)
    # both pivoted diagonals and the core's singular values are
    # nonincreasing in magnitude; a collapse of any of them below roundoff
    # scale means the core carries no rank-rho signal
    if any(d[rho - 1] <= 1e-14 * d[0]
           for d in (np.abs(np.diag(R)), np.abs(np.diag(Lt)), s)):
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

