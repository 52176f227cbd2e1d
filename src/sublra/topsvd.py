"""Top singular triplets of a factored product without materializing it.

``topsvd_of_lra`` is exact: thin QR factorizations of both factors reduce
A @ B to a k-by-k core, whose SVD is composed with the two orthonormal
bases.  ``recompress`` truncates a factored form to rank rho by one path,
an SVD update (Brand, "Fast low-rank modifications of the thin singular
value decomposition", LAA 415, 2006): the form is an iterate
U diag(sigma) V^T, a TopSVD, plus a correction Q C (the refinement
driver's sums; without an iterate, k = 0 and the whole form is the
correction), block Gram-Schmidt splits Q against U and C^T against V,
and only the parts outside span(U) and span(V) are factored by thin QRs,
a few columns at a time, where ``topsvd_of_lra`` factors all k + r
columns of each factor at once.  A result that is not orthonormal falls back to ``topsvd_of_lra``.
``topsvd_of_lra_qrp`` uses pivoted QR factorizations instead and truncates
the core to rho-by-rho before its SVD, permuting the triangular factors by
indexing with the pivot order, not by permutation matrices.  It is an
approximation whose quality rests on the pivoting seeing the decay in *both*
factors, which holds for LRA-shaped inputs where the inner coordinates carry
the decay, but can break when one factor is flat (e.g. orthonormal).  All
cost O((m + n) k^2) flops, superfast relative to the m-by-n product whenever
k^2 << min(m, n).

The exact paths' QRs (``core.thin_qr``, whose Q factors are compact WY
matrix products) and every core SVD (one helper, ``_svd``) run on
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


def _check_finite(L):
    for name, factor in (("factor A", L.A), ("factor B", L.B)):
        if not np.isfinite(factor).all():
            raise PreconditionError(f"{name} has non-finite entries")


def topsvd_of_lra(L, rho):
    """Exact rho-top SVD of A @ B.

    Thin QR factorizations A = Q_A R_A and B^T = Q_B R_B give
    A B = Q_A (R_A R_B^T) Q_B^T, so the SVD U_W diag(s_W) V_W^T of the k-by-k
    core R_A R_B^T yields the top triplets (Q_A U_W, s_W, Q_B V_W), cut to
    the leading rho.  A factor with an inf or NaN entry raises
    PreconditionError.
    """
    _check_ranks(L, rho)
    _check_finite(L)
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
    exact path.  A factor with an inf or NaN entry raises
    PreconditionError.
    """
    _check_ranks(L, rho)
    _check_finite(L)
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


SPLIT_PANEL = 8  # columns of X that _split projects and factors at a time


def _split(B, X):
    """[B, Q] and [P; R] with X = B P + Q R = [B, Q] [P; R], Q orthonormal:
    X split against the orthonormal columns of B.

    Block classical Gram-Schmidt applied twice (Barlow and Smoktunowicz,
    Numer. Math. 2013) takes SPLIT_PANEL columns of X at a time: it
    projects them off B and the Q columns found so far, twice, and
    ``core.thin_qr`` factors what is left.  One pass leaves components
    along the basis that are large relative to the remainder wherever X
    lies close to it; the second leaves rounding level.  Q is orthogonal
    to B wherever the remainder is numerically of full rank (see
    ``recompress``).  Narrow panels keep each Householder QR short:
    LAPACK factors fewer than 128 columns by level-2 reflector updates,
    whose cost grows as m w^2 for w columns, so at m = 1024 one thin_qr of
    40 columns took longer than five of 8 (2.7 against 5 x 0.14 ms, in
    process on 2 cores).  Against one QR of all r columns, panels of 8 cut
    the median refine op by about a tenth at n = 1024, rho = 20 (r = 40)
    and at n = 4096, rho = 8 (r = 16); the other widths compared, from 4
    to 16, did less.
    """
    m, k = B.shape
    r = X.shape[1]
    basis = np.empty((m, k + r))
    basis[:, :k] = B
    coef = np.zeros((k + r, r))
    for j in range(0, r, SPLIT_PANEL):
        e = min(j + SPLIT_PANEL, r)
        Z = X[:, j:e]
        if k + j:  # an empty basis projects nothing off
            W = basis[:, :k + j]
            P = W.T @ Z
            Z = Z - W @ P
            P2 = W.T @ Z
            Z -= W @ P2
            coef[:k + j, j:e] = P + P2
        basis[:, k + j:k + e], coef[k + j:k + e, j:e] = thin_qr(Z)
    return basis, coef


def recompress(L, rho, right=None):
    """Truncate a factored form back to rank rho exactly: the top-rho SVD
    of L = [U, Q] [diag(sigma) V^T; C] by updating the SVD of the iterate
    U diag(sigma) V^T.

    The error obeys the triangle-inequality growth bounds
    ||M - (AB)_rho|| <= ||M - AB|| + tau_rho(AB)
    and ||M - (AB)_rho|| <= 2 ||M - AB|| + tau_rho(M).

    ``right``, a TopSVD of rank k, is the iterate that L extends (the
    refinement driver's sums): U = L.A[:, :k] is its U, V and sigma are
    read from ``right``, Q = L.A[:, k:] and C = L.B[k:] are the
    correction; L.B[:k], which holds sigma V^T, is not read.  Without
    ``right`` L is a correction to the rank-0 iterate: k = 0.  With
    Q = [U, Q1] [P; R1] and C^T = [V, Q2] [G; R2] from ``_split``,

        L = [U, Q1] ([[diag(sigma), 0], [0, 0]] + [P; R1] [G; R2]^T)
            [V, Q2]^T,

    and the SVD of that (k + r)-by-(k + r) core, composed with the two
    bases, gives the triplets as a TopSVD, the iterate that the next
    update takes.  Where a remainder is (nearly) rank deficient, say when
    Q lies partly in span(U) or C is rank deficient, Householder columns
    for its null directions are not orthogonal to the basis before them;
    they carry rounding-level weight in the core, so the result is still
    orthonormal unless the sum has rank below rho and a zero singular
    direction picks them up.  TopSVD checks the result, and a result it
    rejects is recomputed by ``topsvd_of_lra``; that also resets the
    rounding drift from orthonormality that updates of updates accumulate.
    """
    _check_ranks(L, rho)
    _check_finite(L)
    if right is None:
        sigma, V = np.zeros(0), np.zeros((L.shape[1], 0))
    else:
        sigma, V = right.sigma, right.V
        if right.shape != L.shape or right.rank_bound > L.rank_bound:
            raise DimensionError(
                f"iterate of shape {right.shape} and rank {right.rank_bound} "
                f"does not fit a sum of shape {L.shape} and rank bound "
                f"{L.rank_bound}")
    k = sigma.size
    left_basis, left_coef = _split(L.A[:, :k], L.A[:, k:])
    right_basis, right_coef = _split(V, L.B[k:].T)
    core = left_coef @ right_coef.T
    core[:k, :k] += np.diag(sigma)
    Uc, s, Vct = _svd(core)
    try:
        return TopSVD(left_basis @ Uc[:, :rho], s[:rho],
                      right_basis @ Vct[:rho].T)
    except PreconditionError:
        return topsvd_of_lra(L, rho)
