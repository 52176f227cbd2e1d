"""CUR decomposition of a rank-rho top-SVD block.

The factors C and R are actual columns and rows of the rank-rho matrix,
picked by pivoted QR on the singular-vector factors so the nucleus
N = (U_I Sigma V^T_J)^+ stays well conditioned.  Reconstruction C N R equals
the input block exactly (up to roundoff) because the selected submatrices of
U and V keep full rank rho.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .core import (DimensionError, PreconditionError, TopSVD, materialize,
                   spectral_norm)

SIGMA_FLOOR = 1e-14


class SingularNucleusError(ValueError):
    """sigma_rho is numerically zero; no stable nucleus exists."""


@dataclass
class CURDecomp:
    """Factors C (m x l), N (l x k), R (k x n) with index sets I, J."""

    C: np.ndarray
    N: np.ndarray
    R: np.ndarray
    row_indices: np.ndarray
    col_indices: np.ndarray

    @property
    def shape(self):
        return (self.C.shape[0], self.R.shape[1])

    def materialize(self):
        return self.C @ (self.N @ self.R)


def rr_select(Q, count):
    """Indices of ``count`` rows of an orthonormal-column matrix whose
    submatrix keeps a bounded pseudo-inverse, by pivoted QR on Q^T.

    Returned ascending.  Requires cols(Q) <= count <= rows(Q).
    """
    Q = np.asarray(Q, dtype=np.float64)
    m, r = Q.shape
    if not r <= count <= m:
        raise PreconditionError(
            f"count={count} out of range [{r}, {m}]")
    piv = la.qr(Q.T, mode="economic", pivoting=True)[2]
    return np.sort(piv[:count])


def nucleus_norm_bound(m, n, rho, h=1.1, a=1, sigma_rho=1.0):
    """Bound t_{m,rho,h}^a t_{n,rho,h}^a / sigma_rho with
    t_{q,s,h}^2 = (q - s) s h^2 + 1.

    a = 1 corresponds to strong rank-revealing QR pivoting, a = 2 to the LUP
    variant; with standard column pivoting the bound is a tested heuristic.
    """
    if h <= 1.0:
        raise ValueError("h must exceed 1")
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    if sigma_rho <= 0:
        raise ValueError("sigma_rho must be positive")
    t_m = np.sqrt((m - rho) * rho * h * h + 1.0)
    t_n = np.sqrt((n - rho) * rho * h * h + 1.0)
    return float(t_m ** a * t_n ** a / sigma_rho)


def svd_to_cur(S, k=None, l=None):
    """Convert a rank-rho top-SVD block into a CUR decomposition.

    Picks k rows (of U) and l columns (of V), defaulting to square rho
    selections, and builds the nucleus through the pseudo-inverse identity
    N = (V^T_J)^+ Sigma^{-1} (U_I)^+ so that C N R = U Sigma V^T.
    """
    if not isinstance(S, TopSVD):
        raise TypeError("svd_to_cur expects a TopSVD")
    m, n = S.shape
    rho = S.rank_bound
    k = rho if k is None else k
    l = rho if l is None else l
    if not (rho <= k <= m and rho <= l <= n):
        raise DimensionError(
            f"need rho <= k <= m and rho <= l <= n; got rho={rho}, k={k}, "
            f"l={l}, shape={S.shape}")
    if S.sigma[rho - 1] <= SIGMA_FLOOR * S.sigma[0]:
        raise SingularNucleusError(
            f"sigma_rho = {S.sigma[rho - 1]:.3e} is numerically singular")
    I = rr_select(S.U, k)
    J = rr_select(S.V, l)
    Vt = S.V.T
    scaled_U = S.U * S.sigma[None, :]
    C = scaled_U @ Vt[:, J]
    R = scaled_U[I, :] @ Vt
    N = la.pinv(Vt[:, J]) @ ((1.0 / S.sigma)[:, None] * la.pinv(S.U[I, :]))
    return CURDecomp(C=C, N=N, R=R, row_indices=I, col_indices=J)


def reconstruction_error(S, decomp, kind="frobenius"):
    """Norm of U Sigma V^T - C N R, for reporting; spectral by Lanczos."""
    diff = materialize(S) - decomp.materialize()
    if kind == "frobenius":
        return float(np.linalg.norm(diff))
    return spectral_norm(diff)
