"""Dense matrices, factored low-rank forms, norms, truncation, error ratios.

All matrices are real double precision 2-D numpy arrays.  Factored forms hold
their factors unmaterialized; ``materialize`` turns any of them back into a
dense array.  ``CountingAccessor`` wraps a dense matrix and records every
entry read through it, which is how the sublinear-access claims of the
sketching pipeline are measured rather than trusted.  It records reads in a
sparse ledger (a row set, a column set and a list of sampled entries) of
O(m + n + sampled entries) memory, so counting costs no m-by-n mask.
"""

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
import scipy.linalg as la
from scipy.sparse.linalg import svds


class DimensionError(ValueError):
    """Shapes or ranks incompatible with the requested operation."""


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


FINITE_CHECK_BLOCK = 1 << 18  # entries per row block of the finiteness scan


def as_dense(a):
    """Validate and return a matrix as a C-contiguous float64 2-D array.

    Rejects empty matrices and non-finite entries.  The finiteness scan runs
    over row blocks of about FINITE_CHECK_BLOCK entries, so it needs no
    temporary the size of the matrix.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionError("empty matrix rejected")
    step = max(1, FINITE_CHECK_BLOCK // m.shape[1])
    for start in range(0, m.shape[0], step):
        if not np.isfinite(m[start:start + step]).all():
            raise PreconditionError("matrix entries must be finite")
    return m


class CountingAccessor:
    """Entry-access recorder around a dense matrix.

    Every read through the accessor marks the touched (row, col) pairs and
    increments ``total_reads`` by the number of entries delivered (repeats
    included).  ``distinct_accessed`` is the size of the accessed set.

    The accessed set is kept as a sparse ledger, not as an m-by-n mask: a
    row set (``read_rows``, ``read_full``), a column set (``read_cols``) and
    a list of flat entry indices (``read_at``, ``read_submatrix``).  The
    ledger takes O(m + n + sampled entries) memory, and the exact count is
    |R| n + |C| m - |R||C| plus the distinct listed entries outside the
    marked rows and columns.  ``accessed`` builds the dense mask on request,
    for tests and audits of small inputs.
    Single-writer: one accessor must not be shared by concurrent readers.
    """

    def __init__(self, target):
        self.target = as_dense(target)
        m, n = self.target.shape
        self._row_read = np.zeros(m, dtype=bool)
        self._col_read = np.zeros(n, dtype=bool)
        self._entries = [np.empty(0, dtype=np.intp)]
        self.total_reads = 0

    @property
    def shape(self):
        return self.target.shape

    @property
    def rows(self):
        return self.target.shape[0]

    @property
    def cols(self):
        return self.target.shape[1]

    def _listed(self):
        """Sorted distinct listed entries outside the marked rows and columns.

        Rows and columns are only ever added to the ledger, so entries they
        cover are dropped from the list for good.
        """
        flat = np.unique(np.concatenate(self._entries))
        i, j = np.divmod(flat, self.cols)
        flat = flat[~(self._row_read[i] | self._col_read[j])]
        self._entries = [flat]
        return flat

    @property
    def accessed(self):
        """Boolean mask of the accessed (row, col) set, built on request."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[self._row_read, :] = True
        mask[:, self._col_read] = True
        mask.ravel()[self._listed()] = True
        return mask

    @property
    def distinct_accessed(self):
        m, n = self.shape
        r = int(np.count_nonzero(self._row_read))
        c = int(np.count_nonzero(self._col_read))
        return r * n + c * m - r * c + int(self._listed().size)

    def _list(self, rows, cols):
        # the caller has already indexed the target, so every index is in
        # range and negative ones only need wrapping
        self._entries.append(np.ravel_multi_index(
            (rows, cols), self.shape, mode="wrap").ravel())

    def read_at(self, rows, cols):
        """Gather entries at paired (rows[t], cols[t]) positions."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        values = self.target[rows, cols]
        self._list(rows, cols)
        self.total_reads += rows.size
        return values

    def read_rows(self, rows):
        rows = np.asarray(rows)
        self._row_read[rows] = True
        self.total_reads += rows.size * self.cols
        return self.target[rows, :]

    def read_cols(self, cols):
        cols = np.asarray(cols)
        self._col_read[cols] = True
        self.total_reads += cols.size * self.rows
        return self.target[:, cols]

    def read_submatrix(self, rows, cols):
        """Cross product block: all (i, j) with i in rows, j in cols."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        values = self.target[np.ix_(rows, cols)]
        self._list(*np.ix_(rows, cols))
        self.total_reads += rows.size * cols.size
        return values

    def read_full(self):
        self._row_read[:] = True
        self.total_reads += self.target.size
        return self.target

    def first_unaccessed(self):
        """Smallest row-major (i, j) never read, or None if all were read.

        Walks the unread rows in order; a row's first unread column is the
        first unmarked column that no listed entry of the row covers.
        """
        free_cols = np.flatnonzero(~self._col_read)
        if free_cols.size == 0:
            return None
        n = self.cols
        listed = self._listed()
        for i in np.flatnonzero(~self._row_read):
            lo, hi = np.searchsorted(listed, [i * n, (i + 1) * n])
            taken = listed[lo:hi] - i * n
            if taken.size < free_cols.size:
                # taken is a sorted subset of free_cols: the first free
                # column is where the two sequences part
                gap = np.flatnonzero(free_cols[:taken.size] != taken)
                j = free_cols[gap[0] if gap.size else taken.size]
                return int(i), int(j)
        return None


@dataclass
class Factored2:
    """Two-factor low-rank form A @ B, never materialized implicitly."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=np.float64)
        self.B = np.ascontiguousarray(self.B, dtype=np.float64)
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise DimensionError("factors must be 2-D")
        if self.A.shape[1] != self.B.shape[0]:
            raise DimensionError(
                f"inner dimensions disagree: {self.A.shape} @ {self.B.shape}")

    @property
    def shape(self):
        return (self.A.shape[0], self.B.shape[1])

    @property
    def rank_bound(self):
        return self.A.shape[1]

    @classmethod
    def zero(cls, m, n):
        """Width-0 factored form of the m-by-n zero matrix."""
        return cls(np.zeros((m, 0)), np.zeros((0, n)))


@dataclass
class Factored3:
    """Three-factor low-rank form X @ T @ Y."""

    X: np.ndarray
    T: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.T = np.ascontiguousarray(self.T, dtype=np.float64)
        self.Y = np.ascontiguousarray(self.Y, dtype=np.float64)
        if self.X.shape[1] != self.T.shape[0] or self.T.shape[1] != self.Y.shape[0]:
            raise DimensionError(
                f"inner dimensions disagree: {self.X.shape} @ {self.T.shape} @ {self.Y.shape}")

    @property
    def shape(self):
        return (self.X.shape[0], self.Y.shape[1])

    def to_factored2(self):
        """Fold the middle factor into X."""
        return Factored2(self.X @ self.T, self.Y)


ORTHONORMALITY_TOL = 1e-12


@dataclass
class TopSVD:
    """Leading singular triplet block U diag(sigma) V^T.

    U and V have orthonormal columns (checked to 1e-12 per entry) and sigma
    is nonincreasing and nonnegative.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.ascontiguousarray(self.U, dtype=np.float64)
        self.sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        self.V = np.ascontiguousarray(self.V, dtype=np.float64)
        rho = self.sigma.shape[0]
        if self.sigma.ndim != 1:
            raise DimensionError("sigma must be a vector")
        if self.U.shape[1] != rho or self.V.shape[1] != rho:
            raise DimensionError("U, V column counts must match len(sigma)")
        for name, Q in (("U", self.U), ("V", self.V)):
            dev = np.abs(Q.T @ Q - np.eye(rho)).max()
            if dev > ORTHONORMALITY_TOL:
                raise PreconditionError(
                    f"{name} columns not orthonormal (max deviation {dev:.2e})")
        if np.any(self.sigma < 0) or np.any(np.diff(self.sigma) > 0):
            raise PreconditionError("sigma must be nonincreasing and nonnegative")

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    @property
    def rank_bound(self):
        return self.sigma.shape[0]

    def to_factored2(self):
        return Factored2(self.U, self.sigma[:, None] * self.V.T)


AnyLRA = Union[Factored2, Factored3, TopSVD]


def materialize(L):
    """Dense product of a factored form (or a dense matrix, returned as-is)."""
    if isinstance(L, Factored2):
        return L.A @ L.B
    if isinstance(L, Factored3):
        return (L.X @ L.T) @ L.Y
    if isinstance(L, TopSVD):
        return (L.U * L.sigma[None, :]) @ L.V.T
    return as_dense(L)


def matrix_norm(M, kind="spectral"):
    """Spectral (largest singular value) or Frobenius norm of a dense matrix."""
    M = as_dense(M)
    if kind == "spectral":
        return float(la.svdvals(M)[0])
    if kind == "frobenius":
        return float(np.linalg.norm(M))
    raise ValueError(f"unknown norm kind {kind!r}")


def truncate_svd(M, rho):
    """Exact rho-truncation of a dense matrix via full SVD.

    The returned block is the optimal rank-rho approximation under both the
    spectral and Frobenius norms.
    """
    M = as_dense(M)
    if not 1 <= rho <= min(M.shape):
        raise DimensionError(f"rho={rho} out of range for shape {M.shape}")
    U, s, Vt = la.svd(M, full_matrices=False)
    return TopSVD(U[:, :rho], s[:rho], Vt[:rho, :].T)


def lra_sum(L1, L2):
    """Sum of two 2-factor forms by factor concatenation; rank bound adds."""
    if L1.shape != L2.shape:
        raise DimensionError(f"outer shapes disagree: {L1.shape} vs {L2.shape}")
    return Factored2(np.hstack([L1.A, L2.A]), np.vstack([L1.B, L2.B]))


DEGENERATE_GAP = 1e-14


class ErrorRatio(NamedTuple):
    """Relative spectral error against the optimal rank-rho error.

    When the denominator is degenerate (input has numerical rank <= rho),
    ``value`` holds the absolute spectral error and ``degenerate`` is True.
    """

    value: float
    degenerate: bool


def spectral_norm(D):
    """Largest singular value of a dense matrix, by Lanczos.

    ARPACK starts from a fixed seeded vector, so repeated calls on the same
    matrix return the same bits.  An all-zero matrix (where ARPACK cannot
    start) and a single row or column (where svds has no k=1 case) are
    answered directly.
    """
    if min(D.shape) == 1:
        return float(np.linalg.norm(D))
    if not D.any():
        return 0.0
    v0 = np.random.default_rng(0).standard_normal(min(D.shape))
    return float(svds(D, k=1, tol=0, v0=v0,
                      return_singular_vectors=False)[0])


class RatioOracle:
    """Spectral-error ratio ||M - L||_2 / ||M - M_rho||_2 against a fixed M.

    The denominator sigma_{rho+1}(M) comes from one full SVD of M when the
    oracle is built.  Each call forms the dense difference M - L once and
    takes its top singular value by Lanczos (``svds`` with k=1, tol=0),
    which agrees with a full SVD of the difference to rounding.  When M has
    numerical rank <= rho (sigma_{rho+1} < DEGENERATE_GAP sigma_1) the ratio
    is undefined: ``degenerate`` is True and calls return the absolute
    spectral error.  Calls read the raw matrix, never an accessor.
    """

    def __init__(self, M, rho):
        M = as_dense(M)
        if not 1 <= rho <= min(M.shape):
            raise DimensionError(f"rho={rho} out of range for shape {M.shape}")
        self.M = M
        self.rho = rho
        self.sigma = la.svdvals(M)
        self.tau = float(self.sigma[rho]) if rho < min(M.shape) else 0.0
        self.degenerate = self.tau < DEGENERATE_GAP * float(self.sigma[0])

    def __call__(self, approx):
        """Ratio for ``approx`` (dense or any factored form)."""
        At = materialize(approx)
        if At.shape != self.M.shape:
            raise DimensionError(
                f"approx shape {At.shape} != input shape {self.M.shape}")
        err = spectral_norm(self.M - At)
        return err if self.degenerate else err / self.tau


def relative_error_ratio(M, approx, rho):
    """||M - approx||_2 / ||M - M_rho||_2, the error ratio of an LRA.

    A ratio of 1.0 means the approximation is as good as the optimal
    rank-rho truncation.  ``approx`` may be dense or any factored form.
    A one-off ``RatioOracle``; build the oracle itself to score several
    approximations of one M.
    """
    oracle = RatioOracle(M, rho)
    return ErrorRatio(oracle(approx), oracle.degenerate)
