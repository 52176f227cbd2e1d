"""Dense matrices, factored low-rank forms, norms, truncation, error ratios.

All matrices are real double precision 2-D numpy arrays.  Factored forms hold
their factors unmaterialized; ``materialize`` turns any of them back into a
dense array.  ``CountingAccessor`` wraps a dense matrix and records every
entry read through it, which is how the sublinear-access claims of the
sketching pipeline are measured rather than trusted.  It records reads in a
sparse ledger (a row set, a column set and a list of sampled entries) of
O(m + n + sampled entries) memory, so counting costs no m-by-n mask.
Wrapping a matrix costs O(1): the accessor checks each entry finite the
first time it delivers it, not the whole matrix up front, so entries that
are never read are never checked (no sublinear-cost check can vouch for
them; criterion 11's audit finds such an unread witness).  ``as_dense``
still scans every entry.

``thin_qr`` is every reduced QR of the package: numpy's Householder R, and
a Q factor formed from the compact WY form of the reflectors by matrix
products on numpy's BLAS rather than by LAPACK's level-2 ``dorgqr``.

``spectral_norm`` is a Golub-Kahan-Lanczos bidiagonalization written in
numpy, and ``RatioOracle`` takes its denominator sigma_{rho+1} from the top
rho + 1 singular values by ``top_singular_values``, a block Rayleigh-Ritz
in numpy, not from a full SVD of the input.  So the error-ratio oracle runs
on the same OpenBLAS thread pool as the refinement; only ``truncate_svd``
calls scipy.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as la


class DimensionError(ValueError):
    """Shapes or ranks incompatible with the requested operation."""


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


FINITE_CHECK_BLOCK = 1 << 18  # entries per row block of the finiteness scan


def as_dense(a):
    """Validate and return a matrix as a C-contiguous float64 2-D array.

    Rejects empty matrices and non-finite entries.  The finiteness scan runs
    over row blocks of about FINITE_CHECK_BLOCK entries, so it needs no
    temporary the size of the matrix.  It reads every entry; a
    ``CountingAccessor`` instead checks each entry when it first delivers it.
    """
    m = _as_matrix(a)
    _check_finite(m)
    return m


def _as_matrix(a):
    """``a`` as a C-contiguous float64 2-D array, rejecting empty ones."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionError("empty matrix rejected")
    return m


def _check_finite(a, rows=None):
    """Raise PreconditionError if a row of the 2-D array ``a`` holds a
    non-finite entry: each row when ``rows`` is None, else the rows at
    ``rows``, sorted distinct positions.

    Consecutive rows are scanned as views of about FINITE_CHECK_BLOCK
    entries (at least one row); scattered ones are gathered in chunks whose
    float copies are no larger than such a block's bools.  So no temporary
    outgrows one block's bools, unless one row does.
    """
    if rows is None or rows.size == a.shape[0]:
        blocks = (a[b] for b in _row_blocks(a.shape))
    else:
        step = FINITE_CHECK_BLOCK // (a.itemsize * a.shape[1])
        blocks = (a[rows[k:k + step]] if step else a[rows[k]]
                  for k in range(0, rows.size, max(1, step)))
    for block in blocks:
        if not np.isfinite(block).all():
            raise PreconditionError("matrix entries must be finite")


def _row_blocks(shape):
    """Slices of consecutive rows of an m-by-n matrix, about
    FINITE_CHECK_BLOCK entries each and at least one row."""
    m, n = shape
    step = max(1, FINITE_CHECK_BLOCK // n)
    return [slice(start, start + step) for start in range(0, m, step)]


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

    Construction costs O(1): the target is converted like ``as_dense`` but
    not scanned.  Instead each read raises PreconditionError before it
    delivers a non-finite entry, and before it touches the ledger or
    ``total_reads``.  The marked rows and columns double as the set already
    checked, so ``read_rows``, ``read_cols`` and ``read_full`` scan only the
    rows or columns they mark for the first time; ``read_at`` and
    ``read_submatrix`` scan the entries they deliver.  Entries never read
    are never checked: no sublinear-cost check can vouch for an entry it
    does not read, which is the point of criterion 11's audit.
    Single-writer: one accessor must not be shared by concurrent readers.
    """

    def __init__(self, target):
        self.target = _as_matrix(target)
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

    def _gather(self, index):
        """Entries at ``index``, a (rows, cols) pair of broadcastable index
        arrays, checked finite, listed in the ledger and counted."""
        values = self.target[index]
        _check_finite(values.reshape(-1, 1))
        # the indexing has checked every index, so negative ones only need
        # wrapping
        self._entries.append(np.ravel_multi_index(
            index, self.shape, mode="wrap").ravel())
        self.total_reads += values.size
        return values

    def read_at(self, rows, cols):
        """Gather entries at paired (rows[t], cols[t]) positions."""
        return self._gather((np.asarray(rows), np.asarray(cols)))

    def read_rows(self, rows):
        rows = np.asarray(rows)
        out = self.target[rows, :]
        _check_finite(out.reshape(-1, self.cols),
                      np.flatnonzero(~self._row_read[rows].ravel()))
        self._row_read[rows] = True
        self.total_reads += rows.size * self.cols
        return out

    def read_cols(self, cols):
        """``target[:, cols]``: the same values, shape and column-major
        layout, gathered by ``np.take`` a row block at a time.  Fancy
        indexing of the columns of the C-ordered target is about twice as
        slow, and one ``np.take`` over all rows returns a C-ordered block
        that the sketch product then copies.  Columns not yet marked are
        checked finite a row block at a time, while the block is in cache."""
        cols = np.asarray(cols)
        out = np.empty(cols.shape + (self.rows,))
        delivered = out.reshape(-1, self.rows)
        fresh = np.flatnonzero(~self._col_read[cols].ravel())
        for block in _row_blocks(self.shape):
            out[..., block] = np.moveaxis(
                np.take(self.target[block], cols, axis=1), 0, -1)
            _check_finite(delivered[:, block], fresh)
        self._col_read[cols] = True
        self.total_reads += cols.size * self.rows
        return np.moveaxis(out, -1, 0)

    def read_submatrix(self, rows, cols):
        """Cross product block: all (i, j) with i in rows, j in cols."""
        return self._gather(np.ix_(rows, cols))

    def read_full(self):
        _check_finite(self.target, np.flatnonzero(~self._row_read))
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


def materialize(L):
    """Dense product of a factored form (or a dense matrix, returned as-is)."""
    if isinstance(L, Factored2):
        return L.A @ L.B
    if isinstance(L, TopSVD):
        return (L.U * L.sigma[None, :]) @ L.V.T
    return as_dense(L)


def matrix_norm(M, kind="spectral"):
    """Spectral (largest singular value, ``spectral_norm``) or Frobenius norm
    (by ``_scale_safe``) of a dense matrix, right at any scale."""
    M = as_dense(M)
    if kind == "spectral":
        return spectral_norm(M)
    if kind == "frobenius":
        return float(_scale_safe(M))
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
    """Sum of two 2-factor forms by factor concatenation; rank bound adds.
    A TopSVD first operand enters as its ``to_factored2()``."""
    if isinstance(L1, TopSVD):
        L1 = L1.to_factored2()
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


LANCZOS_BASIS = 32  # Krylov vectors kept per side before a restart
LANCZOS_MAX_RESTARTS = 100


def _orthogonalize(x, Q):
    """Project x off the orthonormal rows of Q in place, by classical
    Gram-Schmidt applied twice (one pass leaves rounding-level components).
    An empty Q subtracts exact zeros."""
    x -= (Q @ x) @ Q
    x -= (Q @ x) @ Q


def _scale_safe(x, f=np.linalg.norm):
    """f(x) for a positively homogeneous f (f(c x) = c f(x), c > 0), taken
    on x times the power of two that brings max|x| into [0.5, 1) and scaled
    back exactly, so the squares behind a norm neither overflow nor
    underflow (Blue, ACM TOMS 1978, as in LAPACK's dnrm2).  Where f's own
    squares neither overflow nor underflow, f(x)'s bits come back; a zero,
    inf or NaN max|x| leaves x unscaled.  A value past the largest double
    scales back to inf without a warning.
    """
    exponent = np.frexp(np.abs(x).max())[1]
    with np.errstate(over="ignore"):
        return np.ldexp(f(np.ldexp(x, -exponent)), exponent)


def spectral_norm(D):
    """Largest singular value of a dense matrix, by Golub-Kahan-Lanczos.

    Bidiagonalizes D from a fixed seed-0 normal start vector in the smaller
    dimension, reorthogonalizing both Krylov bases in full.  A basis holds
    at most LANCZOS_BASIS vectors; when it fills, the run restarts from the
    top right Ritz vector.  It stops when the top Ritz triple's residual
    beta_j |p_j| (the last entry p_j of the bidiagonal's top left singular
    vector) is at most machine epsilon times the Ritz value theta, ARPACK's
    ``tol=0`` test, and returns theta.  The start vector is fixed, so
    repeated calls on the same matrix return the same bits, and all the
    work runs on numpy's BLAS, the pool that serves refine.  The loop runs
    once on D as it is: every alpha_j and beta_j is a norm by
    ``_scale_safe``, so the squares of D's entries may overflow or
    underflow.  No case is answered up front: the all-zero matrix breaks
    down at the first step and returns 0.0, and a single row or column
    converges in one step, its orthogonalized w exactly zero, to the bits of
    ``numpy.linalg.norm(D)`` wherever numpy's squares stay normal.  A finite
    D whose norm passes the largest double returns inf.  A D whose largest
    entry is subnormal (below 2^-1022) is stored to fewer bits, but its norm
    is as good in ulps: 200x150 Gaussians at 1e-310 to 1e-320 came out 1-6
    ulps from the 2-norm of D scaled by 2^1100, and 3-7 at 1e-300.  Raises
    ``numpy.linalg.LinAlgError`` for an inf or a NaN entry, for a first-step
    breakdown on a nonzero D (the start vector lies in its null space), or
    when the test still fails after LANCZOS_MAX_RESTARTS restarts.
    """
    if D.shape[0] < D.shape[1]:
        D = D.T
    m, n = D.shape
    k = min(LANCZOS_BASIS, n)
    U = np.empty((k, m))
    V = np.empty((k, n))
    # the bidiagonal: D v_j = alpha_j u_j + beta_{j-1} u_{j-1} and
    # D^T u_j = alpha_j v_j + beta_j v_{j+1}, alpha_j = B[j, j] and
    # beta_j = B[j, j + 1]
    B = np.zeros((k, k + 1))
    v = np.random.default_rng(0).standard_normal(n)
    eps = np.finfo(np.float64).eps
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        V[0] = v / np.linalg.norm(v)
        for j in range(k):
            u = D @ V[j]
            if j:
                u -= B[j - 1, j] * U[j - 1]
            _orthogonalize(u, U[:j])
            B[j, j] = _scale_safe(u)
            if not np.isfinite(B[j, j]):
                if not np.isfinite(D).all():
                    raise np.linalg.LinAlgError("Lanczos values are not finite")
                return np.inf
            if B[j, j] == 0.0:
                if not j:
                    if D.any():
                        raise np.linalg.LinAlgError(
                            "Lanczos start vector lies in the null space")
                    return 0.0
                # D maps span V[:j + 1] into span U[:j]: an exact invariant
                # pair, whose top singular value is that of B[:j, :j + 1]
                return float(np.linalg.norm(B[:j, :j + 1], 2))
            U[j] = u / B[j, j]
            w = D.T @ U[j]
            w -= B[j, j] * V[j]
            _orthogonalize(w, V[:j + 1])
            B[j, j + 1] = _scale_safe(w)
            if not np.isfinite(B[j, j + 1]):
                return np.inf
            P, s, Qt = np.linalg.svd(B[:j + 1, :j + 1])
            if B[j, j + 1] * abs(P[j, 0]) <= eps * s[0]:
                return float(s[0])
            if j + 1 < k:
                V[j + 1] = w / B[j, j + 1]
        v = Qt[0] @ V
    raise np.linalg.LinAlgError(
        f"Lanczos did not converge in {LANCZOS_MAX_RESTARTS} restarts")


def thin_qr(A):
    """Reduced QR factorization A = Q R of a dense m-by-k matrix.

    R is the upper triangle of numpy's Householder factorization
    (``numpy.linalg.qr(A, mode="raw")``), bit for bit the R of
    ``numpy.linalg.qr``.  Q is formed from the compact WY form of the
    reflectors (Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 1989),
    Q = I - Y T Y^T with Y the unit lower-trapezoidal reflector block and
    T = D (I + striu(Y^T Y) D)^{-1}, D = diag(tau), which also holds where
    a tau_i is zero.  Its first min(m, k) columns, [I; 0] - Y (T Y_1^T),
    take two matrix products on numpy's BLAS.  LAPACK's dorgqr forms Q by
    level-2 reflector updates below its blocking crossover of 128 columns,
    and those run about three times slower on two OpenBLAS threads than on
    one; the products do not.  Q agrees with numpy's to rounding, not to the bit.
    """
    h, tau = np.linalg.qr(A, mode="raw")
    a = h.T
    k = tau.size
    R = np.triu(a[:k])
    Y = np.tril(a[:, :k], -1)
    np.fill_diagonal(Y, 1.0)
    T = np.linalg.solve(np.eye(k) + tau[:, None] * np.triu(Y.T @ Y, 1),
                        np.diag(tau))
    Q = Y @ (T @ Y[:k].T)
    # 0 - x rather than -x, so the exact zeros of Q stay +0.0
    np.subtract(0.0, Q, out=Q)
    Q[:k] += np.eye(k)
    return Q, R


TOP_SV_OVERSAMPLE = 20  # block columns past the k wanted
TOP_SV_MAX_SWEEPS = 12  # products D @ X before the dense fallback
TOP_SV_TOL = 1e-13      # residual bound, in units of the top Ritz value


def top_singular_values(D, k):
    """The k largest singular values of a dense matrix, largest first.

    Randomized subspace iteration with Rayleigh-Ritz (Halko, Martinsson,
    Tropp, SIAM Review 2011): from a fixed seed-0 normal start block X of
    k + TOP_SV_OVERSAMPLE columns, each sweep takes Q from a thin QR of
    D X, the SVD of D^T Q = P diag(s) W^T gives the Ritz triples
    (s_i, Q w_i, p_i), and X = P starts the next sweep.  D^T (Q w_i) =
    s_i p_i holds by construction, so the next product D X also yields
    the residuals ||D p_i - s_i Q w_i||; the values are returned once the
    k leading residuals are all at most TOP_SV_TOL times s_1.  A block as
    wide as min(m, n) spans the whole row or column space, so small inputs
    are exact after one projection.  When the largest residual has not
    halved per sweep on average since the first test (a spectrum with no
    gap past k), or TOP_SV_MAX_SWEEPS products have passed, the values come
    from the dense values-only SVD instead.  The residual norms are taken
    by ``_scale_safe``, so the test holds at any scale of D.  The start
    block is fixed, so repeated calls return the same bits, and all the
    work runs on numpy's BLAS.  k larger than min(m, n) returns all
    min(m, n) values.
    """
    m, n = D.shape
    k = min(k, m, n)
    X = np.random.default_rng(0).standard_normal(
        (n, min(k + TOP_SV_OVERSAMPLE, m, n)))
    s = U = first = None
    for sweep in range(TOP_SV_MAX_SWEEPS):
        Y = D @ X
        if s is not None:
            res = _scale_safe(Y[:, :k] - U[:, :k] * s[:k],
                              lambda R: np.linalg.norm(R, axis=0)).max()
            if res <= TOP_SV_TOL * s[0]:
                return s[:k]
            if first is None:
                first = res
            if res > first * 0.5 ** (sweep - 1):
                break
        Q = thin_qr(Y)[0]
        X, s, Wt = np.linalg.svd(D.T @ Q, full_matrices=False)
        U = Q @ Wt.T
    return np.linalg.svd(D, compute_uv=False)[:k]


class RatioOracle:
    """Spectral-error ratio ||M - L||_2 / ||M - M_rho||_2 against a fixed M.

    The denominator sigma_{rho+1}(M) is the last of M's rho + 1 largest
    singular values, found by ``top_singular_values``'s block Rayleigh-Ritz
    when the oracle is built; ``sigma`` holds those leading values, not the
    whole spectrum.  Each call forms the dense difference
    M - L once and takes its top singular value by ``spectral_norm``'s
    Golub-Kahan-Lanczos, which agrees with a full SVD of the difference to
    rounding.  All of it runs on numpy's BLAS, the pool refine uses, so an
    oracle call between refine iterations leaves no other pool spinning.
    When M has numerical rank <= rho (sigma_{rho+1} < DEGENERATE_GAP
    sigma_1) the ratio is undefined: ``degenerate`` is True and calls return
    the absolute spectral error.  Calls read the raw matrix, never an
    accessor.
    """

    def __init__(self, M, rho):
        M = as_dense(M)
        if not 1 <= rho <= min(M.shape):
            raise DimensionError(f"rho={rho} out of range for shape {M.shape}")
        self.M = M
        self.rho = rho
        self.sigma = top_singular_values(M, rho + 1)
        self.tau = float(self.sigma[rho]) if rho < min(M.shape) else 0.0
        self.degenerate = self.tau < DEGENERATE_GAP * float(self.sigma[0])

    def __call__(self, approx):
        """Ratio for ``approx`` (dense or any factored form).  A factored
        form's fresh product takes the difference in place; a dense
        ``approx`` is left as it is."""
        At = materialize(approx)
        if At.shape != self.M.shape:
            raise DimensionError(
                f"approx shape {At.shape} != input shape {self.M.shape}")
        if isinstance(approx, (Factored2, TopSVD)):
            D = np.subtract(self.M, At, out=At)
        else:
            D = self.M - At
        err = spectral_norm(D)
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
