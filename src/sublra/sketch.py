"""Sparse abridged-Hadamard and dense Gaussian sketching operators.

The abridged operator is built from d levels of the Hadamard butterfly
applied to the identity: H(0) = I_n and
H(i) = 2^{-1/2} [[H(i-1), H(i-1)], [H(i-1), -H(i-1)]] on half-size blocks,
which works out to 2^{-d/2} (Hadamard_{2^d} kron I_{n/2^d}), Hadamard_{2^d}
being the d-fold Kronecker power of [[1, 1], [1, -1]] (Sylvester order), so
its entry (i, j) is (-1)^popcount(i & j).  The signs are computed from that
parity on the sampled rows only; no 2^d-by-2^d table is built.  The operator
keeps r' uniformly sampled distinct rows of H(d), multiplied on the right by
a seeded random +-1 diagonal for cheap mixing.  When 2^d divides n, every
row then carries exactly 2^d nonzeros of magnitude 2^{-d/2} and the rows stay
orthonormal, so a left application touches at most r' 2^d rows of the
target: the access cost is sublinear whenever r' 2^d << m.

Any other n is padded virtually: the operator is drawn on
n' = 2^d ceil(n / 2^d) and keeps only its first n columns, so it gives the
n'-operator's sketch of the target with zero rows appended, and never reads
past the target.  A cut row keeps those of its 2^d support columns that lie
below n: at least one, and 2^d or 2^d - 1 whenever n >= 2^d (2^d - 1).  Cut
rows need not be orthogonal, but the operator, a column subset of one with
orthonormal rows, still has spectral norm at most 1.

The rows of H(d) fall into n'/2^d classes, row % (n'/2^d), and the 2^d rows
of one class share one support.  An operator built with a class pool samples
its rows only from a seeded subset of the classes, so operators that share a
pool read the same at most pool_size 2^d rows of the target between them,
however many of them are drawn.

A "right" operator is the transpose shape (n x r'), built the same way on
columns.  Each operator is stored as one matrix, its wide r'-by-n form W
(CSR for the abridged kind, dense for the Gaussian one), and applied as one
product, W @ X or X @ W^T.  Applications through a CountingAccessor are the
only places the raw matrix is read; applications to factored forms never
touch it.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import (CountingAccessor, DimensionError, Factored2,
                   PreconditionError, TopSVD)


@dataclass
class SketchOperator:
    """Test matrix F (side="left", r' x n) or H (side="right", n x r').

    ``wide`` is the wide form W, ``sketch_size`` r' by ``dim`` n: F = W and
    H = W^T.  An abridged W is a CSR array whose row i lists its support
    columns in increasing order (``positions``) with their signed values
    (``values``); a Gaussian W is dense.  ``make_multiplier`` builds every
    operator from its arguments alone, so the same arguments rebuild it.
    """

    kind: str
    side: str
    wide: object

    @property
    def sketch_size(self):
        return self.wide.shape[0]

    @property
    def dim(self):
        return self.wide.shape[1]

    def _by_row(self, flat):
        """Abridged CSR data as r' rows of one length (2^d when uncut);
        raises where a cut operator's rows differ in length."""
        if np.ptp(np.diff(self.wide.indptr)):
            raise ValueError("a cut operator's rows differ in length")
        return flat.reshape(self.sketch_size, -1)

    @property
    def positions(self):
        """int64 support columns of each row, increasing (see _by_row)."""
        return self._by_row(self.wide.indices.astype(np.int64))

    @property
    def values(self):
        """Signed values at ``positions``."""
        return self._by_row(self.wide.data)

    @property
    def shape(self):
        return self.wide.shape[::1 if self.side == "left" else -1]

    def to_dense(self):
        """Materialized operator in its declared orientation."""
        wide = self.wide.toarray() if self.kind == "ahad" else self.wide
        return wide if self.side == "left" else wide.T


def make_multiplier(kind, sketch_size, dim, depth=3, seed=0, side="left",
                    pool=None):
    """Build a sketching operator.

    kind: "ahad" (abridged Hadamard) or "gaussian".
    sketch_size: r', the short axis.  dim: n, the long axis; for the
    abridged kind it must be >= sketch_size and >= 2^depth; the operator is
    drawn on padded = 2^depth ceil(dim / 2^depth) and cut to its first dim
    columns (see the module docstring).
    pool: optional (pool_seed, pool_size) for the abridged kind.  The rows
    are then sampled only from the 2^depth rows of each of pool_size
    classes, the first pool_size of a permutation of all padded/2^depth
    classes drawn from pool_seed, so pools of one seed are nested and the
    operator reads at most pool_size 2^depth rows of the target.  The row
    choice and the signs still come from ``seed``.  A pool that covers every
    class draws exactly as no pool does, and Gaussian operators ignore it.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if sketch_size < 1:
        raise PreconditionError(
            f"sketch_size must be positive, got {sketch_size}")
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        return SketchOperator("gaussian", side,
                              rng.standard_normal((sketch_size, dim)))
    if kind != "ahad":
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    block = 1 << depth
    if block > dim:
        raise PreconditionError(f"2^depth={block} exceeds dim={dim}")
    if sketch_size > dim:
        raise PreconditionError(
            f"sketch_size={sketch_size} exceeds dim={dim}")
    b = -(-dim // block)
    padded = b * block
    t = np.arange(block)
    rng = np.random.default_rng(seed)
    if pool is not None and pool[1] < b:
        pool_seed, pool_size = pool
        if sketch_size > pool_size * block:
            raise PreconditionError(
                f"sketch_size={sketch_size} exceeds the {pool_size * block} "
                f"rows of a pool of {pool_size} classes")
        classes = np.random.default_rng(pool_seed).permutation(b)[:pool_size]
        candidates = (classes[:, None] + b * t[None, :]).ravel()
        rows = rng.choice(candidates, size=sketch_size, replace=False)
    else:
        rows = rng.choice(padded, size=sketch_size, replace=False)
    signs = rng.integers(0, 2, size=padded) * 2 - 1
    positions = t[None, :] * b + (rows % b)[:, None]
    # bitwise_count gives uint8, which 1 - 2 * parity would wrap to 255
    parity = np.bitwise_count((rows // b)[:, None] & t).astype(np.int64) & 1
    values = (2.0 ** (-depth / 2.0)) * (1 - 2 * parity) * signs[positions]
    # row i's entries in increasing column order, the order W @ X adds them
    wide = sparse.csr_array(
        (values.ravel(), positions.ravel(),
         np.arange(0, positions.size + 1, block)),
        shape=(sketch_size, padded))
    return SketchOperator("ahad", side,
                          wide if padded == dim else wide[:, :dim])


def _oriented(W, side, X):
    """W @ X for a left operator, X @ W^T for a right one, W being the wide
    form of the operator or its columns that meet a gathered block X."""
    return W @ X if side == "left" else X @ W.T


def _check_dim(op, shape, prefix=""):
    axis = 0 if op.side == "left" else 1
    if shape[axis] != op.dim:
        raise DimensionError(f"operator dim {op.dim} != {prefix}"
                             f"{('rows', 'cols')[axis]} {shape[axis]}")


def apply_dense(op, X):
    """Product with a plain dense matrix, oriented by the operator's side.

    Left operators give F @ X, right ones X @ H.  No accessor is involved:
    this is the path for sketching already-small dense intermediates.
    """
    X = np.asarray(X, dtype=np.float64)
    _check_dim(op, X.shape)
    return _oriented(op.wide, op.side, X)


def _read_sketch(op, M, side):
    """Body of apply_left and apply_right: the one place sketches read M."""
    if op.side != side:
        raise DimensionError(f"apply_{side} needs a {side}-side operator")
    if not isinstance(M, CountingAccessor):
        raise TypeError(f"apply_{side} reads through a CountingAccessor")
    _check_dim(op, M.shape, "matrix ")
    if op.kind == "gaussian":
        return _oriented(op.wide, side, M.read_full())
    unique = np.unique(op.wide.indices)
    read = M.read_rows if side == "left" else M.read_cols
    return _oriented(op.wide[:, unique], side, read(unique))


def apply_left(F, M):
    """Sketch F @ M through a CountingAccessor.

    Abridged operators read only the rows of M in the union of row supports
    (at most r' 2^d of them); Gaussian operators read everything.
    """
    return _read_sketch(F, M, "left")


def apply_right(M, H):
    """Sketch M @ H through a CountingAccessor; column mirror of apply_left."""
    return _read_sketch(H, M, "right")


def apply_to_factored(op, L):
    """Sketch of a factored form, zero accessor reads: (F A) B or A (B H)
    for a Factored2, and ((F U) diag(sigma)) V^T or U (diag(sigma) (V^T H))
    for a TopSVD, which so never forms its sigma V^T."""
    if isinstance(L, TopSVD):
        if op.side == "left":
            return (apply_dense(op, L.U) * L.sigma) @ L.V.T
        return L.U @ (L.sigma[:, None] * apply_dense(op, L.V.T))
    if not isinstance(L, Factored2):
        raise TypeError("apply_to_factored expects a Factored2 or a TopSVD")
    if op.side == "left":
        return apply_dense(op, L.A) @ L.B
    return L.A @ apply_dense(op, L.B)
