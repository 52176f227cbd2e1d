"""Sparse abridged-Hadamard and dense Gaussian sketching operators.

The abridged operator is built from d levels of the Hadamard butterfly
applied to the identity: H(0) = I_n and
H(i) = 2^{-1/2} [[H(i-1), H(i-1)], [H(i-1), -H(i-1)]] on half-size blocks,
which works out to 2^{-d/2} (Hadamard_{2^d} kron I_{n/2^d}).  The operator
keeps r' uniformly sampled distinct rows of H(d), multiplied on the right by
a seeded random +-1 diagonal for cheap mixing.  Every row then carries
exactly 2^d nonzeros of magnitude 2^{-d/2} and the rows stay orthonormal,
so a left application touches at most r' 2^d rows of the target: the access
cost is sublinear whenever r' 2^d << m.

The rows of H(d) fall into dim/2^d classes, row % (dim/2^d), and the 2^d rows
of one class share one support.  An operator built with a class pool samples
its rows only from a seeded subset of the classes, so operators that share a
pool read the same at most pool_size 2^d rows of the target between them,
however many of them are drawn.

A "right" operator is the transpose shape (n x r'), built the same way on
columns.  Applications through a CountingAccessor are the only places the
raw matrix is read; applications to factored forms never touch it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CountingAccessor, DimensionError, Factored2, PreconditionError

_POPCOUNT_TABLE = np.array([bin(x).count("1") for x in range(1 << 16)],
                           dtype=np.int64)


def _popcount(a):
    return _POPCOUNT_TABLE[a & 0xFFFF] + _POPCOUNT_TABLE[(a >> 16) & 0xFFFF]


@dataclass
class SketchOperator:
    """Test matrix F (side="left", r' x n) or H (side="right", n x r').

    ``sketch_size`` is r', ``dim`` the long axis n.  Abridged operators store
    a sparse row list (positions, values) of the wide r'-by-n form; Gaussian
    operators store it densely.  Construction is fully determined by
    (kind, side, sketch_size, dim, depth, seed, pool), which is what
    ``descriptor()`` serializes; ``pool`` is None unless the operator's rows
    come from a class pool that leaves some classes out.
    """

    kind: str
    side: str
    sketch_size: int
    dim: int
    depth: Optional[int]
    seed: int
    positions: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    dense: Optional[np.ndarray] = None
    pool: Optional[tuple] = None

    @property
    def shape(self):
        if self.side == "left":
            return (self.sketch_size, self.dim)
        return (self.dim, self.sketch_size)

    def to_dense(self):
        """Materialized operator in its declared orientation."""
        if self.kind == "gaussian":
            wide = self.dense
        else:
            wide = np.zeros((self.sketch_size, self.dim))
            np.put_along_axis(wide, self.positions, self.values, axis=1)
        return wide if self.side == "left" else wide.T

    def descriptor(self):
        d = -1 if self.depth is None else self.depth
        pool = "" if self.pool is None else ";pool=%d:%d" % self.pool
        return (f"{self.kind};side={self.side};size={self.sketch_size};"
                f"dim={self.dim};depth={d};seed={self.seed}{pool}")


def from_descriptor(text):
    """Rebuild an operator from its ``descriptor()`` string."""
    head, *fields = text.strip().split(";")
    kv = dict(item.split("=", 1) for item in fields)
    depth = int(kv["depth"])
    pool = kv.get("pool")
    return make_multiplier(head, int(kv["size"]), int(kv["dim"]),
                           depth=None if depth < 0 else depth,
                           seed=int(kv["seed"]), side=kv["side"],
                           pool=None if pool is None
                           else tuple(int(x) for x in pool.split(":")))


def make_multiplier(kind, sketch_size, dim, depth=3, seed=0, side="left",
                    pool=None):
    """Build a sketching operator.

    kind: "ahad" (abridged Hadamard) or "gaussian".
    sketch_size: r', the short axis.  dim: n, the long axis; for the
    abridged kind it must be divisible by 2^depth and >= sketch_size.
    pool: optional (pool_seed, pool_size) for the abridged kind.  The rows
    are then sampled only from the 2^depth rows of each of pool_size
    classes, the first pool_size entries of a permutation of all dim/2^depth
    classes drawn from pool_seed, so pools of one seed are nested and the
    operator reads at most pool_size 2^depth rows of the target.  The row
    choice and the signs still come from ``seed``.  A pool that covers every
    class draws exactly as no pool does, and Gaussian operators ignore it.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((sketch_size, dim))
        return SketchOperator("gaussian", side, sketch_size, dim, None, seed,
                              dense=dense)
    if kind != "ahad":
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    block = 1 << depth
    if dim % block != 0:
        raise PreconditionError(
            f"dim={dim} not divisible by 2^depth={block}")
    if sketch_size > dim:
        raise PreconditionError(
            f"sketch_size={sketch_size} exceeds dim={dim}")
    b = dim // block
    t = np.arange(block)
    rng = np.random.default_rng(seed)
    if pool is not None and pool[1] < b:
        pool_seed, pool_size = pool = (int(pool[0]), int(pool[1]))
        if sketch_size > pool_size * block:
            raise PreconditionError(
                f"sketch_size={sketch_size} exceeds the {pool_size * block} "
                f"rows of a pool of {pool_size} classes")
        classes = np.random.default_rng(pool_seed).permutation(b)[:pool_size]
        candidates = (classes[:, None] + b * t[None, :]).ravel()
        rows = rng.choice(candidates, size=sketch_size, replace=False)
    else:
        pool = None
        rows = rng.choice(dim, size=sketch_size, replace=False)
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    positions = t[None, :] * b + (rows % b)[:, None]
    hadamard_signs = 1 - 2 * (_popcount((rows // b)[:, None] & t[None, :]) & 1)
    values = (2.0 ** (-depth / 2.0)) * hadamard_signs * signs[positions]
    return SketchOperator("ahad", side, sketch_size, dim, depth, seed,
                          positions=positions, values=values, pool=pool)


def _apply_wide(op, X, positions=None):
    """Wide-form product W @ X for a dense X with op.dim rows.

    For an abridged operator, ``positions`` may index the rows of a gathered
    block X in place of ``op.positions``, which index the rows of the full
    target.
    """
    if op.kind == "gaussian":
        return op.dense @ X
    if positions is None:
        positions = op.positions
    out = np.zeros((op.sketch_size, X.shape[1]))
    for t in range(positions.shape[1]):
        out += op.values[:, t:t + 1] * X[positions[:, t], :]
    return out


def apply_dense(op, X):
    """Product with a plain dense matrix, oriented by the operator's side.

    Left operators give F @ X, right ones X @ H.  No accessor is involved:
    this is the path for sketching already-small dense intermediates.
    """
    X = np.asarray(X, dtype=np.float64)
    if op.side == "left":
        if X.shape[0] != op.dim:
            raise DimensionError(f"operator dim {op.dim} != rows {X.shape[0]}")
        return _apply_wide(op, X)
    if X.shape[1] != op.dim:
        raise DimensionError(f"operator dim {op.dim} != cols {X.shape[1]}")
    return _apply_wide(op, X.T).T


def apply_left(F, M):
    """Sketch F @ M through a CountingAccessor.

    Abridged operators read only the rows of M in the union of row supports
    (at most r' 2^d of them); Gaussian operators read everything.
    """
    if F.side != "left":
        raise DimensionError("apply_left needs a left-side operator")
    if not isinstance(M, CountingAccessor):
        raise TypeError("apply_left reads through a CountingAccessor")
    if F.dim != M.rows:
        raise DimensionError(f"operator dim {F.dim} != matrix rows {M.rows}")
    if F.kind == "gaussian":
        return F.dense @ M.read_full()
    unique = np.unique(F.positions)
    return _apply_wide(F, M.read_rows(unique),
                       np.searchsorted(unique, F.positions))


def apply_right(M, H):
    """Sketch M @ H through a CountingAccessor; column mirror of apply_left."""
    if H.side != "right":
        raise DimensionError("apply_right needs a right-side operator")
    if not isinstance(M, CountingAccessor):
        raise TypeError("apply_right reads through a CountingAccessor")
    if H.dim != M.cols:
        raise DimensionError(f"operator dim {H.dim} != matrix cols {M.cols}")
    if H.kind == "gaussian":
        return M.read_full() @ H.dense.T
    unique = np.unique(H.positions)
    return _apply_wide(H, M.read_cols(unique).T,
                       np.searchsorted(unique, H.positions)).T


def apply_to_factored(op, L):
    """Sketch of a factored form: (F A) B or A (B H), zero accessor reads."""
    if not isinstance(L, Factored2):
        raise TypeError("apply_to_factored expects a Factored2")
    m, n = L.shape
    if op.side == "left":
        if op.dim != m:
            raise DimensionError(f"operator dim {op.dim} != rows {m}")
        return _apply_wide(op, L.A) @ L.B
    if op.dim != n:
        raise DimensionError(f"operator dim {op.dim} != cols {n}")
    return L.A @ _apply_wide(op, L.B.T).T
