"""Synthetic test inputs: prescribed-spectrum matrices and single-entry deltas.

Random inputs are built as U diag(values) V^T where U and V are the first r
columns of two independent Haar-distributed orthogonal matrices, r the
number of nonzero values.  Each factor is the Q of a thin QR of a seeded
n-by-r standard Gaussian with the signs of R's diagonal folded in
(Mezzadri, "How to generate random matrices from the classical compact
groups", Notices AMS 2007), so the input costs O(n^2 r), not a full n-by-n
SVD.  The generator is numpy's PCG64, and the QR's bits do not depend on
the BLAS thread count, so a recorded 64-bit seed replays the matrix byte
for byte (tested at one and two OpenBLAS threads).
"""

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, PreconditionError

PLATEAU = 20      # leading singular values pinned at 1
FAST_CUTOFF = 100  # fast-decay spectrum is exactly zero beyond this index


@dataclass
class SpectrumSpec:
    """Prescribed nonincreasing singular-value profile."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise DimensionError("spectrum must be a nonempty vector")
        if not np.isfinite(self.values).all() or np.any(self.values < 0):
            raise PreconditionError("spectrum values must be finite and nonnegative")
        if np.any(np.diff(self.values) > 0):
            raise PreconditionError("spectrum values must be nonincreasing")


def fast_decay_spectrum(n):
    """Ones up to 20, then halving, exactly zero beyond index 100."""
    i = np.arange(1, n + 1, dtype=np.float64)
    v = np.zeros(n)
    v[i <= PLATEAU] = 1.0
    mid = (i > PLATEAU) & (i <= FAST_CUTOFF)
    v[mid] = 0.5 ** (i[mid] - PLATEAU)
    return SpectrumSpec(v)


def slow_decay_spectrum(n):
    """Ones up to 20, then inverse-square decay."""
    i = np.arange(1, n + 1, dtype=np.float64)
    v = np.ones(n)
    tail = i > PLATEAU
    v[tail] = 1.0 / (1.0 + i[tail] - PLATEAU) ** 2
    return SpectrumSpec(v)


def spectrum_by_name(kind, n):
    if n < 1:
        raise PreconditionError(f"n={n} must be positive")
    if kind == "fast":
        return fast_decay_spectrum(n)
    if kind == "slow":
        return slow_decay_spectrum(n)
    raise ValueError(f"unknown spectrum kind {kind!r}")


def _haar_columns(rng, n, r):
    """First r columns of a Haar-distributed n-by-n orthogonal matrix.

    copysign, not sign, so a zero diagonal entry of R keeps its column.
    """
    Q, R = np.linalg.qr(rng.standard_normal((n, r)))
    return Q * np.copysign(1.0, np.diag(R))


def gen_synthetic(n, spec, seed):
    """Seeded n-by-n matrix whose singular values equal ``spec.values``.

    M = U diag(s) V^T over the r nonzero values s of the spectrum, which
    form a prefix since the spectrum is nonincreasing and nonnegative.  U
    and V are n-by-r with orthonormal columns, drawn Haar (U first, then V)
    from one ``default_rng(seed)``.
    """
    if spec.values.shape[0] != n:
        raise DimensionError(
            f"spectrum length {spec.values.shape[0]} != n={n}")
    r = np.count_nonzero(spec.values)
    rng = np.random.default_rng(seed)
    U = _haar_columns(rng, n, r)
    V = _haar_columns(rng, n, r)
    return (U * spec.values[:r]) @ V.T


def gen_delta(m, n, i, j):
    """Rank-1 matrix with a single unit entry at 1-based position (i, j)."""
    if not (1 <= i <= m and 1 <= j <= n):
        raise PreconditionError(f"index ({i}, {j}) out of range for {m}x{n}")
    M = np.zeros((m, n))
    M[i - 1, j - 1] = 1.0
    return M
