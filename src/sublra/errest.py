"""Cheap a posteriori error estimation for low-rank approximations.

Every estimator here runs at sublinear cost in the error matrix: entry
sampling gives hard lower bounds on both norms, sketch ratios give norm lower
bounds by submultiplicativity, and under an i.i.d.-entries model a small
random submatrix yields a Frobenius-norm estimate with chi-square confidence.
None of these can certify an arbitrary error matrix (a single planted spike
defeats entry sampling), which is the structural limitation the audit command
demonstrates.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from .core import CountingAccessor, DimensionError, PreconditionError, matrix_norm

MIN_IID_SAMPLES = 100


@dataclass
class ErrorEstimate:
    lower_bound: float
    upper_bound: Optional[float] = None
    confidence: Optional[float] = None
    method: str = ""
    sample_size: int = 0

    def __post_init__(self):
        if self.lower_bound < 0:
            raise PreconditionError("lower_bound must be nonnegative")
        if self.upper_bound is not None and self.lower_bound > self.upper_bound:
            raise PreconditionError("lower_bound exceeds upper_bound")

    def labeled(self):
        parts = [f"method={self.method}",
                 f"lower_bound={self.lower_bound:.6e}"]
        if self.upper_bound is not None:
            parts.append(f"upper_bound={self.upper_bound:.6e}")
        if self.confidence is not None:
            parts.append(f"confidence={self.confidence}")
        parts.append(f"sample_size={self.sample_size}")
        return "\n".join(parts)


def entry_lower_bound(E, sample_count, seed=0):
    """Max |entry| over a uniform sample without replacement.

    Any entry magnitude lower-bounds both the spectral and Frobenius norms.
    Reads exactly ``sample_count`` distinct entries.
    """
    if not isinstance(E, CountingAccessor):
        raise TypeError("entry_lower_bound reads through a CountingAccessor")
    m, n = E.shape
    if not 1 <= sample_count <= m * n:
        raise PreconditionError(
            f"sample_count={sample_count} out of range for {m}x{n}")
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=sample_count, replace=False)
    values = E.read_at(flat // n, flat % n)
    return ErrorEstimate(lower_bound=float(np.abs(values).max()),
                         method="entry-sample", sample_size=sample_count)


def _operator_norm(op, kind="spectral"):
    """Norm of a sketching operator.

    An abridged operator has r' orthonormal rows, so its spectral norm is 1
    and its Frobenius norm sqrt(r') exactly; a Gaussian one is computed.
    """
    if op.kind == "ahad":
        if kind == "spectral":
            return 1.0
        if kind == "frobenius":
            return float(np.sqrt(op.sketch_size))
    return matrix_norm(op.to_dense(), kind)


def sketch_norm_bounds(F=None, H=None, FE=None, EH=None, FEH=None,
                       kind="spectral"):
    """Norm lower bound from sketches: the best of |||FE|||/|||F|||,
    |||EH|||/|||H||| and |||FEH|||/(|||F||| |||H|||).

    Valid for both norm kinds by submultiplicativity.  No upper bound is
    reported; with random multipliers the same ratios are upper-bound
    heuristics only.
    """
    ratios = []
    size = 0
    if FE is not None:
        if F is None:
            raise DimensionError("FE given without F")
        ratios.append(matrix_norm(FE, kind) / _operator_norm(F, kind))
        size += np.asarray(FE).size
    if EH is not None:
        if H is None:
            raise DimensionError("EH given without H")
        ratios.append(matrix_norm(EH, kind) / _operator_norm(H, kind))
        size += np.asarray(EH).size
    if FEH is not None:
        if F is None or H is None:
            raise DimensionError("FEH given without F and H")
        ratios.append(matrix_norm(FEH, kind)
                      / (_operator_norm(F, kind) * _operator_norm(H, kind)))
        size += np.asarray(FEH).size
    if not ratios:
        raise PreconditionError("no sketches given")
    return ErrorEstimate(lower_bound=float(max(ratios)),
                         method=f"sketch-ratio-{kind}", sample_size=size)


def frobenius_confidence_band(sample_size, confidence):
    """Multiplicative (lo, hi) such that truth/estimate lies in [lo, hi]
    with the requested probability under the i.i.d. Gaussian model."""
    alpha = 1.0 - confidence
    q_hi = stats.chi2.ppf(1.0 - alpha / 2.0, df=sample_size)
    q_lo = stats.chi2.ppf(alpha / 2.0, df=sample_size)
    return (float(np.sqrt(sample_size / q_hi)),
            float(np.sqrt(sample_size / q_lo)))


def gaussian_error_estimate(E, q, s, seed=0, confidence=0.95):
    """Frobenius-norm estimate assuming i.i.d. entries, from a q-by-s sample.

    Draws q rows and s columns without replacement and reads exactly q*s
    entries.  With mu_K the mean of |entries| and sigma_K^2 their variance
    around it, sigma_K^2 + mu_K^2 is the sample mean square, so the estimate
    sqrt(m n (sigma_K^2 + mu_K^2)) is reported as ``upper_bound``.  The
    sampled max |entry| is kept as the hard ``lower_bound``.  Under the model
    the truth falls within ``frobenius_confidence_band(q*s, confidence)``
    times the estimate.  The i.i.d. assumption is essential: a single spike
    outside the sample goes undetected.
    """
    if not isinstance(E, CountingAccessor):
        raise TypeError("gaussian_error_estimate reads through a CountingAccessor")
    m, n = E.shape
    if q < 1 or s < 1:
        raise PreconditionError(
            f"q and s must be positive, got q={q}, s={s}")
    if q * s < MIN_IID_SAMPLES:
        raise PreconditionError(
            f"q*s = {q * s} too small; need at least {MIN_IID_SAMPLES}")
    if q > m or s > n:
        raise PreconditionError(f"submatrix {q}x{s} exceeds matrix {m}x{n}")
    rng = np.random.default_rng(seed)
    rows = rng.choice(m, size=q, replace=False)
    cols = rng.choice(n, size=s, replace=False)
    sample = np.abs(E.read_submatrix(rows, cols)).ravel()
    mu = float(sample.mean())
    var = float(((sample - mu) ** 2).mean())
    estimate = float(np.sqrt(m * n * (var + mu * mu)))
    return ErrorEstimate(lower_bound=float(sample.max()),
                         upper_bound=estimate,
                         confidence=confidence,
                         method="gaussian-iid",
                         sample_size=q * s)


def residual_probe(Mprev, Mcur, probe_count, seed=0, mode="gaussian"):
    """Max |f^T (Mcur - Mprev) h| over probe pairs, through the factors.

    Probe vectors are unit-length Gaussian directions (mode="gaussian") or
    cycled coordinate vectors (mode="coordinate", for exact unit tests).
    Each probe costs O((m + n) k); the difference is never materialized, so
    the value is invariant under re-factoring of either input.
    """
    if Mprev.shape != Mcur.shape:
        raise DimensionError(
            f"shapes disagree: {Mprev.shape} vs {Mcur.shape}")
    m, n = Mcur.shape
    if probe_count < 1:
        raise PreconditionError("probe_count must be positive")
    rng = np.random.default_rng(seed)
    best = 0.0
    for t in range(probe_count):
        if mode == "gaussian":
            f = rng.standard_normal(m)
            f /= np.linalg.norm(f)
            h = rng.standard_normal(n)
            h /= np.linalg.norm(h)
            fA = (f @ Mcur.A, f @ Mprev.A)
            Bh = (Mcur.B @ h, Mprev.B @ h)
        elif mode == "coordinate":
            i, j = t % m, t % n
            fA = (Mcur.A[i, :], Mprev.A[i, :])
            Bh = (Mcur.B[:, j], Mprev.B[:, j])
        else:
            raise ValueError(f"unknown probe mode {mode!r}")
        value = abs(float(fA[0] @ Bh[0]) - float(fA[1] @ Bh[1]))
        best = max(best, value)
    return best
