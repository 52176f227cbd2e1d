"""Sketch-based rank-r correction and the iterative refinement driver.

Refinement reads the input matrix only through sketches.  One step of
classical iterative refinement, ``_step``, takes multipliers F (2r x m) and
H (n x r), forms the residual sketches F E = F M - F Mtilde and
E H = M H - Mtilde H, fits a rank-r correction from the sketches alone and
adds it to the running approximation Mtilde; it is the only code that reads
M.  The driver, ``refine``, draws new F and H for every step, checks that
nothing read M after it, evaluates the sum, truncates it back to the target
rank and records the iteration.  The rank-r fit (a thin QR and a thin
SVD) is:

    Q  <- Q factor of the thin QR of E H
    W, s, V <- thin SVD of F Q = W diag(s) V^T
    correction = Q (V diag(s^+) W^T (F E))

which, with s^+ zeroing the singular values at or below 1e-12 s_1,
recovers E exactly whenever E has rank at most r and the sketches
retain it.  Each iteration runs at r = rank + rho: r = rho first, then
r = 2 rho, since every iterate is truncated back to rank rho.  A run takes
exactly ``max_iters`` iterations.

The driver keeps each iterate as U S V^T with U and V orthonormal: after
a truncation S = diag(sigma); after iteration 0, whose fit Q C stays
untruncated, U = Q and a thin QR of C^T gives V and S.  So each truncation
is an SVD update of the iterate by the correction (``topsvd.recompress``
with ``right=(S, V)``), which factors only the parts of Q and C^T outside
span(U) and span(V), not the whole sum; only a result that is not
orthonormal is recomputed from the whole sum by Householder QRs
(``topsvd.topsvd_of_lra``).  The driver holds one copy of
each factor: it drops the iterate once the step has copied it into the
sum, and the sum once it is truncated.

Abridged multipliers draw their rows and signs anew every iteration, but
only from one class pool per run (see ``sketch.make_multiplier``): 2 r_max
row classes for F and r_max for H, r_max = 2 rho.  So the whole run reads
at most 2^d (2 r_max n + r_max m) entries of M, the budget of one
iteration.

All arithmetic is uniform IEEE double precision; classical refinement
sometimes carries the residual subtraction at higher precision, but at these
problem scales float64 leaves the truncation level far below the optimal
rank-rho error, so no mixed-precision path is provided.

The QR and the SVDs run on ``numpy.linalg``, the same OpenBLAS that every
matrix product here uses, so one BLAS thread pool serves the whole run (see
README, "Linear algebra").  The QR is ``core.thin_qr``, whose Q factor is
formed by matrix products from the compact WY form of the reflectors.
numpy's QR does not reject inf or NaN, so the fit checks its sketches for
finiteness itself.
"""

import csv
import io
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (CountingAccessor, DimensionError, Factored2,
                   PreconditionError, lra_sum, thin_qr)
from .sketch import (apply_dense, apply_left, apply_right, apply_to_factored,
                     make_multiplier)
from .topsvd import recompress

REPORT_SCHEMA = "sublra-report-v1"


class RankDeficientSketchWarning(UserWarning):
    """F Q was numerically rank deficient; its singular values at or below
    1e-12 times the largest were zeroed in the fit's pseudo-inverse."""


@dataclass
class RefineConfig:
    """Knobs of one refinement run: target rank rho, the number of
    iterations (all of them run), the multiplier family, its depth and the
    master seed."""

    rho: int
    max_iters: int = 3
    multiplier: str = "ahad"
    depth: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rho < 1:
            raise PreconditionError("rho must be positive")
        if self.max_iters < 1:
            raise PreconditionError("max_iters must be positive")
        if self.multiplier not in ("ahad", "gaussian"):
            raise ValueError(f"unknown multiplier {self.multiplier!r}")

    def validate_for(self, shape):
        m, n = shape
        if 2 * (2 * self.rho) > min(m, n):
            raise PreconditionError(
                f"sketch shapes need 4*rho <= min(m, n); rho={self.rho}, "
                f"shape={shape}")


@dataclass
class IterationRecord:
    iteration: int
    rank_before: int
    rank_after: int
    ratio_before: Optional[float]
    ratio_after: Optional[float]
    distinct_accesses: int
    total_reads: int


@dataclass
class RefinementReport:
    config: RefineConfig
    records: list = field(default_factory=list)
    final_rank: int = 0
    total_distinct_accesses: int = 0
    total_reads: int = 0
    wall_time: float = 0.0

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["schema", "iter", "ratio_before", "ratio_after", "rank",
                    "distinct_accesses", "total_reads"])
        for r in self.records:
            w.writerow([REPORT_SCHEMA, r.iteration, r.ratio_before,
                        r.ratio_after, r.rank_after, r.distinct_accesses,
                        r.total_reads])
        return buf.getvalue()

    def summary(self):
        c = self.config
        lines = [
            f"refinement: rho={c.rho} multiplier={c.multiplier} depth={c.depth} "
            f"iters={len(self.records)} seed={c.seed}",
            f"final rank {self.final_rank}, distinct accesses "
            f"{self.total_distinct_accesses}, total reads {self.total_reads}, "
            f"{self.wall_time:.3f}s",
        ]
        for r in self.records:
            rb = "-" if r.ratio_before is None else f"{r.ratio_before:.4e}"
            ra = "-" if r.ratio_after is None else f"{r.ratio_after:.4e}"
            lines.append(
                f"  iter {r.iteration}: rank {r.rank_before}->{r.rank_after} "
                f"ratio before/after {rb}/{ra}")
        return "\n".join(lines)


def sketch_rank_r_approx(FE, EH, F):
    """Rank-r fit of an implicit matrix E from its two-sided sketches.

    FE is the 2r-by-n left sketch, EH the m-by-r right sketch, F the operator
    that produced FE.  Returns the correction in factored form with rank
    bound r.  A sketch with an inf or NaN entry (say, from an input whose
    entries overflow when summed) raises PreconditionError.
    """
    FE = np.asarray(FE, dtype=np.float64)
    EH = np.asarray(EH, dtype=np.float64)
    r = EH.shape[1]
    if F.shape != (FE.shape[0], EH.shape[0]):
        raise DimensionError(
            f"operator shape {F.shape} inconsistent with sketches "
            f"{FE.shape} and {EH.shape}")
    if FE.shape[0] != 2 * r:
        raise DimensionError(
            f"left sketch must have 2r={2 * r} rows, got {FE.shape[0]}")
    for name, sketch in (("left sketch FE", FE), ("right sketch EH", EH)):
        if not np.isfinite(sketch).all():
            raise PreconditionError(
                f"{name} has non-finite entries; the input may overflow "
                f"float64 when sketched")
    Q = thin_qr(EH)[0]
    W, s, Vt = np.linalg.svd(apply_dense(F, Q), full_matrices=False)
    keep = s > 1e-12 * s[0]
    if not keep.all():
        warnings.warn(
            f"rank-deficient sketch core: zeroed {int((~keep).sum())} of "
            f"{s.size} singular values in the pseudo-inverse",
            RankDeficientSketchWarning, stacklevel=2)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return Factored2(Q, (Vt.T * inv) @ (W.T @ FE))


def _run_seeds(master_seed, max_iters):
    """The (F, H) seeds of each iteration and the seeds of the run's left
    and right class pools.

    The iteration seeds come from spawned children of the master sequence.
    The pool seeds are the master sequence's own state, which no spawned
    iteration child shares, so they depend on the seed alone: not on
    max_iters, and they leave the iteration seeds as they are.
    """
    master = np.random.SeedSequence(master_seed)
    iterations = [child.generate_state(2, dtype=np.uint64).tolist()
                  for child in master.spawn(max_iters)]
    return iterations, master.generate_state(2, dtype=np.uint64).tolist()


def _step(M, approx, F, H):
    """One step of classical refinement: approx plus a rank-r correction of
    its residual E = M - approx, fitted from the sketches F E and E H, which
    are the only reads of M."""
    FE = apply_left(F, M) - apply_to_factored(F, approx)
    EH = apply_right(M, H) - apply_to_factored(H, approx)
    return lra_sum(approx, sketch_rank_r_approx(FE, EH, F))


def refine(M, config, evaluator=None):
    """Iteratively refine a low-rank approximation of M through sketches.

    M is a CountingAccessor; all raw reads happen inside ``_step``, and the
    driver checks in every iteration that nothing reads M after it.
    ``evaluator``, when given, is called with each pre-truncation and
    post-truncation iterate to fill the report's error ratios; it must not
    read through the accessor, and a read raises RuntimeError.

    Runs exactly ``config.max_iters`` iterations and returns
    (approximation, report); the approximation has rank at most rho.
    """
    if not isinstance(M, CountingAccessor):
        raise TypeError("refine reads through a CountingAccessor")
    config.validate_for(M.shape)
    m, n = M.shape
    t0 = time.perf_counter()
    approx = Factored2.zero(m, n)
    report = RefinementReport(config=config)
    seeds, (pool_f, pool_h) = _run_seeds(config.seed, config.max_iters)
    r_max = 2 * config.rho
    right = None  # (S, V) with approx = approx.A S V^T, V orthonormal

    for i, (seed_f, seed_h) in enumerate(seeds):
        k = approx.rank_bound
        r = k + config.rho
        F = make_multiplier(config.multiplier, 2 * r, m, depth=config.depth,
                            seed=seed_f, side="left", pool=(pool_f, 2 * r_max))
        H = make_multiplier(config.multiplier, r, n, depth=config.depth,
                            seed=seed_h, side="right", pool=(pool_h, r_max))
        updated = _step(M, approx, F, H)
        # approx's factors are the leading blocks of updated's
        del approx
        reads_after_step = M.total_reads
        rank_before = updated.rank_bound
        ratio_before = None if evaluator is None else float(evaluator(updated))
        if updated.rank_bound > config.rho:
            if right is None:
                # iteration 0 kept its fit Q C untruncated, Q orthonormal;
                # the thin QR C^T = V R gives C = S V^T with S = R^T
                V, R = thin_qr(updated.B[:k].T)
                right = (R.T, V)
                del V, R  # right holds them until the next truncation frees it
            top = recompress(updated, config.rho, right=right)
            approx, right = top.to_factored2(), (np.diag(top.sigma), top.V)
            # approx and right hold the factors now; the sum is dead, so
            # free it before the evaluator and the next step run
            del top, updated
            ratio_after = None if evaluator is None else float(evaluator(approx))
        else:
            approx = updated
            ratio_after = ratio_before
        if M.total_reads != reads_after_step:
            raise RuntimeError(
                f"input read outside sketch application in iteration {i}: "
                f"{M.total_reads - reads_after_step} entries")

        report.records.append(IterationRecord(
            iteration=i,
            rank_before=rank_before,
            rank_after=approx.rank_bound,
            ratio_before=ratio_before,
            ratio_after=ratio_after,
            distinct_accesses=M.distinct_accessed,
            total_reads=M.total_reads,
        ))

    report.final_rank = approx.rank_bound
    report.total_distinct_accesses = M.distinct_accessed
    report.total_reads = M.total_reads
    report.wall_time = time.perf_counter() - t0
    return approx, report
