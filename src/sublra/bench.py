"""Benchmark harness: error-ratio tables, spectra export, delta-family audit.

``run_bench`` replays the synthetic-input experiment: for each (input,
multiplier) pair it runs the refinement a number of independent trials and
averages the per-iteration error ratios before and after truncation.  Ratios
come from one ``core.RatioOracle`` per input (re-exported here): its
denominator sigma_{rho+1} is the last of the input's rho + 1 largest
singular values, found once by ``core.top_singular_values``'s block
Rayleigh-Ritz, and each numerator ||M - L||_2 is found by
``core.spectral_norm``'s Golub-Kahan-Lanczos on the products
M x - A (B x) and M^T y - B^T (A^T y) of the factored iterate L = A B,
never forming the dense difference; neither takes a full SVD.  Both run on
numpy's BLAS, like the refinement, so ``run_bench`` calls no scipy BLAS.
That oracle work reads the raw matrix directly and is excluded from the
access counters, which only ever see the sketch applications.  Every
input's rho is checked against its shape before any oracle is built.

``audit_pipeline`` demonstrates the structural limit of superfast
approximation: any pipeline that skips an entry (i, j) returns identical
output on the zero matrix and on the single-entry matrix at (i, j), so one of
the two answers carries spectral error at least 1/2.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (CountingAccessor, Factored2, PreconditionError,
                   RatioOracle, as_dense, materialize, matrix_norm,
                   spectral_norm, top_singular_values, truncate_svd)
from .cur import nucleus_norm_bound, reconstruction_error, svd_to_cur
from .errest import entry_lower_bound, gaussian_error_estimate
from .matgen import gen_delta, gen_synthetic, spectrum_by_name
from .mmio import load_matrix
from .refine import RefineConfig, refine
from .topsvd import topsvd_of_lra

BENCH_SCHEMA = "sublra-bench-v1"


@dataclass
class BenchInput:
    """One resolved bench input: a dense matrix plus its target rank."""

    label: str
    matrix: np.ndarray
    rho: int
    gen_seed: Optional[int] = None


@dataclass
class BenchSpec:
    inputs: list
    multipliers: list = field(default_factory=lambda: [RefineConfig.multiplier])
    depth: int = RefineConfig.depth
    iters: int = RefineConfig.max_iters
    trials: int = 100
    seed: int = RefineConfig.seed

    def __post_init__(self):
        if self.trials < 1 or self.iters < 1:
            raise ValueError("trials and iters must be positive")


@dataclass
class BenchRow:
    input_label: str
    multiplier: str
    n: int
    rho: int
    depth: int
    iters: int
    trials: int
    seed: int
    gen_seed: Optional[int]
    itr1: float
    before: list
    after: list
    # standard errors of the means above, for regression checks
    itr1_se: float = 0.0
    before_se: list = field(default_factory=list)
    after_se: list = field(default_factory=list)


def synthetic_input(kind, n, rho=20, seed=12345):
    spec = spectrum_by_name(kind, n)
    return BenchInput(label=kind, matrix=gen_synthetic(n, spec, seed),
                      rho=rho, gen_seed=seed)


def file_input(path, rho):
    return BenchInput(label=path, matrix=load_matrix(path), rho=rho)


def trial_seeds(master_seed, trials):
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0])
            for child in ss.spawn(trials)]


def run_bench(spec):
    """Mean before/after-truncation error ratios per (input, multiplier).

    Each trial draws independent multipliers from a per-trial seed; trial
    results are aggregated by trial index, so the output is reproducible
    byte for byte from (inputs, spec.seed).  An input whose rho breaks
    4 rho <= min(m, n) raises PreconditionError before any oracle is built.
    """
    for binput in spec.inputs:
        RefineConfig(rho=binput.rho).validate_for(binput.matrix.shape)
    rows = []
    for binput in spec.inputs:
        oracle = RatioOracle(binput.matrix, binput.rho)
        for mult in spec.multipliers:
            per_iter = np.zeros((spec.trials, spec.iters, 2))
            for t, seed in enumerate(trial_seeds(spec.seed, spec.trials)):
                config = RefineConfig(rho=binput.rho, max_iters=spec.iters,
                                      multiplier=mult, depth=spec.depth,
                                      seed=seed)
                acc = CountingAccessor(binput.matrix)
                _, report = refine(acc, config, evaluator=oracle)
                for j, rec in enumerate(report.records):
                    per_iter[t, j, 0] = rec.ratio_before
                    per_iter[t, j, 1] = rec.ratio_after
            means = per_iter.mean(axis=0)
            se = per_iter.std(axis=0, ddof=1) / np.sqrt(spec.trials) \
                if spec.trials > 1 else np.zeros_like(means)
            rows.append(BenchRow(
                input_label=binput.label, multiplier=mult,
                n=binput.matrix.shape[1], rho=binput.rho, depth=spec.depth,
                iters=spec.iters, trials=spec.trials, seed=spec.seed,
                gen_seed=binput.gen_seed,
                itr1=float(means[0, 1]),
                before=[float(v) for v in means[1:, 0]],
                after=[float(v) for v in means[1:, 1]],
                itr1_se=float(se[0, 1]),
                before_se=[float(v) for v in se[1:, 0]],
                after_se=[float(v) for v in se[1:, 1]]))
    return rows


def bench_csv(rows):
    """RFC-4180 table, one row per (input, multiplier), config echoed."""
    if not rows:
        return ""
    iters = rows[0].iters
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ["schema", "input", "multiplier", "n", "rho", "depth", "iters",
              "trials", "seed", "gen_seed", "itr1"]
    for j in range(2, iters + 1):
        header += [f"itr{j}_before", f"itr{j}_after"]
    w.writerow(header)
    for r in rows:
        line = [BENCH_SCHEMA, r.input_label, r.multiplier, r.n, r.rho,
                r.depth, r.iters, r.trials, r.seed, r.gen_seed, r.itr1]
        for pair in zip(r.before, r.after):
            line += pair
        w.writerow(line)
    return buf.getvalue()


def spectra(M, top_count=50):
    """The min(top_count, m, n) leading singular values of a dense matrix,
    largest first, by the ratio oracle's ``core.top_singular_values``.

    The matrix is validated by ``as_dense``: an empty one raises
    DimensionError and a non-finite entry PreconditionError.
    """
    if top_count < 1:
        raise PreconditionError(f"top_count must be positive, got {top_count}")
    return top_singular_values(as_dense(M), top_count)


def spectra_csv(M, top_count=50):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "sigma"])
    for i, v in enumerate(spectra(M, top_count), start=1):
        w.writerow([i, float(v)])
    return buf.getvalue()


@dataclass
class AuditReport:
    rows: int
    cols: int
    pipeline: str
    superfast: bool
    accessed: int
    witness: Optional[tuple] = None
    output_distance: Optional[float] = None
    outputs_identical: Optional[bool] = None
    error_on_zero: Optional[float] = None
    error_on_delta: Optional[float] = None
    implied_error: Optional[float] = None

    def to_json(self):
        return json.dumps(self.__dict__)

    def summary(self):
        if not self.superfast:
            return (f"not superfast at this size: pipeline accessed all "
                    f"{self.accessed} of {self.rows * self.cols} entries")
        i, j = self.witness
        return (f"witness entry ({i}, {j}) never accessed "
                f"({self.accessed} of {self.rows * self.cols} read); "
                f"outputs on O and Delta agree to {self.output_distance:.3e}; "
                f"undetected spectral error >= {self.implied_error:.3f}")


def audit_pipeline(m, n, run, pipeline="custom"):
    """Run a fixed-seed pipeline on O and on a delta matrix it never read.

    ``run`` maps a CountingAccessor to a dense output.  If the zero-matrix
    run leaves some entry unread, that entry is the witness: the two runs
    see identical inputs, so their outputs match and at least one of them
    misses its target by spectral norm 1/2 or more.
    """
    if m < 1 or n < 1:
        raise PreconditionError(
            f"audit shape must be positive, got m={m}, n={n}")
    zero_acc = CountingAccessor(np.zeros((m, n)))
    out_zero = np.asarray(run(zero_acc), dtype=np.float64)
    witness = zero_acc.first_unaccessed()
    if witness is None:
        return AuditReport(rows=m, cols=n, pipeline=pipeline, superfast=False,
                           accessed=zero_acc.distinct_accessed)
    i, j = witness
    delta = gen_delta(m, n, i + 1, j + 1)
    out_delta = np.asarray(run(CountingAccessor(delta)), dtype=np.float64)
    distance = float(np.linalg.norm(out_zero - out_delta))
    err_zero = spectral_norm(out_zero)
    err_delta = spectral_norm(delta - out_delta)
    return AuditReport(rows=m, cols=n, pipeline=pipeline, superfast=True,
                       accessed=zero_acc.distinct_accessed, witness=witness,
                       output_distance=distance,
                       outputs_identical=bool(distance <= 1e-14),
                       error_on_zero=err_zero, error_on_delta=err_delta,
                       implied_error=max(err_zero, err_delta))


def audit_refine(m, n, config):
    """Audit the refinement pipeline at a fixed seed."""

    def run(acc):
        approx, _ = refine(acc, config)
        return materialize(approx)

    label = (f"refine(rho={config.rho}, multiplier={config.multiplier}, "
             f"depth={config.depth}, iters={config.max_iters}, "
             f"seed={config.seed})")
    return audit_pipeline(m, n, run, pipeline=label)


def property_suite(M, rho, seed=0):
    """Battery of library invariants exercised on one user-supplied matrix.

    Returns a list of (name, passed, detail) triples; used by the acceptance
    tests as the stand-in for externally sourced inputs of any scale.
    """
    rng = np.random.default_rng(seed)
    m, n = M.shape
    results = []

    def check(name, passed, detail):
        results.append((name, bool(passed), detail))

    S = truncate_svd(M, rho)
    tau_f = matrix_norm(M - materialize(S), "frobenius")
    best = True
    for _ in range(10):
        N = (rng.standard_normal((m, rho)) @ rng.standard_normal((rho, n)))
        best &= matrix_norm(M - N, "frobenius") >= tau_f * (1 - 1e-10)
    check("truncation-optimality", best,
          f"Frobenius error of rho-truncation {tau_f:.3e}")

    L = Factored2(rng.standard_normal((m, 2 * rho)),
                  rng.standard_normal((2 * rho, n)))
    T = topsvd_of_lra(L, rho)
    oracle = truncate_svd(materialize(L), rho)
    sv_err = float(np.abs(T.sigma - oracle.sigma).max())
    check("factored-topsvd-oracle", sv_err <= 1e-10 * oracle.sigma[0],
          f"max singular value deviation {sv_err:.3e}")

    acc = CountingAccessor(M)
    config = RefineConfig(rho=rho, seed=seed)
    approx, _ = refine(acc, config)
    err = matrix_norm(M - materialize(approx), "frobenius")
    e0 = matrix_norm(M, "frobenius")
    check("refine-progress", err < e0,
          f"Frobenius error {err:.3e} from {e0:.3e}")
    check("refine-rank-cap", approx.rank_bound <= rho,
          f"final rank {approx.rank_bound}")
    # the run's pooled budget: F reads the rows of 2 r_max classes and H the
    # columns of r_max classes, 2^d each, r_max = 2 rho
    r_max = 2 * rho
    bound = 2 ** config.depth * (2 * r_max * n + r_max * m)
    check("refine-access-bound", acc.distinct_accessed <= bound,
          f"{acc.distinct_accessed} of {m * n} entries read, bound {bound}")

    cur = svd_to_cur(S)
    cur_err = reconstruction_error(S, cur)
    norm_n = spectral_norm(cur.N)
    bound = 3.0 * nucleus_norm_bound(m, n, rho, sigma_rho=float(S.sigma[-1]))
    check("cur-reconstruction",
          cur_err <= 1e-10 * matrix_norm(materialize(S), "frobenius"),
          f"reconstruction error {cur_err:.3e}")
    check("cur-nucleus-bound", norm_n <= bound,
          f"|N| = {norm_n:.3e} vs bound {bound:.3e}")

    E = CountingAccessor(M - materialize(approx))
    est = entry_lower_bound(E, 200, seed=seed)
    true_f = matrix_norm(E.target, "frobenius")
    check("entry-bound-valid", est.lower_bound <= true_f * (1 + 1e-13),
          f"lower bound {est.lower_bound:.3e} vs Frobenius {true_f:.3e}")
    gauss = gaussian_error_estimate(E, 10, 10, seed=seed)
    check("gaussian-estimate-positive", gauss.upper_bound >= 0,
          f"estimate {gauss.upper_bound:.3e} vs truth {true_f:.3e}")
    return results
