"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

The synthetic benchmark rows (criteria 1-3) are computed once per session at
n=1024, rho=20, depth 3, 20 trials per (input, multiplier) pair; a full run
of this module takes a few minutes on a laptop.  Criterion 4 accepts a
user-supplied Matrix Market file of any shape through the environment
variable SUBLRA_ACCEPTANCE_MATRIX and falls back to a generated 1024x1024
stand-in.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg as la

from sublra import (CountingAccessor, Factored2, RefineConfig, audit_refine,
                    gen_synthetic, make_multiplier, materialize,
                    nucleus_norm_bound, recompress, refine, svd_to_cur,
                    topsvd_of_lra, topsvd_of_lra_qrp, truncate_svd)
from sublra.bench import BenchSpec, property_suite, run_bench, synthetic_input
from sublra.errest import gaussian_error_estimate
from sublra.matgen import fast_decay_spectrum, slow_decay_spectrum
from sublra.mmio import load_matrix, save_matrix

N = 1024
RHO = 20
DEPTH = 3
TRIALS = 20
BENCH_SEED = 20260809


def _report(criterion, passed, detail):
    print(f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'} - "
          f"{detail}")


@pytest.fixture(scope="session")
def table_rows():
    """Benchmark rows for both synthetic inputs and both multipliers."""
    inputs = [synthetic_input("fast", N, rho=RHO, seed=12345),
              synthetic_input("slow", N, rho=RHO, seed=12345)]
    spec = BenchSpec(inputs=inputs, multipliers=["ahad", "gaussian"],
                     depth=DEPTH, iters=3, trials=TRIALS, seed=BENCH_SEED)
    t0 = time.perf_counter()
    rows = run_bench(spec)
    elapsed = time.perf_counter() - t0
    return {(r.input_label, r.multiplier): r for r in rows}, elapsed


def test_c01_fast_decay_replication(table_rows):
    rows, elapsed = table_rows
    row = rows[("fast", "ahad")]
    ok = (2.0 <= row.itr1 <= 5.0
          and row.before[0] <= 1e-9
          and all(1.0 - 1e-6 <= a <= 1.0 + 1e-4 for a in row.after)
          and elapsed <= 600.0)
    _report(1, ok,
            f"itr1={row.itr1:.4f}, itr2_before={row.before[0]:.3e}, "
            f"after={['%.6f' % a for a in row.after]}, "
            f"bench wall time {elapsed:.0f}s")
    assert 2.0 <= row.itr1 <= 5.0
    assert row.before[0] <= 1e-9
    for a in row.after:
        assert 1.0 - 1e-6 <= a <= 1.0 + 1e-4
    assert elapsed <= 600.0


def test_c02_slow_decay_both_multipliers(table_rows):
    rows, _ = table_rows
    details = []
    for mult in ("ahad", "gaussian"):
        row = rows[("slow", mult)]
        details.append(f"{mult}: before={['%.4f' % b for b in row.before]} "
                       f"after={['%.6f' % a for a in row.after]}")
        for a in row.after:
            assert 1.0 - 1e-6 <= a <= 1.005
        for b in row.before:
            assert 0.005 <= b <= 0.15
    _report(2, True, "; ".join(details))


def test_c03_gaussian_parity(table_rows):
    rows, _ = table_rows
    worst = 0.0
    for kind in ("fast", "slow"):
        a = rows[(kind, "ahad")]
        g = rows[(kind, "gaussian")]
        columns = ([(a.itr1, g.itr1)]
                   + list(zip(a.before, g.before))
                   + list(zip(a.after, g.after)))
        for x, y in columns:
            ratio = max(x, y) / min(x, y)
            worst = max(worst, ratio)
    _report(3, worst <= 3.0, f"worst abridged/gaussian mean ratio {worst:.2f}")
    assert worst <= 3.0


def test_c04_ingestion_round_trip_and_property_suite(tmp_path):
    path = os.environ.get("SUBLRA_ACCEPTANCE_MATRIX")
    if path:
        M = load_matrix(path)
        rho = RHO
    else:
        M = gen_synthetic(N, slow_decay_spectrum(N), seed=777)
        rho = RHO
    saved = tmp_path / "acceptance.mtx"
    save_matrix(M, saved)
    reloaded = load_matrix(str(saved))
    round_trip = np.array_equal(reloaded, M)
    results = property_suite(M, rho, seed=3)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    _report(4, round_trip and not failures,
            f"round trip exact: {round_trip}; "
            f"{len(results) - len(failures)}/{len(results)} properties hold"
            + (f"; failures: {failures}" if failures else ""))
    assert round_trip
    assert not failures, failures


def _factored_corpus(count, seed):
    """LRA-shaped instances: random factors sharing an inner decay."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        m = int(rng.integers(64, 257))
        n = int(rng.integers(64, 257))
        k = int(rng.integers(8, 41))
        rho = int(rng.integers(2, min(21, k)))
        rate = float(rng.uniform(0.6, 0.97))
        d = rate ** np.arange(k)
        A = rng.standard_normal((m, k)) * np.sqrt(d)[None, :]
        B = np.sqrt(d)[:, None] * rng.standard_normal((k, n))
        corpus.append((Factored2(A, B), rho))
    return corpus


@pytest.fixture(scope="session")
def factored_corpus():
    return _factored_corpus(50, seed=4242)


def test_c05_exact_topsvd_oracle_equivalence(factored_corpus):
    worst_sv = 0.0
    worst_rec = 0.0
    for L, rho in factored_corpus:
        M = materialize(L)
        s = la.svdvals(M)
        S = topsvd_of_lra(L, rho)
        worst_sv = max(worst_sv, np.abs(S.sigma - s[:rho]).max() / s[0])
        err = la.svdvals(M - materialize(S))[0]
        worst_rec = max(worst_rec, abs(err - s[rho]) / s[rho])
    _report(5, worst_sv <= 1e-10 and worst_rec <= 1e-9,
            f"worst normalized sigma deviation {worst_sv:.2e}, worst "
            f"reconstruction-error mismatch {worst_rec:.2e} over 50 instances")
    assert worst_sv <= 1e-10
    assert worst_rec <= 1e-9


def test_c06_pivoted_topsvd_error_bound(factored_corpus):
    h = 1.01
    worst = 0.0
    for L, rho in factored_corpus:
        M = materialize(L)
        s = la.svdvals(M)
        S = topsvd_of_lra_qrp(L, rho)
        err = la.svdvals(M - materialize(S))[0]
        k = L.rank_bound
        bound = 3.0 * np.sqrt(1.0 + h * h * (k - rho) * rho) * s[rho]
        worst = max(worst, err / bound)
    _report(6, worst <= 1.0, f"worst error/bound {worst:.3f} over 50 instances")
    assert worst <= 1.0


def test_c07_truncation_growth_inequalities():
    rng = np.random.default_rng(99)
    for trial in range(100):
        m, n = int(rng.integers(24, 60)), int(rng.integers(24, 60))
        k = int(rng.integers(6, 16))
        rho = int(rng.integers(1, 6))
        M = rng.standard_normal((m, n))
        rate = float(rng.uniform(0.4, 0.95))
        d = rate ** np.arange(k)
        L = Factored2(rng.standard_normal((m, k)) * np.sqrt(d)[None, :],
                      np.sqrt(d)[:, None] * rng.standard_normal((k, n)))
        AB = materialize(L)
        Lr = recompress(L, rho)
        approx = materialize(Lr)
        s_ab = la.svdvals(AB)
        s_m = la.svdvals(M)
        for kind, tau_ab, tau_m in (
                (2, s_ab[rho], s_m[rho]),
                ("fro", np.sqrt((s_ab[rho:] ** 2).sum()),
                 np.sqrt((s_m[rho:] ** 2).sum()))):
            err = np.linalg.norm(M - approx, kind)
            base = np.linalg.norm(M - AB, kind)
            assert err <= base + tau_ab + 1e-9
            assert err <= 2 * base + tau_m + 1e-9
    _report(7, True, "both truncation growth bounds held with 1e-9 slack on "
                     "100 pairs under spectral and Frobenius norms")


def test_c08_cur_reconstruction_and_nucleus():
    rng = np.random.default_rng(505)
    worst_rec = 0.0
    bound_misses = 0
    trials = 200
    for _ in range(trials):
        m = int(rng.integers(64, 200))
        n = int(rng.integers(64, 200))
        rho = int(rng.integers(2, 13))
        sigma = np.sort(rng.uniform(0.3, 4.0, size=rho))[::-1]
        U = la.qr(rng.standard_normal((m, rho)), mode="economic")[0]
        V = la.qr(rng.standard_normal((n, rho)), mode="economic")[0]
        M = (U * sigma[None, :]) @ V.T
        S = truncate_svd(M, rho)
        d = svd_to_cur(S)
        worst_rec = max(worst_rec,
                        np.linalg.norm(M - d.materialize())
                        / np.linalg.norm(M))
        bound = 3.0 * nucleus_norm_bound(m, n, rho,
                                         sigma_rho=float(S.sigma[-1]))
        if la.svdvals(d.N)[0] > bound:
            bound_misses += 1
    ok = worst_rec <= 1e-10 and bound_misses <= 0.01 * trials
    _report(8, ok, f"worst relative reconstruction error {worst_rec:.2e}; "
                   f"nucleus bound misses {bound_misses}/{trials}")
    assert worst_rec <= 1e-10
    assert bound_misses <= 0.01 * trials


def test_c09_sketch_operator_invariants():
    for n in (128, 1024):
        for depth in (0, 1, 3):
            size = min(40, n)
            op = make_multiplier("ahad", size, n, depth=depth, seed=31)
            W = op.to_dense()
            assert np.all((W != 0).sum(axis=1) == 2 ** depth)
            assert np.allclose(np.abs(W[W != 0]), 2.0 ** (-depth / 2),
                               rtol=0, atol=0)
            assert np.abs(W @ W.T - np.eye(size)).max() <= 1e-12
            again = make_multiplier("ahad", size, n, depth=depth, seed=31)
            assert np.array_equal(W, again.to_dense())
    _report(9, True, "orthonormal rows, exact 2^d nonzeros per row, and "
                     "seed determinism at n in {128, 1024}, d in {0, 1, 3}")


def test_c10_sublinear_access_fraction():
    n, rho, iters, depth = 4096, 8, 3, 3
    M = np.random.default_rng(8080).standard_normal((n, n))
    acc = CountingAccessor(M)
    config = RefineConfig(rho=rho, max_iters=iters, depth=depth, seed=515)
    refine(acc, config)
    # the run's pooled budget, 2^d (2 r_max n + r_max m) with m = n: F reads
    # the rows of 2 r_max classes and H the columns of r_max classes
    r_max = 2 * rho
    footprint_bound = 2 ** depth * (2 * r_max * n + r_max * n)
    frac = acc.distinct_accessed / (n * n)
    ok = acc.distinct_accessed <= 0.10 * n * n
    _report(10, ok,
            f"distinct accesses {acc.distinct_accessed} = {frac:.1%} of n^2 "
            f"(pooled budget {footprint_bound} = "
            f"{footprint_bound / (n * n):.1%}); target <= 10%")
    assert acc.distinct_accessed <= footprint_bound
    assert acc.distinct_accessed <= 0.10 * n * n


def test_c11_delta_family_audit():
    config = RefineConfig(rho=4, max_iters=3, depth=3, seed=99)
    report = audit_refine(1024, 1024, config)
    ok = (report.superfast and report.witness is not None
          and report.output_distance <= 1e-14
          and report.implied_error >= 0.5)
    _report(11, ok, f"witness {report.witness}, output distance "
                    f"{report.output_distance:.2e}, implied error "
                    f">= {report.implied_error:.3f}")
    assert report.superfast
    assert report.witness is not None
    assert report.output_distance <= 1e-14
    assert report.implied_error >= 0.5


def test_c12_iid_frobenius_estimator():
    rng = np.random.default_rng(42)
    hits = 0
    trials = 200
    for t in range(trials):
        E = rng.standard_normal((1024, 1024))
        acc = CountingAccessor(E)
        est = gaussian_error_estimate(acc, 10, 10, seed=t)
        assert acc.distinct_accessed == 100
        truth = np.linalg.norm(E)
        hits += abs(est.upper_bound - truth) <= 0.15 * truth
    _report(12, hits >= 0.95 * trials,
            f"{hits}/{trials} estimates within 15% of the true Frobenius "
            f"norm, 100 entries touched per estimate")
    assert hits >= 0.95 * trials


def test_c13_progress_property():
    trials = 100
    good = 0
    specs = {"fast": fast_decay_spectrum(256), "slow": slow_decay_spectrum(256)}
    matrices = {kind: gen_synthetic(256, spec, seed=2)
                for kind, spec in specs.items()}
    for t in range(trials):
        kind = "fast" if t % 2 == 0 else "slow"
        M = matrices[kind]
        e0 = np.linalg.norm(M)
        first, _ = refine(CountingAccessor(M),
                          RefineConfig(rho=20, max_iters=1, seed=t))
        second, _ = refine(CountingAccessor(M),
                           RefineConfig(rho=20, max_iters=2, seed=t))
        e1 = np.linalg.norm(M - materialize(first))
        e2 = np.linalg.norm(M - materialize(second))
        good += (e1 < e0) and (e2 < e1)
    _report(13, good >= 95, f"error decreased through the first two "
                            f"iterations in {good}/{trials} trials")
    assert good >= 95
