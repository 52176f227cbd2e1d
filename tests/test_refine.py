import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sublra
from sublra import (CountingAccessor, DimensionError, Factored2,
                    PreconditionError, RatioOracle, RefineConfig, materialize,
                    recompress, refine, sketch_rank_r_approx, make_multiplier)
from sublra.matgen import fast_decay_spectrum, gen_synthetic
from sublra.refine import RankDeficientSketchWarning


def rank_r_matrix(m, n, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


@pytest.mark.parametrize("kind", ["ahad", "gaussian"])
def test_subalgorithm_exact_recovery(kind):
    m, n, r = 128, 96, 5
    E = rank_r_matrix(m, n, r, seed=41)
    acc = CountingAccessor(E)
    F = make_multiplier(kind, 2 * r, m, depth=3, seed=1)
    H = make_multiplier(kind, r, n, depth=3, seed=2, side="right")
    from sublra import apply_left, apply_right
    delta = sketch_rank_r_approx(apply_left(F, acc), apply_right(acc, H), F)
    assert delta.rank_bound == r
    assert np.linalg.norm(materialize(delta) - E) <= 1e-9 * np.linalg.norm(E)


def test_subalgorithm_zero_input():
    m, n, r = 64, 64, 4
    F = make_multiplier("ahad", 2 * r, m, depth=3, seed=3)
    with pytest.warns(RankDeficientSketchWarning):
        delta = sketch_rank_r_approx(np.zeros((2 * r, n)), np.zeros((m, r)), F)
    assert np.all(materialize(delta) == 0.0)


def test_subalgorithm_shape_checks():
    F = make_multiplier("ahad", 8, 64, depth=3, seed=4)
    with pytest.raises(DimensionError):
        # left sketch rows disagree with the operator
        sketch_rank_r_approx(np.zeros((10, 32)), np.zeros((64, 5)), F)
    with pytest.raises(DimensionError):
        # right sketch rows disagree with the operator's long axis
        sketch_rank_r_approx(np.zeros((8, 32)), np.zeros((32, 4)), F)
    with pytest.raises(DimensionError):
        # left sketch must have exactly 2r rows
        sketch_rank_r_approx(np.zeros((8, 32)), np.zeros((64, 5)), F)


@pytest.mark.parametrize("bad", ["FE", "EH"])
def test_subalgorithm_rejects_non_finite_sketch(bad):
    m, n, r = 64, 48, 4
    F = make_multiplier("ahad", 2 * r, m, depth=3, seed=5)
    rng = np.random.default_rng(6)
    sketches = {"FE": rng.standard_normal((2 * r, n)),
                "EH": rng.standard_normal((m, r))}
    sketches[bad][1, 2] = np.inf
    with pytest.raises(PreconditionError, match=f"sketch {bad}"):
        sketch_rank_r_approx(sketches["FE"], sketches["EH"], F)


def test_refine_runs_without_scipy_linalg(monkeypatch):
    # the refine path factors on numpy's LAPACK, so products and
    # factorizations share one BLAS thread pool; scipy's dense
    # factorizations must not be reached
    M = gen_synthetic(256, fast_decay_spectrum(256), seed=59)
    rng = np.random.default_rng(60)
    L = Factored2(rng.standard_normal((256, 24)), rng.standard_normal((24, 200)))

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg called on the refine path")

    for name in ("qr", "svd", "svdvals", "pinv"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    for multiplier in ("ahad", "gaussian"):
        approx, report = refine(CountingAccessor(M),
                                RefineConfig(rho=8, multiplier=multiplier,
                                             seed=61))
        assert approx.rank_bound <= 8 and len(report.records) == 3
    assert recompress(L, 8).rank_bound == 8


def test_refine_recovers_exact_rank_input():
    M = rank_r_matrix(128, 128, 6, seed=43)
    acc = CountingAccessor(M)
    config = RefineConfig(rho=6, max_iters=1, seed=9)
    approx, report = refine(acc, config)
    assert np.linalg.norm(M - materialize(approx)) <= 1e-8 * np.linalg.norm(M)
    assert report.final_rank <= 6


def test_refine_rank_cap_and_records():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=45)
    acc = CountingAccessor(M)
    config = RefineConfig(rho=8, max_iters=3, seed=11)
    approx, report = refine(acc, config)
    assert approx.rank_bound <= 8
    assert len(report.records) == 3
    assert report.records[0].rank_before == 8
    assert report.records[1].rank_before == 24  # rho + 2 rho before truncation
    for rec in report.records:
        assert rec.rank_after <= 8
    # counters nondecreasing
    reads = [rec.total_reads for rec in report.records]
    assert reads == sorted(reads)


def test_refine_determinism():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=47)
    runs = []
    for _ in range(2):
        acc = CountingAccessor(M)
        config = RefineConfig(rho=4, max_iters=3, seed=13)
        approx, report = refine(acc, config)
        runs.append((materialize(approx), report.to_csv()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


# Report CSVs of evaluator-free runs: only ranks and read counts, so they
# depend on the seeds, the rank schedule and the class pools, not on BLAS.
PINNED_SCHEDULE_CSV = {
    ("ahad", 512, 61): (
        "schema,iter,ratio_before,ratio_after,rank,distinct_accesses,"
        "total_reads\n"
        "sublra-report-v1,0,,,4,43520,45056\n"
        "sublra-report-v1,1,,,4,82944,131072\n"
        "sublra-report-v1,2,,,4,86528,192512\n"),
    ("gaussian", 128, 63): (
        "schema,iter,ratio_before,ratio_after,rank,distinct_accesses,"
        "total_reads\n"
        "sublra-report-v1,0,,,4,16384,32768\n"
        "sublra-report-v1,1,,,4,16384,65536\n"
        "sublra-report-v1,2,,,4,16384,98304\n"),
}


@pytest.mark.parametrize("multiplier, n, seed", sorted(PINNED_SCHEDULE_CSV))
def test_refine_schedule_pinned(multiplier, n, seed):
    M = gen_synthetic(n, fast_decay_spectrum(n), seed=seed)
    _, report = refine(CountingAccessor(M),
                       RefineConfig(rho=4, max_iters=3, depth=3,
                                    multiplier=multiplier, seed=seed))
    assert report.to_csv() == PINNED_SCHEDULE_CSV[multiplier, n, seed]


def test_perfbench_traced_mode_patches_refine():
    # the traced benchmark wraps sublra functions by name; a removed or
    # renamed one must fail here, not only in a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    driver_module = importlib.import_module("sublra.refine")
    original = driver_module.sketch_rank_r_approx
    M = rank_r_matrix(32, 32, 4, seed=65)
    with tracing.Patches(recorder):
        refine(CountingAccessor(M), RefineConfig(rho=2, max_iters=2))
    assert driver_module.sketch_rank_r_approx is original
    names = {s[0] for s in recorder.spans}
    assert {"refine.fit", "topsvd.recompress", "sketch.apply_left",
            "core.accessor.read"} <= names


def test_refine_driver_reads_only_in_sketches():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=53)
    oracle = RatioOracle(M, 4)
    acc_plain = CountingAccessor(M)
    config = RefineConfig(rho=4, max_iters=2, seed=21)
    refine(acc_plain, config)
    acc_eval = CountingAccessor(M)
    refine(acc_eval, RefineConfig(rho=4, max_iters=2, seed=21),
           evaluator=oracle)
    # oracle evaluation must not add accessor reads
    assert acc_eval.total_reads == acc_plain.total_reads
    assert acc_eval.distinct_accessed == acc_plain.distinct_accessed


def test_refine_rejects_evaluator_reading_the_accessor():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=53)
    acc = CountingAccessor(M)

    def peeking_evaluator(L):
        acc.read_rows([0])
        return 0.0

    with pytest.raises(RuntimeError, match="outside sketch application"):
        refine(acc, RefineConfig(rho=4, max_iters=2, seed=21),
               evaluator=peeking_evaluator)


def test_read_invariant_survives_optimize_flag():
    # the driver's read check must hold where asserts are stripped
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from sublra import CountingAccessor, RefineConfig, refine
        print("optimize", sys.flags.optimize)
        acc = CountingAccessor(np.random.default_rng(0).standard_normal((32, 32)))
        def peeking_evaluator(L):
            acc.read_rows([0])
            return 0.0
        try:
            refine(acc, RefineConfig(rho=4, max_iters=1, seed=21),
                   evaluator=peeking_evaluator)
        except RuntimeError as exc:
            print("RuntimeError:", exc)
    """)
    src = str(Path(sublra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "optimize 1" in out.stdout
    assert "RuntimeError:" in out.stdout
    assert "outside sketch application" in out.stdout


def test_refine_access_bound_formula():
    n, rho, iters, depth = 2048, 8, 3, 3
    M = np.random.default_rng(1).standard_normal((n, n))
    acc = CountingAccessor(M)
    config = RefineConfig(rho=rho, max_iters=iters, depth=depth, seed=23)
    refine(acc, config)
    r_max = 2 * rho
    bound = iters * (2 ** depth) * (2 * r_max * n + r_max * n)
    assert acc.distinct_accessed <= bound
    assert acc.distinct_accessed < n * n
    # one class pool per run: the whole run reads what one iteration may
    pooled_bound = (2 ** depth) * (2 * r_max * n + r_max * n)
    assert acc.distinct_accessed <= pooled_bound


def test_refine_prefix_with_class_pool():
    n, rho, depth = 512, 4, 3
    r_max = 2 * rho
    assert 2 * r_max < n >> depth  # the pool leaves classes out
    op = make_multiplier("ahad", 2 * r_max, n, depth=depth, seed=31,
                         pool=(8, 2 * r_max))
    assert op.pool == (8, 2 * r_max)
    W = op.to_dense()
    assert np.all((W != 0).sum(axis=1) == 2 ** depth)
    assert np.allclose(np.abs(W[W != 0]), 2.0 ** (-depth / 2), rtol=0, atol=0)
    assert np.abs(W @ W.T - np.eye(2 * r_max)).max() <= 1e-12
    again = make_multiplier("ahad", 2 * r_max, n, depth=depth, seed=31,
                            pool=(8, 2 * r_max))
    assert np.array_equal(W, again.to_dense())

    M = gen_synthetic(n, fast_decay_spectrum(n), seed=59)
    first, _ = refine(CountingAccessor(M),
                      RefineConfig(rho=rho, max_iters=1, depth=depth, seed=27))
    iterates = []

    def keep(L):
        iterates.append(materialize(L))
        return 0.0

    acc = CountingAccessor(M)
    refine(acc, RefineConfig(rho=rho, max_iters=2, depth=depth, seed=27),
           evaluator=keep)
    # iteration 0 is at rank rho and needs no truncation, so the evaluator's
    # first call sees its iterate, which the one-iteration run returned
    assert np.array_equal(iterates[0], materialize(first))
    assert acc.distinct_accessed <= (2 ** depth) * (3 * r_max * n)


def test_refine_progress_statistics():
    M = gen_synthetic(256, fast_decay_spectrum(256), seed=55)
    e0 = np.linalg.norm(M)
    good = 0
    trials = 20
    for t in range(trials):
        # the one-iteration run reproduces the first iterate of the
        # two-iteration run (same per-iteration seed derivation), so the
        # materializations below are oracle work outside the driver
        approx, _ = refine(CountingAccessor(M),
                           RefineConfig(rho=20, max_iters=2, seed=t))
        first, _ = refine(CountingAccessor(M),
                          RefineConfig(rho=20, max_iters=1, seed=t))
        e1 = np.linalg.norm(M - materialize(first))
        e2 = np.linalg.norm(M - materialize(approx))
        if e1 < e0 and e2 < e1:
            good += 1
    assert good >= 0.95 * trials


def test_refine_config_validation():
    with pytest.raises(PreconditionError):
        RefineConfig(rho=0)
    with pytest.raises(ValueError):
        RefineConfig(rho=2, multiplier="srft")
    config = RefineConfig(rho=40)
    with pytest.raises(PreconditionError):
        config.validate_for((64, 64))
    with pytest.raises(TypeError):
        refine(np.zeros((8, 8)), RefineConfig(rho=2))


def test_report_serialization():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=57)
    acc = CountingAccessor(M)
    oracle = RatioOracle(M, 4)
    _, report = refine(acc, RefineConfig(rho=4, max_iters=2, seed=25),
                       evaluator=oracle)
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ("schema,iter,ratio_before,ratio_after,rank,"
                        "distinct_accesses,total_reads")
    assert len(lines) == 3
    summary = report.summary()
    assert "rho=4" in summary
    assert "iter 0" in summary
