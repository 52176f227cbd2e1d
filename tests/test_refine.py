import importlib.util
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sublra
from sublra import (CountingAccessor, DimensionError, Factored2,
                    PreconditionError, RatioOracle, RefineConfig, materialize,
                    recompress, refine, sketch_rank_r_approx, make_multiplier)
from sublra.core import thin_qr
from sublra.matgen import fast_decay_spectrum, gen_synthetic
from sublra.refine import RankDeficientSketchWarning, _step
from sublra.sketch import apply_dense


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


@pytest.mark.parametrize("kind", ["ahad", "gaussian"])
def test_step_recovers_low_rank_residual(kind):
    # classical refinement: when the residual M - approx has rank at most r,
    # one step from a nonzero approx lands on M up to rounding
    m, n, r = 128, 96, 5
    rng = np.random.default_rng(67)
    approx = Factored2(rng.standard_normal((m, 7)), rng.standard_normal((7, n)))
    M = materialize(approx) + rank_r_matrix(m, n, r, seed=68)
    F = make_multiplier(kind, 2 * r, m, depth=3, seed=69)
    H = make_multiplier(kind, r, n, depth=3, seed=70, side="right")
    updated = _step(CountingAccessor(M), approx, F, H)
    assert updated.rank_bound == 7 + r
    assert np.linalg.norm(materialize(updated) - M) <= 1e-9 * np.linalg.norm(M)


def reference_fit(FE, EH, F):
    """The fit by its first formula: the thin QR U T of F Q, then the SVD
    pseudo-inverse of T with singular values at or below 1e-12 sigma_1
    zeroed.  Returns the dense correction and the number zeroed."""
    Q = np.linalg.qr(EH)[0]
    U, T = np.linalg.qr(apply_dense(F, Q))
    Ut, s, Vt = np.linalg.svd(T)
    keep = s > (1e-12 * s[0] if s[0] > 0 else 0.0)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return Q @ ((Vt.T * inv) @ Ut.T @ (U.T @ FE)), int((~keep).sum())


@pytest.mark.parametrize("kind", ["ahad", "gaussian"])
@pytest.mark.parametrize("seed", [71, 72, 73])
def test_fit_matches_the_qr_reference(kind, seed):
    m, n, r = 128, 96, 6
    E = np.random.default_rng(seed).standard_normal((m, n))
    F = make_multiplier(kind, 2 * r, m, depth=3, seed=seed)
    H = make_multiplier(kind, r, n, depth=3, seed=seed + 1, side="right")
    FE, EH = apply_dense(F, E), apply_dense(H, E)
    expected, zeroed = reference_fit(FE, EH, F)
    assert zeroed == 0
    got = materialize(sketch_rank_r_approx(FE, EH, F))
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["ahad", "gaussian"])
@pytest.mark.parametrize("blind", [1, 3])
def test_fit_zeroes_what_the_qr_reference_zeroes(kind, blind):
    # the last `blind` columns of EH lie in the null space of F, so F Q has
    # rank r - blind and both fits drop that many singular values
    m, n, r = 128, 96, 6
    rng = np.random.default_rng(74 + blind)
    F = make_multiplier(kind, 2 * r, m, depth=3, seed=75)
    Fd = F.to_dense()
    G = rng.standard_normal((m, r))
    G[:, r - blind:] -= np.linalg.pinv(Fd) @ (Fd @ G[:, r - blind:])
    FE = rng.standard_normal((2 * r, n))
    expected, zeroed = reference_fit(FE, G, F)
    assert zeroed == blind
    with pytest.warns(RankDeficientSketchWarning,
                      match=f"zeroed {blind} of {r} singular values"):
        got = materialize(sketch_rank_r_approx(FE, G, F))
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


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
    # renamed one, or a call that bypasses a wrapped name, must fail here,
    # not only as a per-layer metric of a traced benchmark run that reads 0
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    driver_module = importlib.import_module("sublra.refine")
    original = driver_module.sketch_rank_r_approx
    M = rank_r_matrix(32, 32, 4, seed=65)
    with tracing.Patches(recorder):
        driver_module.refine(CountingAccessor(M),
                             RefineConfig(rho=2, max_iters=2))
    assert driver_module.sketch_rank_r_approx is original
    names = {s[0] for s in recorder.spans}
    assert {"refine.driver", "refine.fit", "refine.lra_sum",
            "sketch.make_multiplier", "sketch.apply_left",
            "sketch.apply_right", "sketch.apply_to_factored",
            "topsvd.recompress", "core.accessor.read",
            "core.accessor.init", "core.accessor.ledger"} <= names


def test_refine_checks_only_the_entries_it_reads():
    # criterion 10's shape on a rank-100 fast-decay input built from its
    # factors: the accessor vouches for what it delivers and nothing more
    n, rho, k = 4096, 8, 100
    rng = np.random.default_rng(4096)
    U = np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    M = (U * fast_decay_spectrum(n).values[:k]) @ V.T
    config = RefineConfig(rho=rho, max_iters=3, depth=3, seed=515)

    def run():
        acc = CountingAccessor(M)
        approx, report = refine(acc, config)
        return acc, (approx.A.tobytes(), approx.B.tobytes(),
                     report.to_csv())

    acc, first = run()
    unread = acc.first_unaccessed()
    read_row = int(np.flatnonzero(acc.accessed.all(axis=1))[0])
    assert unread is not None
    M[unread] = np.nan
    assert run()[1] == first
    M[read_row, unread[1]] = np.nan
    with pytest.raises(PreconditionError, match="entries must be finite"):
        run()


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


def test_refine_iterates_do_not_depend_on_blas_threads():
    # the fit's and recompression's Q factors are matrix products, whose
    # bits OpenBLAS keeps at any thread count; the input is built without
    # BLAS, so both runs see the same bits
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from sublra import CountingAccessor, RefineConfig, refine
        for n, rho in ((1024, 20), (4096, 8)):
            rng = np.random.default_rng(n)
            d = 0.5 ** (np.arange(n) / 32.0)
            M = (d[:, None] * rng.standard_normal((n, n))) * rng.permutation(d)
            approx, _ = refine(CountingAccessor(M), RefineConfig(rho=rho, seed=7))
            print(n, hashlib.sha256(approx.A.tobytes()
                                    + approx.B.tobytes()).hexdigest())
    """)
    src = str(Path(sublra.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.split())
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]


def test_refine_frees_the_pre_truncation_sum_before_the_next_step():
    # at n=1024, rho=20 each pre-truncation sum of rank 3 rho takes about
    # 1 MB; held through the next step's gathers, it raises the peak of a
    # third iteration over that of the first two by most of that, while
    # iterations 1 and 2 gather the same pooled rows and columns
    n, rho = 1024, 20
    rng = np.random.default_rng(n)
    d = 0.5 ** (np.arange(n) / 32.0)
    M = (d[:, None] * rng.standard_normal((n, n))) * rng.permutation(d)
    peaks = []
    for iters in (2, 3):
        acc = CountingAccessor(M)
        tracemalloc.start()
        try:
            refine(acc, RefineConfig(rho=rho, max_iters=iters, seed=7))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sum_bytes = 8 * (n + n) * 3 * rho
    assert peaks[1] - peaks[0] < sum_bytes / 4, peaks


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


@st.composite
def refine_arguments(draw):
    """Small admissible (m, n, config): m and n are multiples of 2^depth
    with 4 rho <= min(m, n)."""
    depth = draw(st.integers(0, 3))
    rho = draw(st.integers(1, 4))
    block = 2 ** depth
    fewest = -(-4 * rho // block)  # fewest blocks that hold 4 rho
    m = block * draw(st.integers(fewest, fewest + 4))
    n = block * draw(st.integers(fewest, fewest + 4))
    config = RefineConfig(rho=rho, max_iters=draw(st.integers(1, 3)),
                          depth=depth, seed=draw(st.integers(0, 2 ** 32)))
    return m, n, config


@settings(max_examples=30)
@given(refine_arguments(), st.integers(0, 2 ** 32))
def test_refine_invariants_on_small_inputs(arguments, gen_seed):
    m, n, config = arguments
    M = np.random.default_rng(gen_seed).standard_normal((m, n))
    acc = CountingAccessor(M)
    approx, _ = refine(acc, config)
    r_max = 2 * config.rho
    budget = 2 ** config.depth * (2 * r_max * n + r_max * m)
    assert acc.distinct_accessed <= budget
    assert approx.rank_bound <= config.rho
    again, _ = refine(CountingAccessor(M), config)
    assert again.A.tobytes() == approx.A.tobytes()
    assert again.B.tobytes() == approx.B.tobytes()


def test_refine_prefix_with_class_pool():
    n, rho, depth = 512, 4, 3
    r_max = 2 * rho
    assert 2 * r_max < n >> depth  # the pool leaves classes out
    op = make_multiplier("ahad", 2 * r_max, n, depth=depth, seed=31,
                         pool=(8, 2 * r_max))
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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 12: at depth 3 the right sketch E H of a coherent input "
    "has exact zero columns, the fit spends correction directions on "
    "rounding, and the iterate ends far above its best earlier ratio"))
def test_refine_does_not_diverge_on_coherent_input():
    n, rho = 1024, 20
    s = fast_decay_spectrum(n).values[:100]
    diverged = []
    for k in range(20):
        # singular vectors supported on 128 random rows: a Haar 128x100
        # block from the QR of a Gaussian, for U and then for V
        rng = np.random.default_rng(100 + k)
        U, V = np.zeros((n, 100)), np.zeros((n, 100))
        for X in (U, V):
            X[rng.choice(n, 128, replace=False)] = \
                thin_qr(rng.standard_normal((128, 100)))[0]
        M = (U * s) @ V.T
        _, report = refine(CountingAccessor(M),
                           RefineConfig(rho=rho, max_iters=5, depth=3, seed=k),
                           evaluator=RatioOracle(M, rho))
        ratios = [r.ratio_after for r in report.records]
        if ratios[-1] > 1.01 * min(ratios[:-1]):
            diverged.append((k, ratios[-1] / min(ratios[:-1])))
    assert not diverged, f"final/best earlier ratio by seed: {diverged}"


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
