import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from sublra import (CountingAccessor, DimensionError, PreconditionError,
                    RefineConfig,
                    audit_pipeline, audit_refine, bench_csv, refine,
                    run_bench, spectra, spectra_csv)
from sublra.bench import (BenchSpec, RatioOracle, property_suite,
                          synthetic_input, file_input)
from sublra.matgen import fast_decay_spectrum, gen_synthetic, slow_decay_spectrum
from sublra.mmio import save_matrix


def tiny_spec(trials=2):
    return BenchSpec(inputs=[synthetic_input("fast", 128, rho=4, seed=1)],
                     multipliers=["ahad"], depth=3, iters=2, trials=trials,
                     seed=7)


def test_run_bench_row_shape_and_determinism():
    rows1 = run_bench(tiny_spec())
    rows2 = run_bench(tiny_spec())
    assert len(rows1) == 1
    row = rows1[0]
    assert row.input_label == "fast" and row.multiplier == "ahad"
    assert len(row.before) == 1 and len(row.after) == 1
    assert bench_csv(rows1) == bench_csv(rows2)


def test_run_bench_checks_every_rho_before_any_oracle(monkeypatch):
    # the second input's rho breaks 4 rho <= n; no oracle of either input
    # is built, so the first input's spectrum is never computed
    def forbidden(*args, **kwargs):
        raise AssertionError("ratio oracle built before rho was checked")

    monkeypatch.setattr("sublra.bench.RatioOracle", forbidden)
    spec = tiny_spec()
    spec.inputs.append(synthetic_input("slow", 128, rho=33, seed=1))
    with pytest.raises(PreconditionError, match="4\\*rho"):
        run_bench(spec)


def test_bench_csv_schema():
    text = bench_csv(run_bench(tiny_spec()))
    lines = text.strip().split("\n")
    assert lines[0] == ("schema,input,multiplier,n,rho,depth,iters,trials,"
                        "seed,gen_seed,itr1,itr2_before,itr2_after")
    assert lines[1].startswith("sublra-bench-v1,fast,ahad,128,4,3,2,2,7,1,")


def test_bench_means_stable_across_seeds():
    # two independently seeded runs agree within 3 combined standard errors
    def run(seed):
        spec = BenchSpec(inputs=[synthetic_input("fast", 128, rho=4, seed=1)],
                         multipliers=["ahad"], iters=3, trials=24, seed=seed)
        return run_bench(spec)[0]

    a = run(101)
    b = run(202)
    cols = ([(a.itr1, b.itr1, a.itr1_se, b.itr1_se)]
            + list(zip(a.before, b.before, a.before_se, b.before_se))
            + list(zip(a.after, b.after, a.after_se, b.after_se)))
    for x, y, sx, sy in cols:
        allowance = 3.0 * np.hypot(sx, sy) + 1e-12
        assert abs(x - y) <= allowance


def test_bench_multiple_pairs():
    spec = BenchSpec(inputs=[synthetic_input("fast", 128, rho=4, seed=1),
                             synthetic_input("slow", 128, rho=4, seed=1)],
                     multipliers=["ahad", "gaussian"], iters=2, trials=1,
                     seed=3)
    rows = run_bench(spec)
    assert [(r.input_label, r.multiplier) for r in rows] == [
        ("fast", "ahad"), ("fast", "gaussian"),
        ("slow", "ahad"), ("slow", "gaussian")]


def test_file_input(tmp_path):
    M = gen_synthetic(128, slow_decay_spectrum(128), seed=2)
    path = tmp_path / "in.mtx"
    save_matrix(M, path)
    binput = file_input(str(path), rho=4)
    assert np.array_equal(binput.matrix, M)
    assert binput.label == str(path)


def test_oracle_and_bench_run_without_scipy_blas(monkeypatch):
    # the oracle's SVD and Lanczos run on numpy's BLAS, like refine, so a
    # bench op never wakes scipy's thread pool
    binput = synthetic_input("fast", 256, rho=8, seed=61)
    M = binput.matrix

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy BLAS called by the oracle or run_bench")

    monkeypatch.setattr(scipy.sparse.linalg, "svds", forbidden)
    for name in ("svdvals", "svd"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    oracle = RatioOracle(M, 8)
    _, report = refine(CountingAccessor(M), RefineConfig(rho=8, seed=62),
                       evaluator=oracle)
    assert all(rec.ratio_after >= 1.0 - 1e-9 for rec in report.records)
    (row,) = run_bench(BenchSpec(inputs=[binput], multipliers=["ahad"],
                                 trials=2, seed=63))
    assert row.trials == 2 and len(row.after) == row.iters - 1


def test_ratio_oracle_degenerate():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((32, 3)) @ rng.standard_normal((3, 32))
    oracle = RatioOracle(M, 3)
    assert oracle.degenerate
    from sublra import Factored2
    val = oracle(Factored2.zero(32, 32))
    assert val == pytest.approx(np.linalg.norm(M, 2), rel=1e-10)


def test_spectra_fast_decay_values():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=5)
    top = spectra(M, 25)
    assert np.allclose(top[:20], 1.0, atol=1e-10)
    assert np.allclose(top[20:25], [0.5, 0.25, 0.125, 0.0625, 0.03125],
                       atol=1e-10)


def test_spectra_slow_decay_index_22():
    M = gen_synthetic(128, slow_decay_spectrum(128), seed=5)
    top = spectra(M, 25)
    assert top[21] == pytest.approx(1.0 / 9.0, rel=1e-10)


@pytest.mark.parametrize("top", [0, -5])
def test_spectra_rejects_nonpositive_top(top):
    with pytest.raises(PreconditionError):
        spectra(np.eye(8), top)


def test_spectra_rejects_non_finite_entries():
    M = np.eye(8)
    M[2, 5] = np.nan
    with pytest.raises(PreconditionError, match="finite"):
        spectra(M)


def test_spectra_rejects_empty_matrix():
    with pytest.raises(DimensionError, match="empty"):
        spectra(np.zeros((0, 3)))


def _spectra_inputs():
    return {
        # a 20-fold cluster at 1.0, then halving: gapped past index 21
        "cluster": gen_synthetic(256, fast_decay_spectrum(256), seed=5),
        "slow": gen_synthetic(256, slow_decay_spectrum(256), seed=6),
        "gapless": np.random.default_rng(8).standard_normal((200, 150)),
    }


def test_spectra_iterates_on_a_gapped_input(monkeypatch):
    # no dense SVD of the input: every operand is a block of top + 20 columns
    M = _spectra_inputs()["cluster"]
    svd = np.linalg.svd
    widths = []

    def recorded(a, *args, **kwargs):
        widths.append(a.shape[1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    spectra(M, 21)
    assert widths and max(widths) <= 21 + 20


@pytest.mark.parametrize("name", ["cluster", "slow", "gapless"])
def test_spectra_agree_with_gesdd(name):
    M = _spectra_inputs()[name]
    got = spectra(M, 30)
    expected = np.linalg.svd(M, compute_uv=False)[:30]
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected)
                  <= 1e-12 * expected + 1e-14 * expected[0])


def test_spectra_cap_at_the_smaller_dimension():
    M = np.random.default_rng(9).standard_normal((7, 5))
    assert spectra(M, 50).size == 5


def test_spectra_csv_matches_oracle(tmp_path):
    import scipy.linalg as la

    rng = np.random.default_rng(3)
    M = rng.standard_normal((40, 30))
    text = spectra_csv(M, 10)
    lines = text.strip().split("\n")
    assert lines[0] == "index,sigma"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    oracle = la.svdvals(M)[:10]
    assert np.allclose(values, oracle, rtol=1e-10)


class TestAudit:
    def test_refine_pipeline_has_witness(self):
        config = RefineConfig(rho=4, max_iters=3, depth=3, seed=11)
        report = audit_refine(256, 256, config)
        assert report.superfast
        assert report.witness is not None
        assert report.outputs_identical
        assert report.output_distance <= 1e-14
        assert report.implied_error >= 0.5 - 1e-12
        assert "witness" in report.summary()
        assert "witness" in report.to_json()

    def test_full_materialization_is_not_superfast(self):
        def run(acc):
            return acc.read_full().copy()

        report = audit_pipeline(24, 18, run, pipeline="dense-copy")
        assert not report.superfast
        assert report.witness is None
        assert "not superfast" in report.summary()

    @pytest.mark.parametrize("m, n", [(0, 16), (16, 0), (-8, 16)])
    def test_nonpositive_shape_rejected_before_running(self, m, n):
        def run(acc):
            raise AssertionError("pipeline ran")

        with pytest.raises(PreconditionError, match=f"m={m}, n={n}"):
            audit_pipeline(m, n, run)

    def test_triangle_argument(self):
        # outputs agree, and the distance from Delta to the shared output
        # plus the distance from O to it is at least ||Delta|| = 1
        config = RefineConfig(rho=4, max_iters=2, depth=3, seed=13)
        report = audit_refine(128, 128, config)
        assert report.error_on_zero + report.error_on_delta >= 1.0 - 1e-12
        assert report.implied_error >= 0.5 - 1e-12


def test_property_suite_all_pass():
    M = gen_synthetic(128, slow_decay_spectrum(128), seed=17)
    results = property_suite(M, rho=8, seed=1)
    names = [name for name, _, _ in results]
    assert "truncation-optimality" in names
    assert "cur-reconstruction" in names
    assert "refine-access-bound" in names
    failures = [(n, d) for n, ok, d in results if not ok]
    assert not failures, failures


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_property_suite_holds_at_extreme_scales(scale):
    # the squares behind a plain Frobenius norm overflow at 1e160 and
    # underflow at 1e-170
    M = gen_synthetic(128, slow_decay_spectrum(128), seed=777)
    results = property_suite(M * scale, rho=8, seed=3)
    failures = [(n, d) for n, ok, d in results if not ok]
    assert not failures, failures


def test_property_suite_access_bound_is_the_pooled_budget():
    # 2^3 (2 r_max n + r_max m) with r_max = 8 is 0.75 of the 256-by-256
    # matrix, so a run that read every entry would fail the check
    M = gen_synthetic(256, slow_decay_spectrum(256), seed=17)
    results = {name: (ok, detail)
               for name, ok, detail in property_suite(M, rho=4, seed=2)}
    ok, detail = results["refine-access-bound"]
    assert ok, detail
    assert detail.endswith(f"of {256 * 256} entries read, bound 49152")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: unsafeguarded refinement diverges on this input and "
    "ends farther from M than the zero approximation"))
def test_property_suite_refinement_makes_progress():
    M = gen_synthetic(256, slow_decay_spectrum(256), seed=17)
    results = {name: (ok, detail)
               for name, ok, detail in property_suite(M, rho=4, seed=2)}
    ok, detail = results["refine-progress"]
    assert ok, detail
