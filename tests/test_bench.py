import numpy as np
import pytest

from sublra import (PreconditionError, RefineConfig, audit_pipeline,
                    audit_refine, bench_csv, run_bench, spectra, spectra_csv)
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
