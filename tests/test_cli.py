import json
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from sublra import RefineConfig, load_matrix
from sublra.cli import _refine_config, build_parser, main
from sublra.matgen import gen_synthetic, slow_decay_spectrum
from sublra.mmio import save_matrix


@pytest.fixture()
def matrix_file(tmp_path):
    M = gen_synthetic(128, slow_decay_spectrum(128), seed=23)
    path = tmp_path / "input.mtx"
    save_matrix(M, path)
    return path, M


def test_gen_writes_loadable_matrix(tmp_path, capsys):
    out = tmp_path / "fast.mtx"
    assert main(["gen", "--kind", "fast", "--n", "128", "--gen-seed", "4",
                 "--out", str(out)]) == 0
    M = load_matrix(out)
    s = la.svdvals(M)
    assert np.allclose(s[:20], 1.0, atol=1e-10)
    assert "wrote" in capsys.readouterr().out


def test_gen_writes_any_size(tmp_path):
    out = tmp_path / "slow.mtx"
    assert main(["gen", "--kind", "slow", "--n", "1000", "--gen-seed", "4",
                 "--out", str(out)]) == 0
    M = load_matrix(out)
    assert M.shape == (1000, 1000)
    want = slow_decay_spectrum(1000).values
    assert np.abs(la.svdvals(M) - want).max() <= 1e-12


def test_spectra_from_file(matrix_file, tmp_path, capsys):
    path, M = matrix_file
    out = tmp_path / "spec.csv"
    assert main(["spectra", "--input", str(path), "--top", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,sigma"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(values, la.svdvals(M)[:5], rtol=1e-10)


def test_spectra_synthetic_to_stdout(capsys):
    assert main(["spectra", "--kind", "slow", "--n", "128", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("index,sigma")


@pytest.mark.parametrize("top", ["0", "-5"])
def test_spectra_rejects_nonpositive_top(top, capsys):
    assert main(["spectra", "--kind", "slow", "--n", "128", "--top", top]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "top_count" in captured.err


def test_refine_with_ratios(matrix_file, tmp_path, capsys):
    path, _ = matrix_file
    out = tmp_path / "report.csv"
    code = main(["refine", "--input", str(path), "--rho", "8", "--iters", "2",
                 "--seed", "3", "--ratios", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "iter 0" in text
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3


@pytest.mark.parametrize("shape", [(1023, 1023), (1001, 999), (1000, 300)],
                         ids=["1023x1023", "1001x999", "1000x300"])
def test_subcommands_take_any_shape(shape, tmp_path, capsys):
    # shapes that 2^depth does not divide go to the abridged operators as
    # they are; the ledger counts only the file's own entries
    m, n = shape
    rng = np.random.default_rng(m + n)
    path = tmp_path / "input.mtx"
    save_matrix(rng.standard_normal((m, 12)) @ rng.standard_normal((12, n)),
                path)
    given = ["--input", str(path)]
    for argv in (["refine", "--rho", "10", "--iters", "2", "--ratios"],
                 ["bench", "--rho", "10", "--iters", "2", "--trials", "2",
                  "--out", str(tmp_path / "bench.csv")],
                 ["spectra", "--top", "5"],
                 ["estimate", "--method", "sketch"],
                 ["cur", "--rho", "10", "--out", str(tmp_path / "cur")]):
        assert main(argv + given) == 0, argv
    out = capsys.readouterr().out
    assert f"shape ({m}, {n})" in out
    read = int(out.split("entries_read=")[1].split()[0])
    assert 0 < read < m * n


def test_refine_rejects_oversized_rho(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["refine", "--input", str(path), "--rho", "64"]) == 2


@pytest.mark.parametrize("argv", [
    "refine --kind fast --n 128 --rho 40 --ratios",
    "bench --n 128 --rho 40 --trials 1",
])
def test_oversized_rho_rejected_before_the_oracle(argv, monkeypatch, capsys):
    # 4 rho <= min(m, n) is checked before M's spectrum is computed
    def forbidden(*args, **kwargs):
        raise AssertionError("ratio oracle built for an invalid rho")

    monkeypatch.setattr("sublra.cli.RatioOracle", forbidden)
    monkeypatch.setattr("sublra.bench.RatioOracle", forbidden)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "4*rho <= min(m, n)" in captured.err


def test_bench_quick_deterministic(tmp_path):
    args = ["bench", "--kind", "fast", "--n", "128", "--rho", "4",
            "--multiplier", "ahad", "--iters", "2", "--trials", "2",
            "--seed", "9", "--out"]
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().split("\n")[0]
    assert header.startswith("schema,input,multiplier")


def test_estimate_methods(matrix_file, tmp_path, capsys):
    path, _ = matrix_file
    assert main(["estimate", "--input", str(path), "--method", "entry",
                 "--samples", "50", "--seed", "1"]) == 0
    assert "lower_bound" in capsys.readouterr().out
    assert main(["estimate", "--input", str(path), "--method", "gaussian",
                 "--q", "10", "--s", "10"]) == 0
    out = capsys.readouterr().out
    assert "upper_bound" in out and "entries_read=100" in out
    csv_out = tmp_path / "est.csv"
    assert main(["estimate", "--input", str(path), "--method", "sketch",
                 "--sketch-size", "16", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("method,lower_bound")


def test_estimate_gaussian_on_a_tiny_scaled_file(matrix_file, tmp_path,
                                                capsys):
    # the sample's variance underflows unless it is taken on a scaled copy;
    # a valid file must not fail as a precondition error
    _, M = matrix_file
    path = tmp_path / "tiny.mtx"
    save_matrix(M * 1e-170, path)
    assert main(["estimate", "--input", str(path), "--method", "gaussian",
                 "--q", "10", "--s", "10"]) == 0
    assert "upper_bound=" in capsys.readouterr().out


def test_estimate_gaussian_rejects_negative_sizes(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["estimate", "--input", str(path), "--method", "gaussian",
                 "--q", "-1", "--s", "-200"]) == 2
    assert "q and s must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_estimate_sketch_rejects_nonpositive_size(matrix_file, size, capsys):
    path, _ = matrix_file
    assert main(["estimate", "--input", str(path), "--method", "sketch",
                 "--sketch-size", size]) == 2
    assert "sketch_size must be positive" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_refine_overflowing_input_is_precondition(tmp_path, capsys):
    # entries of +-1e308 are finite, but sums of them in the sketches are not
    rng = np.random.default_rng(8)
    path = tmp_path / "huge.mtx"
    save_matrix(rng.choice([-1e308, 1e308], size=(256, 256)), path)
    assert main(["refine", "--input", str(path), "--rho", "8"]) == 2
    assert "sketch" in capsys.readouterr().err


def test_cur_writes_factors_and_summary(matrix_file, tmp_path, capsys):
    path, M = matrix_file
    prefix = tmp_path / "cur"
    assert main(["cur", "--input", str(path), "--rho", "6",
                 "--out", str(prefix)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["reconstruction_error_fro"] <= 1e-9
    C = load_matrix(f"{prefix}_C.mtx")
    N = load_matrix(f"{prefix}_N.mtx")
    R = load_matrix(f"{prefix}_R.mtx")
    from sublra import materialize, truncate_svd

    S = truncate_svd(M, 6)
    assert np.linalg.norm(C @ N @ R - materialize(S)) <= 1e-9
    with open(f"{prefix}_summary.jsonl") as fh:
        assert json.loads(fh.readline()) == summary


def test_audit_cli(capsys):
    assert main(["audit", "--n", "256", "--rho", "4", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out
    payload = json.loads(out.strip().split("\n")[-1])
    assert payload["superfast"] is True
    assert payload["outputs_identical"] is True


@pytest.mark.parametrize("m", ["0", "-8"])
def test_audit_rejects_nonpositive_m(m, capsys):
    assert main(["audit", "--n", "64", "--m", m, "--rho", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"m={m}, n=64" in captured.err


def test_missing_file_is_io_error(capsys):
    assert main(["spectra", "--input", "/nonexistent/m.mtx"]) == 3


def test_malformed_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix market file\n")
    assert main(["spectra", "--input", str(bad)]) == 3
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("raw, line", [
    (b"\xef\xbb\xbf%%MatrixMarket matrix array real general\n1 1\n0\n", 1),
    (b"%%MatrixMarket matrix array real general\n% caf\xe9\n1 1\n0\n", 2),
], ids=["utf8-bom", "latin1-comment"])
def test_non_ascii_file_is_io_error(tmp_path, capsys, raw, line):
    bad = tmp_path / "bad.mtx"
    bad.write_bytes(raw)
    assert main(["spectra", "--input", str(bad)]) == 3
    assert f"line {line}" in capsys.readouterr().err


def test_missing_input_args_is_precondition(capsys):
    assert main(["spectra"]) == 2


@pytest.mark.parametrize("argv, n", [
    ("gen --kind fast --n -4 --out {out}", -4),
    ("gen --kind slow --n 0 --out {out}", 0),
    ("refine --kind slow --n -8", -8),
    ("refine --kind fast --n 0", 0),
    ("bench --kind fast --n -4 --rho 4", -4),
    ("bench --n 0 --rho 4", 0),
])
def test_nonpositive_n_is_precondition(argv, n, tmp_path, capsys):
    assert main(argv.format(out=tmp_path / "out.mtx").split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n={n} must be positive" in captured.err
    assert not (tmp_path / "out.mtx").exists()


# One malformed invocation per row, with the documented exit code: 2 for a
# precondition or usage error, 3 for an I/O or parse error.  {good}, {missing}
# and {garbled} name a valid 128x128 file, an absent one and one with a
# non-numeric entry; {overflow} and {nan} name an array file with a value
# past the double range and a coordinate file with a NaN entry; {repeated}
# names a coordinate file that lists one entry twice, first as NaN, and
# {bad_index} one whose entry has a non-integer index.
MALFORMED_INVOCATIONS = [
    ("gen --kind fast --n 1000 --gen-seed -1 --out {out}", 2),
    ("gen --kind fast --n 0 --out {out}", 2),
    ("gen --kind fast --n -4 --out {out}", 2),
    ("gen --kind fast --n 128 --out {missing_dir}/x.mtx", 3),
    ("spectra", 2),
    ("spectra --kind slow --n 100 --top -1", 2),
    ("spectra --kind slow --n 128 --top 0", 2),
    ("spectra --input {missing}", 3),
    ("spectra --input {garbled}", 3),
    ("spectra --input {overflow}", 3),
    ("spectra --input {nan}", 3),
    ("spectra --input {repeated}", 3),
    ("spectra --input {bad_index}", 3),
    ("spectra --input {empty}", 3),
    ("refine --input {sizeless}", 3),
    ("refine --kind fast --n 128 --rho 33", 2),
    ("refine --kind fast --n 128 --rho 0", 2),
    ("refine --kind fast --n 128 --iters 0", 2),
    ("refine --kind fast --n 128 --depth -1", 2),
    ("refine --kind fast --n 128 --depth 8", 2),
    ("refine --input {missing}", 3),
    ("refine --input {garbled}", 3),
    ("bench --kind fast --n 128 --rho 4 --trials 0", 2),
    ("bench --kind fast --n 128 --rho 4 --iters 0", 2),
    ("bench --kind fast --n 128 --rho 33", 2),
    ("bench --kind fast --n 100 --rho 26", 2),
    ("bench --input {missing} --rho 4", 3),
    ("bench --input {garbled} --rho 4", 3),
    ("estimate --input {good} --method entry --samples 0", 2),
    ("estimate --input {good} --method gaussian --q 0", 2),
    ("estimate --input {good} --method sketch --sketch-size 0", 2),
    ("estimate --input {good} --method sketch --sketch-size 200", 2),
    ("estimate --input {missing}", 3),
    ("estimate --input {garbled}", 3),
    ("cur --input {good} --rho 0 --out {out}", 2),
    ("cur --input {good} --rho 200 --out {out}", 2),
    ("cur --input {good} --rho 4 --k 0 --out {out}", 2),
    ("cur --input {missing} --rho 4 --out {out}", 3),
    ("cur --input {garbled} --rho 4 --out {out}", 3),
    ("audit --n 64 --m 0", 2),
    ("audit --n 64 --m -8", 2),
    ("audit --n 0", 2),
    ("audit --n 64 --rho 0", 2),
    ("audit --n 64 --rho 17", 2),
    ("audit --n 4 --rho 1", 2),
    ("audit --n 64 --rho 4 --iters 0", 2),
    ("audit --n 64 --rho 4 --depth -1", 2),
]


@pytest.mark.parametrize("argv, code", MALFORMED_INVOCATIONS,
                         ids=[a for a, _ in MALFORMED_INVOCATIONS])
def test_malformed_invocation_exit_code(argv, code, matrix_file, tmp_path,
                                        capsys):
    garbled = tmp_path / "garbled.mtx"
    garbled.write_text("%%MatrixMarket matrix array real general\n"
                       "2 2\n1\nx\n3\n4\n")
    overflow = tmp_path / "overflow.mtx"
    overflow.write_text("%%MatrixMarket matrix array real general\n"
                        "2 1\n1\n1e400\n")
    nan = tmp_path / "nan.mtx"
    nan.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1\n2 2 nan\n")
    repeated = tmp_path / "repeated.mtx"
    repeated.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 nan\n1 1 2.0\n")
    bad_index = tmp_path / "bad_index.mtx"
    bad_index.write_text("%%MatrixMarket matrix coordinate real general\n"
                         "2 2 1\n1 x 2.0\n")
    empty = tmp_path / "empty.mtx"
    empty.write_text("")
    sizeless = tmp_path / "sizeless.mtx"
    sizeless.write_text("%%MatrixMarket matrix array real general\n% c\n")
    paths = {"good": matrix_file[0], "missing": tmp_path / "missing.mtx",
             "garbled": garbled, "overflow": overflow, "nan": nan,
             "repeated": repeated, "bad_index": bad_index, "empty": empty,
             "sizeless": sizeless,
             "out": tmp_path / "out", "missing_dir": tmp_path / "no_such_dir"}
    assert main(argv.format(**paths).split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_readme_cli_examples_parse():
    # every "sublra ..." command of README's CLI block, with backslash
    # continuations joined and comments dropped, is parsed and never run;
    # a renamed or removed flag fails here, not in a reader's shell
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    parser = build_parser()
    parsed = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["sublra"]:
            parsed.append(parser.parse_args(argv[1:]).command)
    assert len(parsed) == 8
    assert set(parsed) == {"gen", "spectra", "refine", "bench", "estimate",
                           "cur", "audit"}


def test_run_flags_default_to_refine_config():
    parser = build_parser()
    for argv, rho in ((["refine"], 20), (["audit"], 4)):
        assert _refine_config(parser.parse_args(argv)) == RefineConfig(rho=rho)
    for argv in (["bench"], ["estimate"]):
        args = parser.parse_args(argv)
        assert (args.depth, args.seed) == (RefineConfig.depth,
                                           RefineConfig.seed)
    assert parser.parse_args(["bench"]).iters == RefineConfig.max_iters
