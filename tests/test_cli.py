import json

import numpy as np
import pytest
import scipy.linalg as la

from sublra import load_matrix
from sublra.cli import main
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


def test_gen_rejects_non_power_of_two(capsys):
    assert main(["gen", "--kind", "fast", "--n", "1000",
                 "--out", "/tmp/never.mtx"]) == 2
    assert "error" in capsys.readouterr().err


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


def test_refine_rejects_oversized_rho(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["refine", "--input", str(path), "--rho", "64"]) == 2


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


def test_estimate_gaussian_rejects_negative_sizes(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["estimate", "--input", str(path), "--method", "gaussian",
                 "--q", "-1", "--s", "-200"]) == 2
    assert "q and s must be positive" in capsys.readouterr().err


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
