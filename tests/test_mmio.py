import numpy as np
import pytest

from sublra import MatrixMarketError, load_matrix, pad_matrix, save_matrix


def tricky_matrix():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((9, 7))
    M[0, 0] = 0.1
    M[1, 1] = 1.0 / 3.0
    M[2, 2] = 2.0 ** -80
    M[3, 3] = -1e300
    M[4, 4] = 0.0
    return M


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_round_trip_exact(tmp_path, fmt):
    M = tricky_matrix()
    path = tmp_path / f"m_{fmt}.mtx"
    save_matrix(M, path, fmt=fmt)
    assert np.array_equal(load_matrix(path), M)


def test_round_trip_diagonal(tmp_path):
    M = np.diag([5.0, 3.0, 1.0])
    path = tmp_path / "diag.mtx"
    save_matrix(M, path)
    assert np.array_equal(load_matrix(path), M)


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    save_matrix(np.eye(2), path, comment="generated for a test\nsecond line")
    assert np.array_equal(load_matrix(path), np.eye(2))


def test_symmetric_array(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n"
                    "2 2\n1\n2\n3\n")
    assert np.array_equal(load_matrix(path), np.array([[1.0, 2.0],
                                                       [2.0, 3.0]]))


def test_malformed_header_names_line_1(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket nonsense\n1 1\n0\n")
    with pytest.raises(MatrixMarketError, match="line 1") as exc:
        load_matrix(path)
    assert exc.value.line == 1


def test_bad_value_names_its_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 1\n1.0\nnot-a-number\n")
    with pytest.raises(MatrixMarketError, match="line 4"):
        load_matrix(path)


@pytest.mark.parametrize("raw, line", [
    (b"\xef\xbb\xbf%%MatrixMarket matrix array real general\n1 1\n0\n", 1),
    (b"%%MatrixMarket matrix array real general\n% caf\xe9\n1 1\n0\n", 2),
], ids=["utf8-bom", "latin1-comment"])
def test_non_ascii_byte_names_its_line(tmp_path, raw, line):
    path = tmp_path / "bad.mtx"
    path.write_bytes(raw)
    with pytest.raises(MatrixMarketError, match=f"line {line}") as exc:
        load_matrix(path)
    assert exc.value.line == line


def test_coordinate_index_out_of_range(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n3 1 5.0\n")
    with pytest.raises(MatrixMarketError, match="line 3"):
        load_matrix(path)


def test_negative_entry_count_names_size_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% a comment\n2 2 -1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError, match="line 3: entry count") as exc:
        load_matrix(path)
    assert exc.value.line == 3


def test_value_count_mismatch(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(MatrixMarketError, match="expected 4"):
        load_matrix(path)


def test_dimension_overflow(tmp_path):
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "100000 100000 1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError, match="overflow"):
        load_matrix(path)


def test_pad_matrix():
    M = np.ones((3, 2))
    P = pad_matrix(M, 5)
    assert P.shape == (5, 5)
    assert np.array_equal(P[:3, :2], M)
    assert P[3:, :].sum() == 0 and P[:, 2:].sum() == 0
    with pytest.raises(ValueError):
        pad_matrix(M, 2)
