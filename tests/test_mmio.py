import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

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


@pytest.mark.parametrize("text, line, token", [
    ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n"
     "% a comment\n-inf 3.0\n", 6, "-inf"),
    ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n1e400\n3\n",
     4, "1e400"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
     "\n2 1 NaN\n", 5, "NaN"),
], ids=["array-inf", "symmetric-overflow", "coordinate-nan"])
def test_non_finite_value_names_its_line(tmp_path, text, line, token):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError,
                       match=f"line {line}: non-finite value '{token}'") as exc:
        load_matrix(path)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line, message", [
    ("%%MatrixMarket matrix dense real general\n1 1\n0\n", 1,
     "unsupported format 'dense'"),
    ("%%MatrixMarket matrix array complex general\n1 1\n0\n", 1,
     "unsupported field 'complex'"),
    ("%%MatrixMarket matrix array real hermitian\n1 1\n0\n", 1,
     "unsupported symmetry 'hermitian'"),
    ("", 1, "empty file"),
    ("%%MatrixMarket matrix array real general\n% only a comment\n\n", 3,
     "missing size line"),
    ("%%MatrixMarket matrix coordinate real general\n2 2\n", 2,
     "size line must have 3 integers"),
    ("%%MatrixMarket matrix array real general\n2 two\n1\n2\n", 2,
     "size line must contain integers"),
    ("%%MatrixMarket matrix array real general\n% c\n0 3\n", 3,
     "matrix dimensions must be positive"),
    ("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n", 2,
     "symmetric matrix must be square"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
     "2 2\n", 4, "coordinate entry must be 'i j value'"),
], ids=["format", "field", "symmetry", "empty", "no-size-line",
        "size-token-count", "size-non-integer", "nonpositive-dimension",
        "non-square-symmetric", "coordinate-token-count"])
def test_malformed_file_names_its_line(tmp_path, text, line, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unsupported format 'x'"):
        save_matrix(np.eye(2), tmp_path / "m.mtx", fmt="x")


def test_coordinate_index_out_of_range(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n3 1 5.0\n")
    with pytest.raises(MatrixMarketError, match="line 3"):
        load_matrix(path)


@pytest.mark.parametrize("sym, entries, line", [
    ("general", "1 1 nan\n1 1 2.0\n", 4),
    ("general", "1 2 1.0\n2 1 3.0\n1 2 1.0\n", 5),
    ("symmetric", "2 1 5.0\n1 2 -7.0\n", 4),
    ("symmetric", "1 1 1.0\n2 2 3.0\n1 1 1.0\n", 5),
], ids=["nan-then-finite", "same-value", "mirrored", "diagonal"])
def test_repeated_coordinate_names_later_line(tmp_path, sym, entries, line):
    # a later line would overwrite the earlier one, hiding a bad value
    path = tmp_path / "bad.mtx"
    count = len(entries.splitlines())
    path.write_text(f"%%MatrixMarket matrix coordinate real {sym}\n"
                    f"2 2 {count}\n{entries}")
    with pytest.raises(MatrixMarketError, match=f"line {line}: entry") as exc:
        load_matrix(path)
    assert exc.value.line == line


def test_symmetric_coordinate_mirrors_each_entry(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n1 1 1.0\n2 1 5.0\n2 2 3.0\n")
    assert np.array_equal(load_matrix(path), [[1.0, 5.0], [5.0, 3.0]])


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


finite_matrices = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False))
edge_values = np.array([[-0.0, 5e-324, 1e308],
                        [-1e308, -2.2250738585072014e-308, 0.1]])


@given(M=finite_matrices)
@example(M=edge_values)
def test_array_format_round_trips_bit_for_bit(tmp_path_factory, M):
    path = tmp_path_factory.mktemp("array") / "m.mtx"
    save_matrix(M, path, fmt="array")
    assert load_matrix(path).tobytes() == M.tobytes()


@given(M=finite_matrices)
@example(M=edge_values)
def test_coordinate_format_round_trips_values(tmp_path_factory, M):
    # only nonzeros are written, so -0.0 comes back as +0.0
    path = tmp_path_factory.mktemp("coordinate") / "m.mtx"
    save_matrix(M, path, fmt="coordinate")
    assert np.array_equal(load_matrix(path), M)


value_tokens = st.one_of(
    st.sampled_from(["0", "-0", "1.5", "1e400", "-1e999", "nan", "NaN",
                     "inf", "-Infinity", "x", "%", "1_0", "0x1p3", "e5",
                     "+", "."]),
    st.integers(-4, 8).map(str),
    st.floats().map(repr))
index_tokens = st.one_of(st.integers(-1, 4).map(str),
                         st.sampled_from(["x", "1.0", "nan", "1e400"]))


@given(data=st.data(), fmt=st.sampled_from(["array", "coordinate"]),
       sym=st.sampled_from(["general", "symmetric"]),
       m=st.integers(1, 3), n=st.integers(1, 3))
def test_token_soup_loads_or_raises_matrix_market_error(
        tmp_path_factory, data, fmt, sym, m, n):
    # entry counts are drawn near the size line's, so that most soups get
    # past the count checks to the values themselves
    n = m if sym == "symmetric" else n
    if fmt == "array":
        count = m * n if sym == "general" else m * (m + 1) // 2
        size = f"{m} {n}"
        tokens = data.draw(st.lists(value_tokens, min_size=count - 1,
                                    max_size=count + 1))
        width = data.draw(st.integers(1, 3))
        body = [" ".join(tokens[i:i + width])
                for i in range(0, len(tokens), width)]
    else:
        nnz = data.draw(st.integers(0, 4))
        size = f"{m} {n} {nnz}"
        entry = st.tuples(index_tokens, index_tokens, value_tokens)
        body = [" ".join(e) for e in data.draw(
            st.lists(entry, min_size=max(nnz - 1, 0), max_size=nnz + 1))]
    path = tmp_path_factory.mktemp("soup") / "m.mtx"
    path.write_text("\n".join([f"%%MatrixMarket matrix {fmt} real {sym}",
                               size] + body) + "\n")
    try:
        M = load_matrix(path)
    except MatrixMarketError:
        return
    assert M.shape == (m, n) and np.isfinite(M).all()
