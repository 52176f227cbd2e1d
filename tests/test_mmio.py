import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sublra import MatrixMarketError, load_matrix, pad_matrix, save_matrix
from sublra.core import PreconditionError, as_dense
from sublra.mmio import MAX_ENTRIES, _non_ascii_error, _parse_header


def reference_load_matrix(path):
    """The line-at-a-time reader that ``load_matrix`` must agree with:
    the same bits, or the same MatrixMarketError message and line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise _non_ascii_error(path) from None
    if not lines:
        raise MatrixMarketError("empty file", 1)
    fmt, _, sym = _parse_header(lines[0], 1)

    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixMarketError("missing size line", len(lines))

    sizeno, sizeline = body[0]
    sizes = sizeline.split()
    want = 3 if fmt == "coordinate" else 2
    if len(sizes) != want:
        raise MatrixMarketError(f"size line must have {want} integers", sizeno)
    try:
        sizes = [int(tok) for tok in sizes]
    except ValueError:
        raise MatrixMarketError("size line must contain integers", sizeno) from None
    m, n = sizes[0], sizes[1]
    if m < 1 or n < 1:
        raise MatrixMarketError("matrix dimensions must be positive", sizeno)
    if m * n > MAX_ENTRIES:
        raise MatrixMarketError(
            f"dimension overflow: {m}x{n} exceeds {MAX_ENTRIES} entries", sizeno)
    if sym == "symmetric" and m != n:
        raise MatrixMarketError("symmetric matrix must be square", sizeno)
    if fmt == "coordinate" and sizes[2] < 0:
        raise MatrixMarketError("entry count must be nonnegative", sizeno)

    entries = body[1:]
    M = np.zeros((m, n))
    if fmt == "array":
        values = []
        for lineno, ln in entries:
            for tok in ln.split():
                try:
                    values.append(float(tok))
                except ValueError:
                    raise MatrixMarketError(f"bad value {tok!r}", lineno) from None
        expect = m * n if sym == "general" else m * (m + 1) // 2
        if len(values) != expect:
            lineno = entries[-1][0] if entries else sizeno
            raise MatrixMarketError(
                f"expected {expect} values, found {len(values)}", lineno)
        it = iter(values)
        for j in range(n):
            for i in range(j if sym == "symmetric" else 0, m):
                v = next(it)
                M[i, j] = v
                if sym == "symmetric":
                    M[j, i] = v
    else:
        nnz = sizes[2]
        if len(entries) != nnz:
            lineno = entries[-1][0] if entries else sizeno
            raise MatrixMarketError(
                f"expected {nnz} entry lines, found {len(entries)}", lineno)
        seen = {}
        for lineno, ln in entries:
            toks = ln.split()
            if len(toks) != 3:
                raise MatrixMarketError("coordinate entry must be 'i j value'", lineno)
            try:
                i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                raise MatrixMarketError(f"bad entry {ln!r}", lineno) from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise MatrixMarketError(f"index ({i}, {j}) out of range", lineno)
            first = seen.setdefault(
                (i, j) if sym == "general" or i >= j else (j, i), lineno)
            if first != lineno:
                raise MatrixMarketError(
                    f"entry ({i}, {j}) repeats line {first}", lineno)
            M[i - 1, j - 1] = v
            if sym == "symmetric":
                M[j - 1, i - 1] = v
    try:
        return as_dense(M)
    except PreconditionError:
        for lineno, ln in entries:
            for tok in ln.split():
                if not math.isfinite(float(tok)):
                    raise MatrixMarketError(
                        f"non-finite value {tok!r}", lineno) from None
        raise


def reference_save_matrix(M, path, fmt="array", comment=""):
    """The per-value writer whose bytes ``save_matrix`` must reproduce."""
    M = as_dense(M)
    m, n = M.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n")
        if comment:
            for piece in comment.splitlines():
                fh.write(f"%{piece}\n")
        if fmt == "array":
            fh.write(f"{m} {n}\n")
            fh.writelines(f"{v:.17g}\n" for v in M.T.ravel().tolist())
        else:
            rows, cols = np.nonzero(M)
            fh.write(f"{m} {n} {rows.size}\n")
            fh.writelines(
                f"{i + 1} {j + 1} {v:.17g}\n"
                for i, j, v in zip(rows.tolist(), cols.tolist(),
                                   M[rows, cols].tolist()))



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
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 2.0\n", 3,
     "bad entry '1 x 2.0'"),
], ids=["format", "field", "symmetry", "empty", "no-size-line",
        "size-token-count", "size-non-integer", "nonpositive-dimension",
        "non-square-symmetric", "coordinate-token-count",
        "coordinate-non-integer-index"])
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


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
@given(M=finite_matrices, comment=st.sampled_from(["", "one line",
                                                   "two\nlines", "%x\n\n"]))
@example(M=edge_values, comment="edge values")
@example(M=np.zeros((3, 2)), comment="")
@example(M=np.array([[5e-324, -0.0], [1e308, -1e308],
                     [-2.2250738585072014e-308, 2.2250738585072014e-308]]),
         comment="subnormals and extremes")
def test_writer_bytes_match_per_value_reference(tmp_path_factory, fmt, M,
                                                comment):
    where = tmp_path_factory.mktemp("writer")
    save_matrix(M, where / "got.mtx", fmt=fmt, comment=comment)
    reference_save_matrix(M, where / "want.mtx", fmt=fmt, comment=comment)
    assert ((where / "got.mtx").read_bytes()
            == (where / "want.mtx").read_bytes())


def test_all_zero_coordinate_file_has_no_entries(tmp_path):
    path = tmp_path / "zero.mtx"
    save_matrix(np.zeros((3, 2)), path, fmt="coordinate")
    assert path.read_text() == ("%%MatrixMarket matrix coordinate real general"
                                "\n3 2 0\n")
    assert load_matrix(path).tobytes() == np.zeros((3, 2)).tobytes()


ARRAY = "%%MatrixMarket matrix array real general\n"
COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text", [
    ARRAY + "2 2\n1.5\n\n% between\n  %also\n-0.0 3\n\n4e-320\n",
    ARRAY.replace("\n", "\r\n") + "2 1\r\n% c\r\n1\r\n\r\n2\r\n",
    COORD + "2 2 2\n% c\n1 2 1.5\n\n  % 1 1 9\n2 1 -0.0\n",
    "%%MatrixMarket matrix array real symmetric\n2 2\n-0.0\n% c\n-0.0\n1\n",
    "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 -0.0\n"
    "% c\n2 2 5\n",
    COORD + "2 2 1\n99999999999999999999 1 1.0\n",
    COORD + "2 2 1\n1 -99999999999999999999 1.0\n",
    ARRAY + "2 1\n1.0 % 2.0\n",
    COORD + "2 2 1\n1 1 1.0 % c\n",
    COORD + "2 2 2\n1 1\n1.0 2 2 3.0\n",
    COORD + "2 2 2\n1 1 inf\n3 1 1.0\n",
], ids=["array-comments-blanks", "array-crlf", "coordinate-comments",
        "symmetric-array-negative-zero", "symmetric-coordinate-comment",
        "index-past-int64", "index-below-int64", "array-percent-in-line",
        "coordinate-percent-in-line", "coordinate-split-entry",
        "range-before-non-finite"])
def test_loader_matches_reference_on_edge_files(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode("ascii"))
    try:
        want = reference_load_matrix(path)
    except MatrixMarketError as exc:
        with pytest.raises(MatrixMarketError) as got:
            load_matrix(path)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert load_matrix(path).tobytes() == want.tobytes()


value_tokens = st.one_of(
    st.sampled_from(["0", "-0", "1.5", "1e400", "-1e999", "nan", "NaN",
                     "inf", "-Infinity", "x", "%", "1_0", "0x1p3", "e5",
                     "+", "."]),
    st.integers(-4, 8).map(str),
    st.floats().map(repr))
index_tokens = st.one_of(st.integers(-1, 4).map(str),
                         st.sampled_from(["x", "1.0", "nan", "1e400", "%",
                                          "1_0", "99999999999999999999",
                                          "-99999999999999999999"]))
# lines slipped in among the others: blank, whitespace-only and comments
extra_lines = st.sampled_from(["", "   ", "\t", "% a comment", "  %1 2 3",
                               "%"])


@given(data=st.data(), fmt=st.sampled_from(["array", "coordinate"]),
       sym=st.sampled_from(["general", "symmetric"]),
       m=st.integers(1, 3), n=st.integers(1, 3))
def test_token_soup_loads_or_raises_matrix_market_error(
        tmp_path_factory, data, fmt, sym, m, n):
    # entry counts are drawn near the size line's, so that most soups get
    # past the count checks to the values themselves; every soup must load
    # to the reference reader's bits or fail with its message and line
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
    lines = [f"%%MatrixMarket matrix {fmt} real {sym}", size] + body
    # inserted from the back, so that each position counts original lines
    for at, extra in sorted(data.draw(st.lists(
            st.tuples(st.integers(1, len(lines)), extra_lines),
            max_size=3)), reverse=True):
        lines.insert(at, extra)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    end = data.draw(st.sampled_from([newline, ""]))
    path = tmp_path_factory.mktemp("soup") / "m.mtx"
    path.write_bytes((newline.join(lines) + end).encode("ascii"))
    try:
        M = load_matrix(path)
    except MatrixMarketError as exc:
        with pytest.raises(MatrixMarketError) as want:
            reference_load_matrix(path)
        assert (str(exc), exc.line) == (str(want.value), want.value.line)
        return
    assert M.shape == (m, n) and np.isfinite(M).all()
    assert M.tobytes() == reference_load_matrix(path).tobytes()
