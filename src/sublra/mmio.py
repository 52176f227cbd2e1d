"""Matrix Market reader/writer for dense matrices.

Hand-rolled instead of scipy.io so that every parse failure names the
offending line and values are written with 17 significant digits, which
round-trips IEEE doubles exactly.  Array files are stored column-major per
the format; coordinate files use 1-based indices.

The reader walks only the header and the lines up to the size line one at
a time.  The body after it is tokenized with one ``str.split``, cast with
one numpy cast per column (numpy's str-to-float and str-to-int casts accept
exactly what ``float`` and ``int`` accept), and placed by vectorized
indexing, so no per-entry Python code runs on a valid file.  When anything
fails (a cast, the count, a coordinate line without three tokens, an index
out of range, a repeated entry, a non-finite value), the body's lines are
walked again, one at a time, only to find and name the bad line, in the
order the reader has always reported them: in an array file the first bad
value, then the value count; in a coordinate file the entry-line count,
then the first malformed, unparsable, out-of-range or repeated line; then,
in both, the first non-finite value.  The writer formats the whole body
with a single ``%.17g`` format call, the bytes a per-value ``f"{v:.17g}"``
writer gives.
"""

import math
import re
from itertools import chain

import numpy as np

from .core import as_dense

MAX_ENTRIES = 1 << 27  # dimension-overflow guard for desk-scale use

# a comment line of the body, emptied before it is tokenized
_COMMENT_LINE = re.compile(r"^[^\S\n]*%.*", re.MULTILINE)
# the ASCII characters str.split() separates tokens at
_SPACE = np.array([chr(c).isspace() for c in range(128)])


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; ``line`` is the 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_header(header, lineno):
    parts = header.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise MatrixMarketError(
            "expected header '%%MatrixMarket matrix <format> <field> <symmetry>'",
            lineno)
    fmt, fld, sym = parts[2], parts[3], parts[4]
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", lineno)
    if fld not in ("real", "integer"):
        raise MatrixMarketError(f"unsupported field {fld!r}", lineno)
    if sym not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {sym!r}", lineno)
    return fmt, fld, sym


def _non_ascii_error(path):
    """MatrixMarketError naming the line of the file's first non-ASCII byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = re.search(rb"[\x80-\xff]", raw).start()
    # the "." completes a partial last line, or opens the next one
    lineno = len((raw[:pos] + b".").splitlines())
    return MatrixMarketError(f"non-ASCII byte 0x{raw[pos]:02x}", lineno)


def _tokens_per_line(body):
    """Token count of each line of body that has any token, in order."""
    codes = np.frombuffer(body.encode("ascii"), np.uint8)
    space = _SPACE[codes]
    starts = np.flatnonzero(np.diff(space, prepend=True) & ~space)
    counts = np.bincount(np.searchsorted(np.flatnonzero(codes == 10), starts))
    return counts[counts > 0]


def _body_matrix(body, fmt, sym, m, n, count):
    """The m x n matrix a body of ``count`` values (array) or entry lines
    (coordinate) gives; ValueError or OverflowError when it is malformed.

    Comment lines are emptied first; a ``%`` left inside a data line fails
    the cast.
    """
    if "%" in body:
        body = _COMMENT_LINE.sub("", body)
    tokens = body.split()
    if fmt == "array":
        values = np.array(tokens, dtype=float)
        if values.size != count:
            raise ValueError("value count")
        if sym == "general":
            return values.reshape(n, m).T
        # column j holds rows j..m-1; the mirror is written explicitly,
        # not added, so that -0.0 survives
        M = np.zeros((m, n))
        upper = np.triu_indices(m)
        M[upper] = values
        M[upper[::-1]] = values
        return M
    per_line = _tokens_per_line(body)
    if per_line.size != count or (per_line != 3).any():
        raise ValueError("entry line count")
    # an index past int64 raises OverflowError, which int() would have
    # turned into an out-of-range index
    i = np.array(tokens[0::3], dtype=np.int64)
    j = np.array(tokens[1::3], dtype=np.int64)
    values = np.array(tokens[2::3], dtype=float)
    if ((i < 1) | (i > m) | (j < 1) | (j > n)).any():
        raise ValueError("index range")
    if sym == "symmetric":
        # (i, j) and (j, i) are one entry
        i, j = np.maximum(i, j), np.minimum(i, j)
    if np.unique((i - 1) * n + (j - 1)).size != count:
        raise ValueError("repeated entry")
    M = np.zeros((m, n))
    M[i - 1, j - 1] = values
    if sym == "symmetric":
        M[j - 1, i - 1] = values
    return M


def _body_error(text, sizeno, fmt, sym, m, n, count):
    """MatrixMarketError naming the first bad line of a body that failed to
    load, found by walking its lines one at a time."""
    entries = [(lineno, ln.strip())
               for lineno, ln in enumerate(text.split("\n")[sizeno:],
                                           start=sizeno + 1)
               if ln.strip() and not ln.lstrip().startswith("%")]
    last = entries[-1][0] if entries else sizeno
    if fmt == "array":
        found = 0
        for lineno, ln in entries:
            for tok in ln.split():
                try:
                    float(tok)
                except ValueError:
                    return MatrixMarketError(f"bad value {tok!r}", lineno)
                found += 1
        if found != count:
            return MatrixMarketError(
                f"expected {count} values, found {found}", last)
    else:
        if len(entries) != count:
            return MatrixMarketError(
                f"expected {count} entry lines, found {len(entries)}", last)
        seen = {}  # entry (row, col) -> line that gave it
        for lineno, ln in entries:
            toks = ln.split()
            if len(toks) != 3:
                return MatrixMarketError(
                    "coordinate entry must be 'i j value'", lineno)
            try:
                i, j, _ = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                return MatrixMarketError(f"bad entry {ln!r}", lineno)
            if not (1 <= i <= m and 1 <= j <= n):
                return MatrixMarketError(
                    f"index ({i}, {j}) out of range", lineno)
            # in a symmetric file (i, j) and (j, i) are one entry
            first = seen.setdefault(
                (i, j) if sym == "general" or i >= j else (j, i), lineno)
            if first != lineno:
                return MatrixMarketError(
                    f"entry ({i}, {j}) repeats line {first}", lineno)
    for lineno, ln in entries:
        for tok in ln.split():
            if not math.isfinite(float(tok)):
                return MatrixMarketError(f"non-finite value {tok!r}", lineno)


def load_matrix(path):
    """Read a real array/coordinate Matrix Market file into a dense array.

    Malformed content, a non-ASCII byte and an inf, NaN or overflowing value
    each raise MatrixMarketError naming their line.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # the bytes are read again only to name the line
        raise _non_ascii_error(path) from None
    if not text:
        raise MatrixMarketError("empty file", 1)
    pos = text.find("\n") + 1 or len(text)
    fmt, _, sym = _parse_header(text[:pos], 1)

    # comment and blank lines before the size line are skipped one at a time
    sizeno = 1
    while True:
        if pos == len(text):
            raise MatrixMarketError("missing size line", sizeno)
        end = text.find("\n", pos) + 1 or len(text)
        sizeline = text[pos:end].strip()
        sizeno, pos = sizeno + 1, end
        if sizeline and not sizeline.startswith("%"):
            break
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

    if fmt == "coordinate":
        count = sizes[2]
    else:
        count = m * n if sym == "general" else m * (m + 1) // 2
    try:
        return as_dense(_body_matrix(text[pos:], fmt, sym, m, n, count))
    except (ValueError, OverflowError):
        # the lines are walked again only to name the first bad one
        raise _body_error(text, sizeno, fmt, sym, m, n, count) from None


def save_matrix(M, path, fmt="array", comment=""):
    """Write a dense matrix in Matrix Market form with full double precision."""
    M = as_dense(M)
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported format {fmt!r}")
    m, n = M.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n")
        if comment:
            for piece in comment.splitlines():
                fh.write(f"%{piece}\n")
        if fmt == "array":
            fh.write(f"{m} {n}\n")
            fh.write(("%.17g\n" * M.size) % tuple(M.T.ravel().tolist()))
        else:
            rows, cols = np.nonzero(M)
            fh.write(f"{m} {n} {rows.size}\n")
            fh.write(("%d %d %.17g\n" * rows.size) % tuple(chain.from_iterable(
                zip((rows + 1).tolist(), (cols + 1).tolist(),
                    M[rows, cols].tolist()))))
