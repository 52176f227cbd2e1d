"""Matrix Market reader/writer for dense matrices.

Hand-rolled instead of scipy.io so that every parse failure names the
offending line and values are written with 17 significant digits, which
round-trips IEEE doubles exactly.  Array files are stored column-major per
the format; coordinate files use 1-based indices.

Both directions stream the body in blocks, so neither holds the file's text
or one Python object per value.  A load holds the m x n result, one block
of about _READ_BLOCK characters and its tokens, and the longest single
line; a coordinate load adds O(nnz) index and value arrays.  A save holds
the matrix and one block of _WRITE_BLOCK values and their text.

The reader walks the header and the lines up to the size line one at a
time and allocates the result.  It then reads the body _READ_BLOCK
characters at a time, cut after the last newline (the partial line carries
over to the next block).  Each block has its comment lines emptied, is
tokenized with one ``str.split`` and cast with one numpy cast, one per
column in a coordinate file (numpy's str-to-float and str-to-int casts
accept exactly what ``float`` and ``int`` accept); array values go straight
into the result's columns.  So no per-entry Python code runs on a valid
file.  When anything fails (a cast, the count, a coordinate line without
three tokens, an index out of range, a repeated entry, a non-finite value),
the file is read again, a line at a time, only to find and name the bad
line, in the order the reader has always reported them: in an array file
the first bad value, then the value count; in a coordinate file the
entry-line count, then the first malformed, unparsable, out-of-range or
repeated line; then, in both, the first non-finite value.  A non-ASCII
byte anywhere in the file is reported before any of these.  The writer
formats _WRITE_BLOCK values at a time with one ``%.17g`` format call each,
the bytes a per-value ``f"{v:.17g}"`` writer gives.
"""

import math
import re
from itertools import chain, islice

import numpy as np

from .core import PreconditionError, as_dense

MAX_ENTRIES = 1 << 27  # dimension-overflow guard for desk-scale use
_READ_BLOCK = 1 << 17  # characters (bytes, for the non-ASCII scan) per read
_WRITE_BLOCK = 1 << 13  # values formatted per write

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
    """MatrixMarketError naming the line of the file's first non-ASCII byte,
    or None when every byte is ASCII; the bytes are scanned a block at a
    time."""
    breaks = 0  # line breaks before the block
    after_cr = False  # the block follows a '\r'
    with open(path, "rb") as fh:
        while chunk := fh.read(_READ_BLOCK):
            bad = None if chunk.isascii() else re.search(rb"[\x80-\xff]", chunk)
            head = chunk[:bad.start()] if bad else chunk
            # '\r\n' is one break, also when a block boundary splits it
            breaks += (head.count(b"\n") + head.count(b"\r")
                       - head.count(b"\r\n")
                       - (after_cr and head.startswith(b"\n")))
            if bad:
                return MatrixMarketError(
                    f"non-ASCII byte 0x{chunk[bad.start()]:02x}", breaks + 1)
            after_cr = chunk.endswith(b"\r")
    return None


def _blocks(fh):
    """The rest of the text file fh in blocks of whole lines, about
    _READ_BLOCK characters each, with comment lines emptied; a line longer
    than a block is carried whole into one."""
    pending = []
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind("\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        block = "".join(pending)
        pending = [chunk[cut:]]
        yield _COMMENT_LINE.sub("", block) if "%" in block else block
    block = "".join(pending)
    if block:
        yield _COMMENT_LINE.sub("", block) if "%" in block else block


def _tokens_per_line(block):
    """Token count of each line of block that has any token, in order."""
    codes = np.frombuffer(block.encode("ascii"), np.uint8)
    space = _SPACE[codes]
    starts = np.flatnonzero(np.diff(space, prepend=True) & ~space)
    counts = np.bincount(np.searchsorted(np.flatnonzero(codes == 10), starts))
    return counts[counts > 0]


def _array_body(fh, sym, m, n):
    """The m x n matrix the values left in fh give, column by column
    (column j from row j in a symmetric file); ValueError when a value
    fails its cast or the count is wrong."""
    M = np.empty((m, n))
    i = j = 0  # the next value goes to M[i, j]
    for block in _blocks(fh):
        values = np.array(block.split(), dtype=float)
        at = 0
        while at < values.size:
            if j == n:
                raise ValueError("value count")
            whole = (values.size - at) // m if i == 0 and sym == "general" else 0
            if whole:
                # whole columns in one assignment, so a short column costs
                # no Python step of its own
                whole = min(whole, n - j)
                M[:, j:j + whole] = values[at:at + whole * m].reshape(whole, m).T
                at, j = at + whole * m, j + whole
                continue
            seg = values[at:at + m - i]
            M[i:i + seg.size, j] = seg
            if sym == "symmetric":
                # the mirror is written explicitly, not added, so that
                # -0.0 survives
                M[j, i:i + seg.size] = seg
            at, i = at + seg.size, i + seg.size
            if i == m:
                j += 1
                i = j if sym == "symmetric" else 0
    if j != n:
        raise ValueError("value count")
    return M


def _coordinate_body(fh, sym, m, n, count):
    """The m x n matrix the ``count`` entry lines left in fh give;
    ValueError or OverflowError when they are malformed."""
    if count > m * n:
        # more entries than places: a wrong count or a repeat, and too many
        # to allocate for
        raise ValueError("entry line count")
    i = np.empty(count, np.int64)
    j = np.empty(count, np.int64)
    values = np.empty(count)
    k = 0  # entry lines read
    for block in _blocks(fh):
        per_line = _tokens_per_line(block)
        stop = k + per_line.size
        if stop > count or (per_line != 3).any():
            raise ValueError("entry line count")
        tokens = block.split()
        # an index past int64 raises OverflowError, which int() would have
        # turned into an out-of-range index
        i[k:stop] = np.array(tokens[0::3], dtype=np.int64)
        j[k:stop] = np.array(tokens[1::3], dtype=np.int64)
        values[k:stop] = np.array(tokens[2::3], dtype=float)
        k = stop
    if k != count:
        raise ValueError("entry line count")
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


def _entry_lines(path, sizeno):
    """(line number, stripped text) of each line after line ``sizeno`` that
    is neither blank nor a comment, read from the file one at a time."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, ln in enumerate(islice(fh, sizeno, None), start=sizeno + 1):
            ln = ln.strip()
            if ln and not ln.startswith("%"):
                yield lineno, ln


def _body_error(path, sizeno, fmt, sym, m, n, count):
    """MatrixMarketError naming the first bad line of a body that failed to
    load, found by walking the file's lines one at a time."""
    non_finite = None  # the error of the first non-finite value
    if fmt == "array":
        found, last = 0, sizeno
        for lineno, ln in _entry_lines(path, sizeno):
            last = lineno
            for tok in ln.split():
                try:
                    value = float(tok)
                except ValueError:
                    return MatrixMarketError(f"bad value {tok!r}", lineno)
                found += 1
                if non_finite is None and not math.isfinite(value):
                    non_finite = MatrixMarketError(
                        f"non-finite value {tok!r}", lineno)
        if found != count:
            return MatrixMarketError(
                f"expected {count} values, found {found}", last)
        return non_finite
    found, last = 0, sizeno
    for lineno, _ in _entry_lines(path, sizeno):
        found, last = found + 1, lineno
    if found != count:
        return MatrixMarketError(
            f"expected {count} entry lines, found {found}", last)
    seen = {}  # entry (row, col) -> line that gave it
    for lineno, ln in _entry_lines(path, sizeno):
        toks = ln.split()
        if len(toks) != 3:
            return MatrixMarketError(
                "coordinate entry must be 'i j value'", lineno)
        try:
            i, j, value = int(toks[0]), int(toks[1]), float(toks[2])
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
        if non_finite is None and not math.isfinite(value):
            non_finite = MatrixMarketError(
                f"non-finite value {toks[2]!r}", lineno)
    return non_finite


def load_matrix(path):
    """Read a real array/coordinate Matrix Market file into a dense array.

    Malformed content, a non-ASCII byte and an inf, NaN or overflowing value
    each raise MatrixMarketError naming their line.
    """
    try:
        return _load(path)
    except (UnicodeDecodeError, MatrixMarketError) as exc:
        # a non-ASCII byte anywhere in the file comes before any other
        # error; the bytes are read again only to name its line
        raise _non_ascii_error(path) or exc from None


def _load(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise MatrixMarketError("empty file", 1)
        fmt, _, sym = _parse_header(header, 1)

        # comment and blank lines before the size line are skipped one at
        # a time
        sizeno = 1
        while True:
            line = fh.readline()
            if not line:
                raise MatrixMarketError("missing size line", sizeno)
            sizeline = line.strip()
            sizeno += 1
            if sizeline and not sizeline.startswith("%"):
                break
        sizes = sizeline.split()
        want = 3 if fmt == "coordinate" else 2
        if len(sizes) != want:
            raise MatrixMarketError(
                f"size line must have {want} integers", sizeno)
        try:
            sizes = [int(tok) for tok in sizes]
        except ValueError:
            raise MatrixMarketError(
                "size line must contain integers", sizeno) from None
        m, n = sizes[0], sizes[1]
        if m < 1 or n < 1:
            raise MatrixMarketError("matrix dimensions must be positive", sizeno)
        if m * n > MAX_ENTRIES:
            raise MatrixMarketError(
                f"dimension overflow: {m}x{n} exceeds {MAX_ENTRIES} entries",
                sizeno)
        if sym == "symmetric" and m != n:
            raise MatrixMarketError("symmetric matrix must be square", sizeno)
        if fmt == "coordinate" and sizes[2] < 0:
            raise MatrixMarketError("entry count must be nonnegative", sizeno)

        if fmt == "coordinate":
            count = sizes[2]
        else:
            count = m * n if sym == "general" else m * (m + 1) // 2
        try:
            if fmt == "array":
                return as_dense(_array_body(fh, sym, m, n))
            return as_dense(_coordinate_body(fh, sym, m, n, count))
        except UnicodeDecodeError:
            raise
        except (ValueError, OverflowError):
            pass
    # the lines are walked again only to name the first bad one
    raise _body_error(path, sizeno, fmt, sym, m, n, count)


def save_matrix(M, path, fmt="array", comment=""):
    """Write a dense matrix in Matrix Market form with full double precision.

    A comment that is not ASCII raises PreconditionError before the file is
    opened.
    """
    M = as_dense(M)
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported format {fmt!r}")
    if comment and not comment.isascii():
        raise PreconditionError("comment must be ASCII")
    m, n = M.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n")
        if comment:
            for piece in comment.splitlines():
                fh.write(f"%{piece}\n")
        if fmt == "array":
            fh.write(f"{m} {n}\n")
            # column-major: M.T's rows, read in order
            columns = M.T.flat
            for k in range(0, M.size, _WRITE_BLOCK):
                values = columns[k:k + _WRITE_BLOCK].tolist()
                fh.write(("%.17g\n" * len(values)) % tuple(values))
        else:
            fh.write(f"{m} {n} {np.count_nonzero(M)}\n")
            flat = M.reshape(-1)
            for k in range(0, M.size, _WRITE_BLOCK):
                block = flat[k:k + _WRITE_BLOCK]
                at = np.flatnonzero(block)
                rows, cols = np.divmod(at + k, n)
                fh.write(("%d %d %.17g\n" * at.size) % tuple(
                    chain.from_iterable(zip((rows + 1).tolist(),
                                            (cols + 1).tolist(),
                                            block[at].tolist()))))
