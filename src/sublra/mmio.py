"""Matrix Market reader/writer for dense matrices.

Hand-rolled instead of scipy.io so that parse failures name the offending
line and so values are written with 17 significant digits, which round-trips
IEEE doubles exactly.  Array files are stored column-major per the format;
coordinate files use 1-based indices.
"""

import math
import re

import numpy as np

from .core import PreconditionError, as_dense

MAX_ENTRIES = 1 << 27  # dimension-overflow guard for desk-scale use


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


def _non_finite_error(entries):
    """MatrixMarketError naming the first entry line with an inf, a NaN or a
    value that overflows a double."""
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
            lines = fh.readlines()
    except UnicodeDecodeError:
        # the bytes are read again only to name the line
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
        seen = {}  # entry (row, col) -> line that gave it
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
            # in a symmetric file (i, j) and (j, i) are one entry
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
        # the entries are searched again only to name the line
        raise _non_finite_error(entries) from None


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
            fh.writelines(f"{v:.17g}\n" for v in M.T.ravel().tolist())
        else:
            rows, cols = np.nonzero(M)
            fh.write(f"{m} {n} {rows.size}\n")
            fh.writelines(
                f"{i + 1} {j + 1} {v:.17g}\n"
                for i, j, v in zip(rows.tolist(), cols.tolist(),
                                   M[rows, cols].tolist()))


def pad_matrix(M, size):
    """Zero-pad a matrix on the bottom/right up to size-by-size."""
    M = as_dense(M)
    m, n = M.shape
    if size < max(m, n):
        raise ValueError(f"pad size {size} smaller than matrix {M.shape}")
    out = np.zeros((size, size))
    out[:m, :n] = M
    return out
