"""Validated readers and writers for census, evaluation and constants files.

Census CSV: header ``x,x_squared,prime_count``, ascending consecutive x,
plain decimal integers (digits with an optional leading ``-``) that fit
in int64; lines end in ``\\n``, ``\\r\\n`` or a lone ``\\r``, and blank
lines are skipped.  ``read_census`` reads the file as bytes, in chunks
of whole lines.  A chunk's lines of one width are the rows of one uint8
matrix, a view of the bytes where they are consecutive, and its lines
with their commas in the same columns form a layout, checked and parsed
by column operations, four characters at a time; no step runs per line.
It returns the whole file as one census table, an int64 record array
with fields x, x_squared and prime_count.
``write_census`` hands a record stream to ``census.write_census_file``,
the one census writer, so a census under its final name is always
complete.  Evaluation CSV: header ``EVALUATION_HEADER``, one row per
census row and model, written by ``write_evaluation_csv`` from each
model's ``Scores`` 8,000 rows at a time, the text of each block built in
numpy: integers from their digit columns, floats as the bytes of their
repr, from a vectorised shortest-digit kernel (``_shortest_digits``,
Schubfach).  ``tests/test_storage.py`` holds that text equal to ``repr``
on random bit patterns, at every power of two and its neighbours, in a
hypothesis property, and against a per-row writer.
Constants file: one ``model.constant=value`` per line, ``#`` comments allowed.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .census import CENSUS_DTYPE, CENSUS_HEADER, census_table, write_census_file
from .errors import (
    CensusGapError,
    CensusHeaderError,
    CensusOrderError,
    CensusRowError,
    CensusSquareError,
)
from .evaluation import MatchClass
from .pi_oracle import MAX_SQUARE_BASE

EVALUATION_HEADER = "x,true_count,model,prediction,relative_error,match_class"
# Evaluation rows are formatted this many at a time, so a block's text
# matrices and uint64 temporaries stay small and in cache.  Not a power of
# two: _rows_text reads its (slots, rows) matrices a column at a time, and
# at a row stride of 8,192 bytes all the slots of a column fall in one L1
# cache set, which made that gather about twice as slow.
_EVALUATION_BLOCK = 8000

# Census text is read this many bytes at a time, in whole lines, so a
# chunk's arrays stay small next to the file and the table, and in cache.
_CHUNK = 1 << 19
_ZEROS = 0x30303030  # "0000", four characters as a little-endian uint32
_DASH = ord("-") - ord("0") & 0xFF  # a dash, less "0", as a uint8


def format_real(value: float) -> str:
    """Full-precision decimal text for a real (round-trips through float)."""
    return repr(float(value))


def write_census(records: Iterable, path) -> int:
    """Write records to a census CSV; returns the number of rows written.

    ``census.write_census_file`` writes them to ``<path>.partial`` and
    renames that into place after a successful fsync, so a failed or
    interrupted write never leaves a truncated file under the final name.
    """
    return write_census_file(((record, None) for record in records), path)


def read_census(path) -> np.recarray:
    """Read and validate a census CSV into one census table (``census.census_table``).

    The first defective line raises a distinct error kind: bad header,
    malformed row (not three plain int64 fields, or a negative count),
    x_squared != x*x, non-ascending x, or a gap in x.  A non-ASCII byte
    (a byte-order mark, say) fails its line and is shown as U+FFFD.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:  # "\r\n" and a lone "\r" end a line, as in text mode
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    pos = data.index(b"\n") + 1
    header = data[: pos - 1].decode("ascii", "replace")
    if header != CENSUS_HEADER:
        raise CensusHeaderError(f"expected header {CENSUS_HEADER!r}, got {header!r}", line=1)
    text = np.frombuffer(data, dtype=np.uint8)
    # Room for every row: each row read took six bytes or more, and each
    # non-blank line of the chunk being read two.  Pages never written cost nothing.
    table = np.empty((len(data) // 6 + _CHUNK // 2 + 1, 3), dtype=np.int64)
    rows, line = 0, 2  # the rows read; the line number of the chunk's first line
    while pos < len(data):
        stop = data.rfind(b"\n", pos, pos + _CHUNK) + 1 or data.index(b"\n", pos + _CHUNK) + 1
        count, lines = _read_chunk(text, pos, stop, table[rows - 1, 0] if rows else None, line, table[rows:])
        rows, pos, line = rows + count, stop, line + lines
    del data, text
    table.resize((rows, 3), refcheck=False)  # in place; no view of it is left
    return census_table(table.reshape(-1).view(CENSUS_DTYPE))


def _read_chunk(text: np.ndarray, pos: int, stop: int, prev, line, out):
    """Validate and parse ``text[pos:stop]``, whole lines of census text from
    line number ``line`` on, ``prev`` being the x of the row above them,
    into the first rows of ``out``: the number of rows, and of lines.

    The lines of one width form a (lines, width + 1) uint8 matrix, a view of
    ``text`` when they are consecutive and gathered otherwise, split by the
    columns of their commas (``_layouts``); each layout is checked and
    parsed column by column (``_parse_layout``).  So the Python steps grow
    with a chunk's layouts, not with its lines or runs.
    """
    ends = pos + np.flatnonzero(text[pos:stop] == ord("\n"))
    starts = np.concatenate(([pos], ends[:-1] + 1))
    widths = ends - starts
    firsts = np.flatnonzero(np.concatenate(([True], widths[1:] != widths[:-1])))  # each run of one width
    sizes = np.diff(firsts, append=len(ends))
    index = np.arange(len(ends))
    slots = index if widths.all() else np.cumsum(widths > 0) - 1  # each line's row in ``out``
    defects = [len(ends)]  # the first malformed line of each matrix and layout
    for width in np.unique(widths[firsts]).tolist():
        runs = np.flatnonzero(widths[firsts] == width)
        if not width:
            continue  # blank lines
        if len(runs) == 1:  # a run has no blank lines
            first, size = firsts[runs[0]], sizes[runs[0]]
            lines, into = slice(first, first + size), slice(slots[first], slots[first] + size)
            block = text[starts[first] : ends[first + size - 1] + 1].reshape(size, width + 1)
            source = _groups(text), starts[first], width + 1, size
        else:
            lines = np.flatnonzero(widths == width)
            into = slots[lines]
            block, source = _gather(text, starts[lines], width)
        layouts, malformed = _layouts(block)
        defects += index[lines][malformed[:1]].tolist()
        for rows, commas in layouts:
            at, layout_into, layout_source = index[lines], into, source
            if rows is not None:  # one of several layouts of this width, gathered apart
                at = at[rows]
                layout_into, layout_source = slots[at], _gather(text, starts[at], width)[1]
            bad = _parse_layout(layout_source, width, commas, out, layout_into)
            defects += [] if bad is None else [int(at[bad])]
    defect = min(defects)
    count = int(np.count_nonzero(widths[:defect]))
    _check_rows(out[:count], prev, lambda i: line + int(np.flatnonzero(widths)[i]))
    if defect < len(ends):
        bad_line = text[starts[defect] : ends[defect]].tobytes().decode("ascii", "replace")
        raise CensusRowError(f"expected three plain int64 fields, got {bad_line!r}", line=line + defect)
    return count, len(ends)


def _groups(buffer: np.ndarray) -> np.ndarray:
    """The four bytes from each offset of ``buffer`` on, as little-endian
    uint32s: an overlapping view, to read a line's characters four at a time."""
    return np.ndarray((buffer.size - 3,), dtype="<u4", buffer=buffer, strides=(1,))


def _gather(text, starts, width):
    """The lines of ``width`` characters at ``starts``, copied into one
    matrix with the three bytes before each (the header keeps those inside
    ``text``): the (lines, width + 1) view of its lines, and its source
    for ``_parse_layout``."""
    padded = as_strided(text, (text.size - width - 3, width + 4), (1, 1))[starts - 3]
    return padded[:, 3:], (_groups(padded), 3, width + 4, len(starts))


def _layouts(block):
    """Split the rows of ``block``, lines of one width, by the columns of
    their two commas: a list of (rows, (c1, c2)), rows indexing ``block``
    (None for all of them), and the rows with other than two commas."""
    template = np.flatnonzero(block[0] == ord(",")).tolist()
    if len(template) == 2 and all((block[:, c] == ord(",")).all() for c in template):
        return [(None, tuple(template))], np.empty(0, dtype=np.intp)
    width = block.shape[1]
    row, column = np.divmod(np.flatnonzero(block == ord(",")), width)
    count = np.bincount(row, minlength=len(block))
    two = np.flatnonzero(count == 2)
    first = (np.cumsum(count) - count)[two]  # where each of those rows' commas start in row and column
    key = column[first] * width + column[first + 1]
    return [(two[key == k], divmod(k, width)) for k in np.unique(key).tolist()], np.flatnonzero(count != 2)


def _parse_layout(source, width, commas, out, at):
    """Check and parse the lines of one layout, ``width`` characters with a
    comma at both columns of ``commas``, into ``out[at]``; return the
    index of the first malformed line, or None.  ``source`` is (groups,
    offset, stride, n): line i of n has its four characters from column c
    on at ``groups[offset + i * stride + c]``, for c from -3 on.

    Each field is read right-aligned in groups of four characters, those
    ahead of it taken as zeros: a (field, group, line) uint32 array.  Less
    "0", every byte must be a digit, or a dash opening a field of two
    characters or more.  The digits of each group combine in place into a
    number below 10**4, and the groups into the field's value.  A field of
    17 characters or more fits in int64 if its digits ahead of the last 19
    are zeros and those read at most 2**63 - 1 (2**63 after a dash).
    """
    groups, offset, stride, n = source
    c1, c2 = commas
    fields = [(lo, hi, (hi - lo + 3) // 4) for lo, hi in ((0, c1), (c1 + 1, c2), (c2 + 1, width))]
    if min(hi - lo for lo, hi, _ in fields) == 0:
        return 0
    size = max(count for _, _, count in fields)
    quads = np.empty((3, size, n), dtype="<u4")  # little-endian, as the byte indexing below assumes
    for f, (lo, hi, count) in enumerate(fields):
        quads[f, : size - count] = _ZEROS
        quads[f, size - count :] = as_strided(groups[offset + hi - 4 * count :], (count, n), (4, stride))
    digits = quads.view(np.uint8).reshape(3, size, n, 4)
    digits -= ord("0")  # a digit's value; any other byte is above 9
    for f, (lo, hi, count) in enumerate(fields):  # the bytes of a first group ahead of its field: zeros
        quads[f, size - count] &= ~np.uint32((1 << 8 * (4 * count - hi + lo)) - 1)
    signs = np.zeros((3, n), dtype=bool)
    bad = None
    if digits.max() > 9:
        for f, (lo, hi, count) in enumerate(fields):
            opening = digits[f, size - count, :, 4 * count - hi + lo]
            signs[f] = (opening == _DASH) & (hi - lo > 1)
            opening[signs[f]] = 0
        bad = (digits > 9).any(axis=(0, 1, 3))
    quads *= 1 + (10 << 8)  # bytes 1 and 3: ten times a digit plus the next
    quads >>= 8
    quads &= 0x00FF00FF
    quads *= 1 + (100 << 16)  # bits 16 and up: a hundred times a pair plus the next
    quads >>= 16
    if size >= 5:  # the digits ahead of the last 19 must be zeros
        over = (quads[:, : size - 5] > 0).any(axis=(0, 1)) | (quads[:, size - 5] >= 1000).any(axis=0)
        quads = quads[:, size - 5 :]
    values = quads[:, 0]
    for j in range(1, quads.shape[1]):
        values = (values.astype(np.uint64) if j == 2 else values) * 10**4  # uint64 past eight digits
        values += quads[:, j]
    if size >= 5:
        over |= (values > np.uint64(2**63 - 1) + signs).any(axis=0)
        bad = over if bad is None else bad | over
    if signs.any():
        values = values.astype(np.int64)
        np.negative(values, out=values, where=signs)
    for f in range(3):  # faster than one transposed (lines, 3) write
        out[at, f] = values[f]
    return int(np.argmax(bad)) if bad is not None and bad.any() else None


def _check_rows(rows: np.ndarray, prev, line_of) -> None:
    """Raise for the first of ``rows``, (x, x_squared, prime_count) triples,
    with a negative count, a wrong square or an x that is not one above the
    row before (``prev`` for the first row, unless None), checked in that
    order; ``line_of(i)`` is the line number of row i."""
    x, square, count = rows.T
    bad = square != x * x
    bad |= count < 0
    # |x| above MAX_SQUARE_BASE, where an int64 x*x would wrap around
    bad |= (x + MAX_SQUARE_BASE).view(np.uint64) > 2 * MAX_SQUARE_BASE
    bad |= np.diff(x, prepend=x[:1] - 1 if prev is None else prev) != 1
    found = np.flatnonzero(bad)
    if not found.size:
        return
    i = int(found[0])
    x, square, count = rows[i].tolist()
    line = line_of(i)
    if count < 0:
        raise CensusRowError(f"negative prime_count {count}", line=line)
    if square != x * x:
        raise CensusSquareError(f"x_squared={square} but x*x={x * x}", line=line)
    prev = int(rows[i - 1, 0]) if i else prev
    if x <= prev:
        raise CensusOrderError(f"x={x} after x={prev} is not ascending", line=line)
    raise CensusGapError(f"x jumps {prev} -> {x}", line=line)


# ---------------------------------------------------------------------------
# Model constants files
# ---------------------------------------------------------------------------


def parse_constant(text: str):
    """Split one ``model.constant=value`` assignment into (kind, name, value)."""
    if not text.isascii():
        raise ValueError(f"{text!r} is not ASCII text")
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"expected key=value, got {text!r}")
    kind, dot, name = key.strip().partition(".")
    if not dot or not kind or not name:
        raise ValueError("key must look like model.constant")
    try:
        return kind, name, float(value.strip())
    except ValueError:
        raise ValueError(f"{value.strip()!r} is not a number") from None


def read_constants(path) -> dict:
    """Parse ``model.constant=value`` lines into {kind: {name: value}}."""
    overrides: dict = {}
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                kind, name, value = parse_constant(line)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            overrides.setdefault(kind, {})[name] = value
    return overrides


def write_constants(path, constants_by_kind: dict, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    for kind in sorted(constants_by_kind):
        for name, value in constants_by_kind[kind].items():
            lines.append(f"{kind}.{name}={format_real(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", errors="backslashreplace")


# ---------------------------------------------------------------------------
# Evaluation CSV
# ---------------------------------------------------------------------------


# Each field of a block of evaluation rows is a (width, rows) uint8 matrix,
# one matrix row per character slot, with a mask of the characters kept.
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_LOW32 = np.uint64(2**32 - 1)
_LOW63 = np.uint64(2**63 - 1)


def write_evaluation_csv(path, scored: Iterable) -> None:
    """Write the header, then one row per score of each (kind, Scores) pair
    in ``scored``, in order."""
    labels = [match.value.encode("ascii") for match in MatchClass]
    with open(path, "wb") as fh:
        fh.write(EVALUATION_HEADER.encode("ascii") + b"\n")
        for kind, scores in scored:
            name = [kind.encode("ascii")]
            for start in range(0, len(scores.x), _EVALUATION_BLOCK):
                x, t, p, r, match = (column[start : start + _EVALUATION_BLOCK] for column in scores)
                kinds = _choice_text(name, np.zeros(len(x), np.intp))
                fh.write(_rows_text([_int_text(x), _int_text(t), kinds, _float_text(p), _float_text(r), _choice_text(labels, match)]))


def _rows_text(fields) -> bytes:
    """The text of a block of rows from its fields' (chars, keep) matrices:
    each row's fields joined by commas and ended by a newline."""
    rows = fields[0][0].shape[1]
    comma, one = np.full((1, rows), ord(","), np.uint8), np.ones((1, rows), bool)
    used = [k.any(axis=1) for _, k in fields]  # the gather below costs one step per slot and row
    chars = np.concatenate([part for (c, _), u in zip(fields, used) for part in (c[u], comma)])
    chars[-1] = ord("\n")
    keep = np.concatenate([part for (_, k), u in zip(fields, used) for part in (k[u], one)])
    return chars.T[keep.T].tobytes()


def _choice_text(options, index):
    """The bytes ``options[i]`` for each i of ``index``."""
    width = max(map(len, options))
    table = np.zeros((width, len(options)), np.uint8)
    for j, text in enumerate(options):
        table[: len(text), j] = np.frombuffer(text, np.uint8)
    lengths = np.array([len(text) for text in options])
    return table[:, index], np.arange(width)[:, None] < lengths[index]


def _int_text(values):
    """The decimal text of each int64 of ``values``."""
    values = np.asarray(values, dtype=np.int64)
    magnitude = np.abs(values).view(np.uint64)  # -2**63 too
    lengths = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    width = int(lengths.max(initial=1))
    chars = np.concatenate((np.full((1, len(values)), ord("-"), np.uint8), _digit_rows(magnitude, width)))
    keep = np.concatenate(([values < 0], np.arange(width, 0, -1)[:, None] <= lengths))
    return chars, keep


def _digit_rows(values, width):
    """The last ``width`` decimal digits of each uint64, as (width, rows) ASCII."""
    out = np.empty((width, len(values)), np.uint8)
    for stop in range(width, 0, -9):  # nine digits at a time, in uint32
        chunk = (values % 10**9).astype(np.uint32)
        values = values // 10**9
        for j in range(stop - 1, max(stop - 9, 0) - 1, -1):
            quotient = chunk // 10
            out[j] = chunk - quotient * 10
            chunk = quotient
    out += ord("0")
    return out


def _float_text(values):
    """repr's text of each float64 of ``values``.

    Slots, top to bottom: the sign; "0." and three zeros, for a number
    printed as 0.000ddd; 17 digits, each but the first after a slot for the
    decimal point; ".0", for a number printed as dd.0; and "e", the
    exponent's sign and three digits.  repr prints fixed notation when
    -4 < decpt <= 16, the value being 0.ddd * 10**decpt, and d.ddde+XX
    otherwise.
    """
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    nonzero = finite & (values != 0)
    digits, exponent = _shortest_digits(np.where(nonzero, np.abs(values), 1.0))
    n = np.searchsorted(_POW10, digits, side="right")
    decpt = np.where(nonzero, n + exponent, 1)
    text = _digit_rows(np.where(nonzero, digits * _POW10[17 - n], 0), 17)  # zeros print as 0.0
    n = np.where(nonzero, 17 - np.argmax(text[::-1] != ord("0"), axis=0), 1)  # without trailing zeros
    fixed = (decpt > -4) & (decpt <= 16)
    lead = fixed & (decpt <= 0)
    point = np.where(fixed, np.where(lead | (decpt >= n), 0, decpt), np.where(n > 1, 1, 0))
    e = decpt - 1
    chars = np.empty((46, len(values)), np.uint8)
    keep = np.empty((46, len(values)), bool)
    chars[0], keep[0] = ord("-"), np.signbit(values)
    chars[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None]
    keep[1:3] = lead
    keep[3:6] = lead & (np.arange(3)[:, None] < -decpt)
    chars[6:39:2], keep[6:39:2] = text, np.arange(17)[:, None] < np.where(fixed, np.maximum(n, decpt), n)
    chars[7:38:2], keep[7:38:2] = ord("."), np.arange(1, 17)[:, None] == point
    chars[39:41], keep[39:41] = np.frombuffer(b".0", np.uint8)[:, None], fixed & (decpt >= n)
    chars[41], chars[42] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    chars[43:46] = _digit_rows(np.abs(e).astype(np.uint64), 3)
    keep[41:46] = ~fixed
    keep[43] &= np.abs(e) >= 100
    for i in np.flatnonzero(~finite).tolist():  # nan, inf and -inf
        word = repr(float(values[i])).encode("ascii")
        chars[: len(word), i] = np.frombuffer(word, np.uint8)
        keep[:, i] = np.arange(46) < len(word)
    return chars, keep


@functools.cache
def _schubfach_table():
    """g1 and g0 for k = -324..292, g = g1 * 2**63 + g0 being
    floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1.  Built on first
    use, so a process that writes no evaluation CSV never builds it."""
    g1, g0 = [], []
    for k in range(-324, 293):
        r = 125 - (-k * 913_124_641_741 >> 38)
        g = (10 ** max(-k, 0) << max(r, 0)) // (10 ** max(k, 0) << max(-r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


def _mul_high(a, b):
    """The high 64 bits of each 128-bit product of two uint64 arrays."""
    a1, a0, b1, b0 = a >> 32, a & _LOW32, b >> 32, b & _LOW32
    cross1, cross2 = a1 * b0, a0 * b1
    carry = (a0 * b0 >> 32) + (cross1 & _LOW32) + (cross2 & _LOW32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (carry >> 32)


def _rop(g1, g0, cp):
    """cp * g / 2**127, rounded to odd (Schubfach's rop)."""
    z = (g1 * cp >> 1) + _mul_high(g0, cp)  # g1 * cp wraps: only its low 64 bits count
    return (_mul_high(g1, cp) + (z >> 63)) | ((z & _LOW63) + _LOW63 >> 63)


def _shortest_digits(v):
    """The decimal repr prints for each positive finite float64, as uint64
    digits (trailing zeros possible) and an int64 exponent of 10.

    This is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020, as in the JDK's DoubleToDecimal.toDecimal) on whole arrays, with
    two changes that give repr's digits: the coarse grid is tried at every
    s, since repr has no two-digit minimum, and both branches take the
    exponent k + dk, for the subnormals below 3 * 2**-1074.
    """
    bits = v.view(np.uint64)
    t = bits & np.uint64(2**52 - 1)
    bq = (bits >> 52).astype(np.int64)
    normal = bq != 0
    tiny = ~normal & (t < 3)  # 5e-324 and 1e-323, taken as 10 * t at 10**(k - 1)
    c = np.where(normal, t | np.uint64(2**52), np.where(tiny, t * 10, t))
    q = np.where(normal, bq - 1075, -1074)
    irregular = (t == 0) & (bq > 1)  # a power of two: the gap below v is half the gap above
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10 of 2**q, or of 3/4 * 2**q)
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)
    g1, g0 = (table[k + 324] for table in _schubfach_table())
    out = c & 1  # the rounding interval holds its ends only for an even c
    cb = c << 2
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - 2 + irregular) << h) + out
    vbr = _rop(g1, g0, (cb + 2) << h) - out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, sp10 + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    mid = (s << 2) + 2
    pick_s = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & 1 == 0))
    return np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), s + ~pick_s), k - tiny
