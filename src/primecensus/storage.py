"""Validated readers and writers for census, evaluation and constants files.

Census CSV: header ``x,x_squared,prime_count``, ascending consecutive x,
plain decimal integers (digits with an optional leading ``-``) that fit
in int64; lines end in ``\\n``, ``\\r\\n`` or a lone ``\\r``, and blank
lines are skipped.  ``read_census`` reads the file as bytes, finds the
first malformed line of each block of lines with byte-level checks,
parses the lines above it with ``np.fromstring`` and checks their rows;
it returns the whole file as one census table, an int64 record array
with fields x, x_squared and prime_count.
``write_census`` hands a record stream to ``census.write_census_file``,
the one census writer, so a census under its final name is always
complete.  Evaluation CSV: header ``EVALUATION_HEADER``, one row per
census row and model, written by ``write_evaluation_csv`` from each
model's ``Scores`` a block at a time, each column's text from the repr
of its block as a list: floats as their shortest round-trip repr.
Constants file: one ``model.constant=value`` per line, ``#`` comments allowed.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

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
# Evaluation rows are formatted this many at a time: whole-column lists of
# Python numbers would be held all at once, next to the census table.
_EVALUATION_BLOCK = 8192

# Census text is validated and parsed this many bytes at a time, in whole
# lines, so the block's arrays stay small next to the file and the table.
_BLOCK = 1 << 17
_BODY_BYTES = b"0123456789,\n-"  # any other byte fails its line
_SEPARATORS_TO_SPACES = bytes.maketrans(b",\n", b"  ")


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
    parts = [np.empty(0, dtype=np.int64)]  # the fields of each block, row by row
    prev, line = None, 2  # the x of the last row parsed; the line number of the block's first line
    while pos < len(data):
        stop = data.rfind(b"\n", pos, pos + _BLOCK) + 1 or data.index(b"\n", pos + _BLOCK) + 1
        block, pos = data[pos:stop], stop
        defect, ends, lines = _first_defect(block)
        cut = block.rfind(b"\n", 0, defect) + 1  # the start of the first malformed line
        fields = np.fromstring(block[:cut].translate(_SEPARATORS_TO_SPACES), dtype=np.int64, sep=" ")
        fields = fields[: 3 * np.searchsorted(ends, cut)]  # text of blank lines alone parses as [0]
        rows = fields.reshape(-1, 3)
        _check_rows(rows, prev, lambda i: line + block.count(b"\n", 0, ends[i]))
        if cut < len(block):
            text = block[cut : block.index(b"\n", cut)].decode("ascii", "replace")
            raise CensusRowError(f"expected three plain int64 fields, got {text!r}", line=line + block.count(b"\n", 0, cut))
        parts.append(fields)
        prev = int(rows[-1, 0]) if len(rows) else prev
        line += lines
    del data  # free the file's bytes before the table is built
    return census_table(np.concatenate(parts).view(CENSUS_DTYPE))


def _first_defect(block: bytes):
    """Validate ``block``, whole lines of census text: the offset of the
    first byte that breaks the field rules, or ``len(block)``; the offsets
    of the newlines that end its rows, valid up to that line; and its
    number of lines."""
    stray = block.translate(None, _BODY_BYTES)  # its first byte is the block's first stray byte
    defect = block.find(stray[:1]) if stray else len(block)
    a = np.frombuffer(block, dtype=np.uint8)
    marks = np.flatnonzero(a <= ord("-"))  # every comma, newline and dash, and stray bytes below them
    dash = a[marks] == ord("-")
    # A dash must open a field and precede a digit.  At offset 0, a[-1] is
    # the block's closing newline, which opens a field as well.
    at = marks[dash]
    before, after = a[at - 1], a[at + 1]
    signs = ((before == ord(",")) | (before == ord("\n"))) & (after >= ord("0")) & (after <= ord("9"))
    seps = marks[~dash]
    newline = a[seps] == ord("\n")
    width = seps - np.concatenate(([-1], seps[:-1])) - 1  # the length of the field each separator closes
    blank = newline & (width == 0) & np.concatenate(([True], newline[:-1]))
    lines = int(np.count_nonzero(newline))
    seps, newline, width = seps[~blank], newline[~blank], width[~blank]
    # Each row is a comma, a comma and a newline, each closing a field.  A
    # stray byte below the comma counts as a comma here: it is a defect anyway.
    wrong = newline.copy()
    wrong[2::3] = ~newline[2::3]
    wrong |= width == 0
    for found in (at[~signs], seps[wrong]):
        if found.size:
            defect = min(defect, int(found[0]))
    # Only a field of 19 characters or more can fall outside int64; those
    # closed before the first defect hold nothing but digits and a sign.
    for j in np.flatnonzero((width >= 19) & (seps <= defect)).tolist():
        if not -(2**63) <= int(block[seps[j] - width[j] : seps[j]]) < 2**63:
            defect = int(seps[j])
            break
    return defect, seps[2::3], lines


def _check_rows(rows: np.ndarray, prev, line_of) -> None:
    """Raise for the first of ``rows``, (x, x_squared, prime_count) triples,
    with a negative count, a wrong square or an x that is not one above the
    row before (``prev`` for the first row, unless None), checked in that
    order; ``line_of(i)`` is the line number of row i."""
    x, square, count = rows.T
    step = x - np.concatenate((x[:1] - 1 if prev is None else [prev], x[:-1]))
    # Beyond MAX_SQUARE_BASE an int64 x*x would wrap around.
    bad = (count < 0) | (x > MAX_SQUARE_BASE) | (x < -MAX_SQUARE_BASE) | (square != x * x) | (step != 1)
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


def write_evaluation_csv(path, scored: Iterable) -> None:
    """Write the header, then one row per score of each (kind, Scores) pair
    in ``scored``, in order."""
    labels = np.array([match.value for match in MatchClass], dtype=object)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(EVALUATION_HEADER + "\n")
        for kind, scores in scored:
            for start in range(0, len(scores.x), _EVALUATION_BLOCK):
                *numbers, match = (column[start : start + _EVALUATION_BLOCK] for column in scores)
                x, t, p, r = (repr(column.tolist())[1:-1].split(", ") for column in numbers)
                fh.write("\n".join(map(",".join, zip(x, t, repeat(kind), p, r, labels[match]))) + "\n")
