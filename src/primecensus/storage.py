"""Validated readers and writers for census, evaluation and constants files.

Census CSV: header ``x,x_squared,prime_count``, ascending consecutive x,
plain decimal integers (digits with an optional leading ``-``) that fit
in int64, newline-terminated; blank lines are skipped.  ``read_census``
returns the whole file as one census table, an int64 record array with
fields x, x_squared and prime_count.  ``write_census`` hands a record
stream to ``census.write_census_file``, the one census writer, so a
census under its final name is always complete.  Constants file: one
``model.constant=value`` per line, ``#`` comments allowed.
"""

from __future__ import annotations

import io
import re
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
from .pi_oracle import MAX_SQUARE_BASE

EVALUATION_HEADER = "x,true_count,model,prediction,relative_error,match_class"

# The first line of census text that is neither blank nor three integer fields.
_MALFORMED_LINE = r"(?m)^(?!(?:-?[0-9]+,-?[0-9]+,-?[0-9]+)?$)"
_LONG_FIELD = r"-?[0-9]{19,}"  # only these can fall outside int64


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
    x_squared != x*x, non-ascending x, or a gap in x.
    """
    with open(path, "r", encoding="ascii") as fh:  # "\r\n" arrives as "\n"
        header = fh.readline().rstrip("\r\n")
        if header != CENSUS_HEADER:
            raise CensusHeaderError(f"expected header {CENSUS_HEADER!r}, got {header!r}", line=1)
        body = fh.read()
    if body and not body.endswith("\n"):
        body += "\n"
    malformed = re.search(_MALFORMED_LINE, body)
    end = malformed.start() if malformed else len(body)
    try:
        table = _parse_rows(body[:end])
    except ValueError:  # np.loadtxt refuses a field outside int64
        int64 = np.iinfo(np.int64)
        huge = (m for m in re.finditer(_LONG_FIELD, body[:end]) if not int64.min <= int(m.group()) <= int64.max)
        end = body.rfind("\n", 0, next(huge).start()) + 1
        table = _parse_rows(body[:end])
    _check_rows(table, body)  # a defect above the malformed line comes first
    if end < len(body):
        line = body[end : body.index("\n", end)]
        raise CensusRowError(f"expected three plain int64 fields, got {line!r}", line=body.count("\n", 0, end) + 2)
    return table


def _parse_rows(text: str) -> np.recarray:
    if text.count("\n") == len(text):  # no rows; np.loadtxt would warn
        return census_table(())
    lines = io.BytesIO(text.encode("ascii"))
    return census_table(np.loadtxt(lines, dtype=CENSUS_DTYPE, delimiter=",", comments=None, ndmin=1))


def _check_rows(table: np.recarray, body: str) -> None:
    """Raise for the first row with a negative count, a wrong square or an
    x that is not one above the row before, checked in that order."""
    x = table.x
    # Beyond MAX_SQUARE_BASE an int64 x*x would wrap around.
    bad = (table.prime_count < 0) | (x > MAX_SQUARE_BASE) | (x < -MAX_SQUARE_BASE) | (table.x_squared != x * x)
    bad[1:] |= x[1:] != x[:-1] + 1
    rows = np.flatnonzero(bad)
    if not rows.size:
        return
    i = int(rows[0])
    x, square, count = table[i].tolist()
    newlines = np.flatnonzero(np.frombuffer(body.encode("ascii"), dtype=np.uint8) == ord("\n"))
    line = int(np.flatnonzero(np.diff(newlines, prepend=-1) > 1)[i]) + 2  # blank lines hold no row
    if count < 0:
        raise CensusRowError(f"negative prime_count {count}", line=line)
    if square != x * x:
        raise CensusSquareError(f"x_squared={square} but x*x={x * x}", line=line)
    prev = int(table.x[i - 1])
    if x <= prev:
        raise CensusOrderError(f"x={x} after x={prev} is not ascending", line=line)
    raise CensusGapError(f"x jumps {prev} -> {x}", line=line)


# ---------------------------------------------------------------------------
# Model constants files
# ---------------------------------------------------------------------------


def parse_constant(text: str):
    """Split one ``model.constant=value`` assignment into (kind, name, value)."""
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
    with open(path, "r", encoding="ascii") as fh:
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# Evaluation rows
# ---------------------------------------------------------------------------


def evaluation_csv_line(row, kind: str) -> str:
    return ",".join(
        (
            str(row.x),
            str(row.true_count),
            kind,
            format_real(row.prediction),
            format_real(row.relative_error),
            row.match_class.value,
        )
    )


def open_evaluation_csv(path):
    """Open an evaluation CSV for writing and emit the header."""
    fh = open(path, "w", encoding="ascii")
    fh.write(EVALUATION_HEADER + "\n")
    return fh
