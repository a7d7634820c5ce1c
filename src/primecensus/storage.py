"""Validated readers and writers for census, evaluation and constants files.

Census CSV: header ``x,x_squared,prime_count``, ascending consecutive x,
plain decimal integers, newline-terminated.  Constants file: one
``model.constant=value`` per line, ``#`` comments allowed.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, List

from .census import CENSUS_HEADER, CensusRecord, encode_census_row
from .errors import (
    CensusGapError,
    CensusHeaderError,
    CensusOrderError,
    CensusRowError,
    CensusSquareError,
)

EVALUATION_HEADER = "x,true_count,model,prediction,relative_error,match_class"


def format_real(value: float) -> str:
    """Full-precision decimal text for a real (round-trips through float)."""
    return repr(float(value))


def write_census(records: Iterable, path) -> int:
    """Write records to a census CSV; returns the number of rows written.

    Data is first written to ``<path>.partial`` and renamed into place
    after a successful fsync, so a failed write never leaves a truncated
    file under the final name.
    """
    path = Path(path)
    partial = Path(str(path) + ".partial")
    rows = 0
    with open(partial, "wb") as fh:
        fh.write((CENSUS_HEADER + "\n").encode("ascii"))
        for record in records:
            fh.write(encode_census_row(record))
            rows += 1
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(partial, path)
    return rows


def iter_census(path) -> Iterator[CensusRecord]:
    """Stream validated records from a census CSV.

    Raises a distinct error kind per defect: bad header, malformed row,
    x_squared != x*x, non-ascending x, or a gap in x.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != CENSUS_HEADER:
            raise CensusHeaderError(f"expected header {CENSUS_HEADER!r}, got {header!r}", line=1)
        prev_x = None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise CensusRowError(f"expected 3 fields, got {len(parts)}", line=lineno)
            try:
                x, x_squared, prime_count = (int(part) for part in parts)
            except ValueError:
                raise CensusRowError(f"non-integer field in {line!r}", line=lineno) from None
            if prime_count < 0:
                raise CensusRowError(f"negative prime_count {prime_count}", line=lineno)
            if x_squared != x * x:
                raise CensusSquareError(f"x_squared={x_squared} but x*x={x * x}", line=lineno)
            if prev_x is not None:
                if x <= prev_x:
                    raise CensusOrderError(f"x={x} after x={prev_x} is not ascending", line=lineno)
                if x != prev_x + 1:
                    raise CensusGapError(f"x jumps {prev_x} -> {x}", line=lineno)
            prev_x = x
            yield CensusRecord(x, x_squared, prime_count)


def read_census(path) -> List[CensusRecord]:
    return list(iter_census(path))


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
