import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecensus import (
    CensusGapError,
    CensusHeaderError,
    CensusOrderError,
    CensusRowError,
    CensusSquareError,
    PlotConfig,
    census_sweep,
    evaluate_difference_model,
    evaluate_model,
    model_spec,
    ratio_series,
    read_census,
    read_constants,
    render,
    write_census,
    write_constants,
)
from primecensus.census import CensusRecord
from primecensus.evaluation import MatchClass, Scores
from primecensus import storage
from primecensus.storage import format_real


def test_write_census_line_count(tmp_path):
    path = tmp_path / "rows.csv"
    rows = write_census(census_sweep(22), path)
    assert rows == 21
    lines = path.read_text().splitlines()
    assert len(lines) == 22
    assert lines[0] == "x,x_squared,prime_count"
    assert lines[9] == "10,100,21"


def test_write_census_empty_stream(tmp_path):
    path = tmp_path / "rows.csv"
    assert write_census([], path) == 0
    assert path.read_text() == "x,x_squared,prime_count\n"


def test_write_census_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        write_census([], tmp_path / "no" / "such" / "dir.csv")


def test_round_trip_identity(tmp_path):
    path = tmp_path / "rows.csv"
    records = list(census_sweep(1000))
    write_census(records, path)
    assert read_census(path).tolist() == records


HEADER = "x,x_squared,prime_count\n"

# (file text, error kind, line number of the first defect)
ERROR_CASES = [
    ("", CensusHeaderError, 1),
    ("x,squared,count\n", CensusHeaderError, 1),
    ("\n" + HEADER, CensusHeaderError, 1),
    (HEADER + "2,4,2\n3,10,3\n", CensusSquareError, 3),
    (HEADER + "5,25,7\n7,49,12\n", CensusGapError, 3),
    (HEADER + "5,25,7\n6,36,8\n7,49,9\n9,81,12\n", CensusGapError, 5),
    (HEADER + "5,25,7\n4,16,4\n", CensusOrderError, 3),
    (HEADER + "5,25,7\n5,25,7\n", CensusOrderError, 3),
    (HEADER + "5,25\n", CensusRowError, 2),
    (HEADER + "5,25,7\n6,36,7,1\n", CensusRowError, 3),
    (HEADER + "5,25,abc\n", CensusRowError, 2),
    (HEADER + "5,25,7\n6,36,+8\n", CensusRowError, 3),  # plain decimal integers only
    (HEADER + "5,25,7\n6, 36,8\n", CensusRowError, 3),
    (HEADER + "5,25,7\n6,36,-8\n", CensusRowError, 3),  # negative count
    # Values outside int64 are malformed rows, not wrapped or saturated.
    (HEADER + "2,4,12345678901234567890\n", CensusRowError, 2),
    (HEADER + "2,4,2\n3,9,9223372036854775808\n", CensusRowError, 3),
    (HEADER + "2,4,2\n-9223372036854775809,9,3\n", CensusRowError, 3),
    # x above MAX_SQUARE_BASE: an int64 x*x of 2**32 would wrap to 0.
    (HEADER + "4294967296,0,5\n", CensusSquareError, 2),
    # The first defective line wins, whatever its kind.
    (HEADER + "2,4,2\n3,10,3\n4,16,x\n", CensusSquareError, 3),
    (HEADER + "2,4,2\n3,9,x\n4,17,3\n", CensusRowError, 3),
    (HEADER + "2,4,2\n4,16,3\n5,25,4,0\n", CensusGapError, 3),
    # Blank lines hold no row but still count as lines.
    (HEADER + "2,4,2\n\n3,9,3\n\n\n4,17,2\n", CensusSquareError, 7),
    (HEADER + "\n2,4,2\n\n4,16,2\n", CensusGapError, 5),
    (HEADER + "2,4,2\n\n3,9,3,\n", CensusRowError, 4),
    (HEADER.replace("\n", "\r\n") + "2,4,2\r\n3,9,3\r\n5,25,4\r\n", CensusGapError, 4),  # CRLF
    (HEADER + "2,4,2\n3,10,3", CensusSquareError, 3),  # no newline after the last row
    (HEADER + "2,4,2\n3,9,x", CensusRowError, 3),
    # Non-ASCII text fails its own line: a byte-order mark, a stray character.
    ("\ufeff" + HEADER + "2,4,2\n", CensusHeaderError, 1),
    (HEADER + "2,4,2\n3,9,3\u00a0\n", CensusRowError, 3),
    (HEADER + "2,4,2\n3,10,3\n4,16,4\u00e9\n", CensusSquareError, 3),
]


def test_read_census_error_kinds(tmp_path):
    path = tmp_path / "rows.csv"
    for text, kind, line in ERROR_CASES:
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(kind) as info:
            read_census(path)
        assert info.value.line == line, text


@pytest.mark.parametrize(
    "text",
    [
        HEADER + "2,4,2\n\n3,9,3\n",  # blank line between rows
        HEADER.replace("\n", "\r\n") + "2,4,2\r\n3,9,3\r\n",  # CRLF
        HEADER + "2,4,2\n3,9,3",  # no newline after the last row
    ],
)
def test_read_census_accepted_layouts(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode("ascii"))
    assert read_census(path).tolist() == [(2, 4, 2), (3, 9, 3)]


def test_read_census_int64_extremes(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(HEADER + "2,4,9223372036854775807\n")
    assert read_census(path).tolist() == [(2, 4, 2**63 - 1)]
    path.write_text(HEADER)
    assert len(read_census(path)) == 0


def test_read_census_result_serves_every_reader(tmp_path):
    """The properties the benchmark probes and the full-scale gate use."""
    path = tmp_path / "rows.csv"
    records = list(census_sweep(300))
    write_census(records, path)
    rows = read_census(path)

    assert len(rows) == len(records) == 299
    assert (rows[-1].x, rows[-1].x_squared, rows[-1].prime_count) == records[-1]
    assert rows[0].x == 2 and rows[0].prime_count == records[0].prime_count
    window = rows[100:150]
    assert len(window) == 50 and window[0].x == records[100].x
    assert {r.x: r.prime_count for r in rows[-5:]} == {r.x: r.prime_count for r in records[-5:]}

    spec = model_spec("custom_ratio")
    assert evaluate_model(rows, spec) == evaluate_model(records, spec)
    assert evaluate_difference_model(rows) == evaluate_difference_model(records)
    assert ratio_series(rows) == ratio_series(records)
    config = PlotConfig(kind="compare")
    assert render(rows, config, [spec]) == render(records, config, [spec])


@given(start=st.integers(min_value=2, max_value=10**6), length=st.integers(min_value=0, max_value=60))
@settings(max_examples=50, deadline=None)
def test_round_trip_property(tmp_path_factory, start, length):
    path = tmp_path_factory.mktemp("census") / "rows.csv"
    records = [CensusRecord(x, x * x, 7 * x + 1) for x in range(start, start + length)]
    write_census(records, path)
    assert read_census(path).tolist() == records


def test_format_real_round_trips():
    for value in (0.1, 1.0, 2.0038, -1.0932, 865796268.4585404, 3.45730472758733e-21):
        assert float(format_real(value)) == value


def test_constants_file_round_trip(tmp_path):
    path = tmp_path / "constants.txt"
    data = {
        "custom_ratio": {"k_slope": 2.0041, "k_intercept": -1.1},
        "hyperbolic": {"z_slope": 1.9029},
    }
    write_constants(path, data, comment="recovered by fit")
    assert read_constants(path) == data
    text = path.read_text()
    assert text.startswith("# recovered by fit\n")
    assert "custom_ratio.k_slope=2.0041" in text
    # A comment naming a non-ASCII census path is escaped, not refused.
    write_constants(path, data, comment="fitted from résultat.csv")
    assert read_constants(path) == data
    assert path.read_text(encoding="ascii").startswith("# fitted from r\\xe9sultat.csv\n")


def test_constants_file_rejects_garbage(tmp_path):
    path = tmp_path / "constants.txt"
    path.write_text("custom_ratio.k_slope 2.0\n")
    with pytest.raises(ValueError):
        read_constants(path)
    path.write_text("k_slope=2.0\n")
    with pytest.raises(ValueError):
        read_constants(path)
    path.write_text("custom_ratio.k_slope=two\n")
    with pytest.raises(ValueError):
        read_constants(path)
    # A byte-order mark, as spreadsheet tools write one, is named by path and line.
    path.write_bytes("\ufeffcustom_ratio.k_slope=2.0\n".encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: ")):
        read_constants(path)


def test_write_census_failure_leaves_partial_marker(tmp_path, monkeypatch):
    import os as os_mod

    def boom(fd):
        raise OSError("simulated device failure")

    monkeypatch.setattr(os_mod, "fsync", boom)
    path = tmp_path / "rows.csv"
    with pytest.raises(OSError):
        write_census(census_sweep(10), path)
    assert not path.exists()
    assert (tmp_path / "rows.csv.partial").exists()


def _reference_read(text):
    """The per-line reader the array reader replaced, with its field rule
    narrowed to plain int64 decimals: (error kind, line) or the rows."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[0] != HEADER.rstrip("\n"):
        return CensusHeaderError, 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3 or not all(re.fullmatch(r"-?[0-9]+", f) and -(2**63) <= int(f) < 2**63 for f in fields):
            return CensusRowError, lineno
        x, x_squared, prime_count = map(int, fields)
        if prime_count < 0:
            return CensusRowError, lineno
        if x_squared != x * x:
            return CensusSquareError, lineno
        if rows and x <= rows[-1][0]:
            return CensusOrderError, lineno
        if rows and x != rows[-1][0] + 1:
            return CensusGapError, lineno
        rows.append((x, x_squared, prime_count))
    return rows


_DEFECT_LINES = [
    "", "1,1,1", "5,25", "5,25,7,1", "a,4,2", "+5,25,1", "-3,9,1", "7,49,-2", "6,35,1",
    "4294967296,0,5", "3037000499,9223372030926249001,3", "99999999999999999999,1,1",
    "2,4,9223372036854775808", "2,4,9223372036854775807", "-", "2,,4",
]
_DEFECTS = st.sampled_from(_DEFECT_LINES)


@given(
    start=st.integers(min_value=2, max_value=3 * 10**9),
    counts=st.lists(st.integers(min_value=0, max_value=10**12), min_size=0, max_size=12),
    edits=st.lists(st.tuples(st.integers(min_value=0, max_value=14), _DEFECTS), max_size=3),
    crlf=st.booleans(),
    final_newline=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_read_census_agrees_with_the_per_line_reference(tmp_path_factory, start, counts, edits, crlf, final_newline):
    lines = [f"{x},{x * x},{c}" for x, c in enumerate(counts, start=start)]
    for at, defect in edits:  # insert or overwrite a line
        if at % 2:
            lines.insert(min(at // 2, len(lines)), defect)
        elif lines:
            lines[at // 2 % len(lines)] = defect
    text = HEADER + "\n".join(lines) + ("\n" if final_newline and lines else "")
    path = tmp_path_factory.mktemp("census") / "rows.csv"
    path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode("ascii"))
    expected = _reference_read(text)
    try:
        got = read_census(path).tolist()
    except (CensusRowError, CensusSquareError, CensusOrderError, CensusGapError, CensusHeaderError) as exc:
        got = (type(exc), exc.line)
    assert got == expected


def _read_outcome(path):
    try:
        return read_census(path).tolist()
    except (CensusRowError, CensusSquareError, CensusOrderError, CensusGapError, CensusHeaderError) as exc:
        return (type(exc), exc.line)


def _layout(line):
    """A census line's layout: its length and the columns of its commas."""
    return len(line), tuple(i for i, c in enumerate(line) if c == ",")


def _unit_edges(lines, spread=12):
    """Indices into ``lines``, a census body, of lines that start a new unit
    of read_census's work, a layout's lines within a chunk: every line
    that starts a chunk, and ``spread`` lines, spread through the body,
    whose layout differs from the line before's."""
    data = (HEADER + "\n".join(lines) + "\n").encode("latin-1")
    pos, edges = len(HEADER), set()
    while True:
        pos = data.rfind(b"\n", pos, pos + storage._CHUNK) + 1 or data.index(b"\n", pos + storage._CHUNK) + 1
        if pos == len(data):
            break
        edges.add(data.count(b"\n", 0, pos) - 1)
    changes = [i for i in range(1, len(lines)) if _layout(lines[i]) != _layout(lines[i - 1])]
    edges.update(changes[len(changes) // (2 * spread) :: max(len(changes) // spread, 1)])
    return sorted(edges)


def _resumed_reference_read(lines, clean, clean_rows):
    """``_reference_read`` of the census body ``lines``, which agree with
    the valid body ``clean`` up to some line: the reference keeps only the
    rows read so far, so it resumes from the row before that line, with
    that row's line number, and skips the per-line work above it."""
    at = next((i for i, (line, row) in enumerate(zip(lines, clean)) if line != row), min(len(lines), len(clean)))
    skip = max(at - 1, 0)
    got = _reference_read(HEADER + "\n".join(lines[skip:]) + "\n")
    if isinstance(got, list):
        return clean_rows[:skip] + got
    kind, line = got
    return kind, line + skip


_INT64_EDGE_FIELDS = [
    "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "09223372036854775807", "09223372036854775808", "-09223372036854775808", "-09223372036854775809",
    "000000000000000000001", "100000000000000000000", "-00000000000000000001", "-99999999999999999999",
]


def test_read_census_at_scale_agrees_with_the_per_line_reference(tmp_path):
    """A 50k-row census, so defects sit at chunk and layout edges and at
    large offsets."""
    rng = random.Random(20221)
    clean = [f"{x},{x * x},{rng.randrange(10**12)}" for x in range(2, 50_002)]
    edges = _unit_edges(clean)
    assert len(edges) >= 8 and len(clean[0]) * len(clean) > storage._CHUNK  # at least one chunk edge

    def edit(at, line, insert=False):
        lines = list(clean)
        lines[at : at + (not insert)] = [line]
        return lines

    cases = [("clean", clean)]
    for defect in _DEFECT_LINES:
        cases += [
            (f"{defect!r} first", edit(0, defect)),
            (f"{defect!r} last", edit(len(clean) - 1, defect)),
            (f"{defect!r} inserted at random", edit(rng.randrange(len(clean)), defect, insert=True)),
        ]
    # Each unit edge gets a defect on either side, and every defect sits at some edge.
    for j, at in enumerate(edges):
        closing = _DEFECT_LINES[2 * j % len(_DEFECT_LINES)]
        opening = _DEFECT_LINES[(2 * j + 1) % len(_DEFECT_LINES)]
        cases += [
            (f"{closing!r} closes unit {j}", edit(at - 1, closing)),
            (f"{opening!r} opens unit {j + 1}", edit(at, opening, insert=True)),
        ]
    # Runs of blank lines at the start, across a unit edge and at the end;
    # a run longer than a chunk; a defect whose line number counts them.
    mid, late = edges[1], edges[-1]
    blanks = [""] * 3 + clean[:mid] + [""] * 4 + clean[mid:late] + ["6,35,1"] + clean[late:] + [""] * 5
    cases += [
        ("blank runs", blanks[: late + 7] + blanks[late + 8 :]),
        ("blank runs, then a defect", blanks),
        ("a run of blank lines longer than a chunk", clean[:mid] + [""] * (storage._CHUNK + 10) + ["7,49,2"]),
    ]
    # A non-ASCII byte inside a row far into the file.
    row = clean[late + 3]
    cases.append(("non-ASCII byte", edit(late + 3, row[:2] + "\u00e9" + row[2:])))
    # Fields of 19 to 21 characters near the int64 limits, in each column,
    # and a dash before or in place of each character of a row: on the first
    # line, which opens a chunk too, of a census cut after the first edge.
    head = clean[: edges[0] + 2]
    for field in _INT64_EDGE_FIELDS:
        cases += [
            (f"count {field}", [f"2,4,{field}"] + head[1:]),
            (f"x_squared {field}", [f"2,{field},5"] + head[1:]),
            (f"x {field}", [f"{field},4,5"] + head[1:]),
        ]
    cases.append(("x_squared with leading zeros", ["2,000000000000000000004,9"] + head[1:]))
    row = head[0]
    for i in range(len(row) + 1):
        cases.append((f"dash inserted at {i}", [row[:i] + "-" + row[i:]] + head[1:]))
    for i in range(len(row)):
        cases.append((f"dash in place of {i}", [row[:i] + "-" + row[i + 1 :]] + head[1:]))

    clean_rows = _reference_read(HEADER + "\n".join(clean) + "\n")
    assert len(clean_rows) == len(clean)
    path = tmp_path / "rows.csv"
    for label, lines in cases:
        text = HEADER + "\n".join(lines) + "\n"
        expected = _resumed_reference_read(lines, clean, clean_rows)
        # "\r\n" and a lone "\r" end a line as "\n" does.
        for newline in ("\n", "\r\n", "\r") if label.startswith("blank runs") else ("\n",):
            path.write_bytes(text.replace("\n", newline).encode("latin-1"))
            assert _read_outcome(path) == expected, (label, newline)


def _fixed_width_lines(xs, width):
    """Census lines of exactly ``width`` characters: each count has as many
    digits as its line leaves, so the commas move as x and x*x grow."""
    rng = random.Random(width)
    lines = []
    for x in xs:
        digits = width - len(f"{x},{x * x},")
        lines.append(f"{x},{x * x},{rng.randrange(10 ** (digits - 1), 10**digits)}")
    return lines


def _census_layout_cases():
    rng = random.Random(21)
    xs = range(2, 30_002)
    widths = [f"{x},{x * x},{rng.randrange(10**12) // 10 ** rng.randrange(12)}" for x in xs]
    blanks = [line for x, row in zip(xs, widths) for line in ([row] + [""] * (x % 7 == 0) * (x % 5))]
    padded = [
        f"{x:0{(x % 4) * 3}d},{x * x:0{(x % 5) * 5}d},{c:0{(x % 3) * 7}d}"
        for x, c in zip(xs, (rng.randrange(10**9) for _ in xs))
    ]
    return {
        "equal lengths, other commas": ["99,9801,1000", "100,10000,10", "101,10201,7"],
        "equal lengths across many comma layouts": _fixed_width_lines(range(2, 40_002), 20),
        "count width changes every row": widths,
        "leading zeros": padded,
        "negative x on the first row": [f"{x},{x * x},{abs(x) * 3}" for x in range(-5_000, 25_000)],
        "fields of 19 to 21 characters": [
            f"{x},{x * x:0{19 + x % 3}d},{(2**63 - 1 - x) if x % 2 else x:0{19 + x % 3}d}" for x in xs
        ],
        "runs of blank lines": blanks,
    }


@pytest.mark.parametrize("label", sorted(_census_layout_cases()))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_census_layouts_agree_with_the_per_line_reference(tmp_path, label, newline):
    """Layouts read_census must group: lines of one length with commas in
    other columns, scattered widths, zero-padded and signed fields and
    blank lines; each census read clean, then with a defect near its end."""
    lines = _census_layout_cases()[label]
    path = tmp_path / "rows.csv"
    at = max(i for i, line in enumerate(lines) if line and i < len(lines) * 3 // 4)
    for body in (lines, lines[:at] + [lines[at].replace(",", ",1", 1)] + lines[at + 1 :]):
        text = HEADER + "\n".join(body) + "\n"
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        expected = _reference_read(text)
        assert _read_outcome(path) == expected
        assert isinstance(expected, list) == (body is lines), "the clean census must read, the other not"


def test_read_census_steps_grow_with_layouts_not_rows(tmp_path, monkeypatch):
    """Each layout of a chunk is one step, though the count's width
    alternates every row: 100,000 rows take some dozens of steps."""
    lines = [f"{x},{x * x},{7 if x % 2 else 10**9 + x}" for x in range(2, 100_002)]
    text = HEADER + "\n".join(lines) + "\n"
    path = tmp_path / "rows.csv"
    path.write_text(text)
    steps = []
    parse_layout = storage._parse_layout
    monkeypatch.setattr(storage, "_parse_layout", lambda *args: steps.append(args) or parse_layout(*args))
    assert read_census(path).tolist() == _reference_read(text)
    chunks = len(text) // storage._CHUNK + 1
    layouts = len({_layout(line) for line in lines})
    assert len(steps) <= layouts * chunks < len(lines) // 100


# ---------------------------------------------------------------------------
# Evaluation CSV
# ---------------------------------------------------------------------------


def _reference_evaluation_csv(path, scored):
    """The scalar reference for ``write_evaluation_csv``: one f-string per
    row, floats as their repr."""
    labels = [match.value for match in MatchClass]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(storage.EVALUATION_HEADER + "\n")
        for kind, scores in scored:
            for x, t, p, r, c in zip(*(column.tolist() for column in scores)):
                fh.write(f"{x},{t},{kind},{p!r},{r!r},{labels[c]}\n")


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e-05, 1e16, 1e22]
SPECIAL_FLOATS += [
    1e-323,  # a subnormal taken as 10 * t at one power of ten lower
    2.2250738585072014e-308,  # the smallest normal: a power of two, yet with equal gaps on both sides
    9007199254740992.0,
    1.7976931348623157e308,
    # each side of repr's switches between fixed and exponent notation
    *(float(np.nextafter(edge, toward)) for edge in (1e-05, 1e-04, 1e15, 1e16) for toward in (0, np.inf)),
]
SPECIAL_FLOATS += [-value for value in SPECIAL_FLOATS[4:]]


def _seeded_scores(rows, seed):
    """Seeded scores of ``rows`` rows, with every special float in the
    prediction and relative_error columns of the first rows and at
    scattered rows."""
    rng = np.random.default_rng(seed)
    x = np.arange(2, rows + 2, dtype=np.int64)
    true = rng.integers(1, 2**40, rows)
    pred = true * rng.uniform(0.5, 1.5, rows)
    rel = np.abs(pred - true) / true
    for column in (pred, rel):
        specials = np.resize(SPECIAL_FLOATS, rows)
        column[: len(SPECIAL_FLOATS)] = specials[: len(SPECIAL_FLOATS)]
        spots = rng.integers(0, max(rows, 1), rows // 100)
        column[spots] = specials[spots]
    return Scores(x, true, pred, rel, rng.integers(0, len(MatchClass), rows))


def _float_texts(values) -> list:
    """The text ``write_evaluation_csv`` gives each float of ``values``."""
    chars, keep = storage._float_text(np.asarray(values, dtype=np.float64))
    return storage._rows_text([(chars, keep)]).decode("ascii").split("\n")[:-1]


def test_float_text_is_repr_of_random_bit_patterns():
    values = np.random.default_rng(16).integers(0, 2**64, 2**18, dtype=np.uint64).view(np.float64)
    assert _float_texts(values) == list(map(repr, values.tolist()))


def test_float_text_is_repr_at_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert _float_texts(values) == list(map(repr, values.tolist()))


@given(st.lists(st.floats(), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_float_text_is_repr_property(values):
    assert _float_texts(values) == list(map(repr, values))


def test_importing_the_cli_builds_no_formatter_table():
    code = "import primecensus.cli, primecensus.storage as s; print(s._schubfach_table.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(storage.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def test_importing_the_cli_loads_no_network_or_process_pool_modules():
    # html.escape, not xml.sax.saxutils, escapes SVG text, the census has
    # no process pool, and hashlib (which maps OpenSSL) is imported only
    # when a census file is written or resumed.
    heavy = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")
    heavy += ("concurrent.futures", "multiprocessing", "logging", "hashlib")
    code = (
        "import sys, numpy; base = set(sys.modules); import primecensus.cli; "
        f"print(sorted(m for m in set(sys.modules) - base if any(m == h or m.startswith(h + '.') for h in {heavy!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(storage.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_a_two_worker_sweep_loads_no_process_pool_modules():
    # Sieve workers are forked children on pipes: no executor, queue or logging.
    heavy = ("concurrent.futures", "multiprocessing", "logging", "queue")
    code = (
        "import sys; from primecensus import census; census.DEFAULT_SEGMENT_LEN = 1 << 20; "
        "assert len(list(census.census_sweep(3000, workers=2))) == 2999; "
        f"print(sorted(m for m in sys.modules if any(m == h or m.startswith(h + '.') for h in {heavy!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(storage.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("rows", [0, 1, 7999, 8000, 8001, 16001, 8191, 8192, 8193, 16385])
def test_evaluation_csv_matches_the_per_row_reference(tmp_path, rows):
    scored = [("custom_ratio", _seeded_scores(rows, seed=rows)), ("bertrand", _seeded_scores(rows, seed=rows + 1))]
    storage.write_evaluation_csv(tmp_path / "block.csv", scored)
    _reference_evaluation_csv(tmp_path / "row.csv", scored)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()
