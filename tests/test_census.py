import contextlib
import hashlib
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecensus import (
    CheckpointError,
    CheckpointIntegrityError,
    RangeTooLargeError,
    census,
    census_sweep,
    count_in_range,
    count_in_range_oracle,
    prime_pi,
    read_checkpoint,
    run_census,
    write_checkpoint,
)
from primecensus.census import DEFAULT_SEGMENT_LEN, SweepCheckpoint, sieve_flags
from primecensus.cli import main
from pi_reference import naive_pi_table

# Left column of the published sample table: x -> primes in [x, x**2].
SMALL_TABLE = {
    2: 2, 3: 3, 4: 4, 5: 7, 6: 8, 7: 12, 8: 14, 9: 18, 10: 21, 11: 26, 12: 29,
    13: 34, 14: 38, 15: 42, 16: 48, 17: 55, 18: 59, 19: 65, 20: 70, 21: 77, 22: 84,
}


def test_count_in_range_small():
    assert count_in_range(1) == 0
    for x, expected in SMALL_TABLE.items():
        assert count_in_range(x) == expected


def test_count_in_range_guard():
    with pytest.raises(RangeTooLargeError):
        count_in_range(3_037_000_500)
    with pytest.raises(ValueError):
        count_in_range(0)


@pytest.mark.parametrize("segment_len, x_max", [(1 << 12, 1500), (3 * (1 << 20) + 2, 20_000)])
def test_count_in_range_across_many_segments(monkeypatch, segment_len, x_max):
    """count_in_range over hundreds of segments, 4,096 numbers long or of
    a length that is no multiple of 30, agrees with the oracle.  2**12
    stops at x = 1,500, about 550 segments: 20,000 would take a minute."""
    monkeypatch.setattr(census, "DEFAULT_SEGMENT_LEN", segment_len)
    for x in [x_max, *random.Random(20261022).sample(range(2, x_max), 4)]:
        assert count_in_range(x) == count_in_range_oracle(x), x


@pytest.mark.parametrize("segment_len", [1 << 12, 3 * (1 << 20) + 2, DEFAULT_SEGMENT_LEN])
def test_counts_at_stops_that_are_not_squares(monkeypatch, segment_len):
    """The engine counts the primes in [cursor, s] at every stop s of
    x(x - 1) and x**2 for x <= 3,000, from cursors that are no multiple of
    30, as a plain sieve does; and each Oppermann half-interval,
    (x(x - 1), x**2] and (x**2, x(x + 1)], holds a prime."""
    monkeypatch.setattr(census, "DEFAULT_SEGMENT_LEN", segment_len)
    xs = np.arange(2, 3001, dtype=np.int64)
    stops = np.column_stack((xs * (xs - 1), xs * xs)).ravel()
    pi = naive_pi_table(int(stops[-1]))
    basis = census._wheel_basis(sieve_flags(3000))
    for cursor, workers in ((1, 1), (19, 2), (4_500_013, 2)):
        inside = stops[stops >= cursor - 1]
        counts = np.concatenate(list(census._counts_at(cursor, inside, workers, basis)))
        assert np.array_equal(counts, pi[inside] - pi[cursor - 1]), cursor
        if cursor == 1:
            assert np.diff(counts).min() >= 1


def test_sweep_single_record():
    assert list(census_sweep(2)) == [(2, 4, 2)]


def test_sweep_matches_small_table():
    rows = list(census_sweep(22))
    assert [(r.x, r.prime_count) for r in rows] == sorted(SMALL_TABLE.items())
    assert all(r.x_squared == r.x * r.x for r in rows)


def test_sweep_row_1347(census_1347):
    assert census_1347[-1] == (1347, 1814409, 135856)


def test_sweep_agrees_with_combinatorial_counter_to_3000():
    """Independent-implementation equivalence over the whole prefix."""
    rows = list(census_sweep(3000))
    for record in rows:
        assert record.prime_count == count_in_range_oracle(record.x), record


def sweep_at(segment_len, *args, **kwargs):
    """census_sweep's rows, drawn with segments of ``segment_len`` numbers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "DEFAULT_SEGMENT_LEN", segment_len)
        return list(census_sweep(*args, **kwargs))


def test_sweep_independent_of_segment_len():
    # Lengths not a multiple of 30 are cut down to one; 30 and 59 give
    # one-row segments.
    baseline = list(census_sweep(200))
    for segment_len in (30, 59, 1000, 1024, 4096, 65536):
        assert sweep_at(segment_len, 200) == baseline
    # At 2**13 and 2**14 the scatter threshold (rows // 64 = 4 and 8) is
    # below every basis prime from 19 up, and far below the largest (2999);
    # the default length strides every prime.
    baseline = list(census_sweep(3000))
    for segment_len in (1 << 13, 1 << 14):
        assert sweep_at(segment_len, 3000) == baseline


WHEEL_PRIMES = (2, 3, 5)  # the primes no wheel row holds


def wheel_rows(flags, lo, rows, r):
    """The base sieve's flags for lo + 30j + r, j < rows."""
    return flags[lo + r : lo + 30 * rows : 30]


def class_masks(lo, rows, basis):
    """Copies of the kernel's eight class masks for [lo, lo + 30 * rows),
    checking that the classes come in residue order and that every byte
    of the buffer past the rows, the sink's included, is False."""
    masks = []
    for r, buffer in census._wheel_masks(lo, rows, basis):
        assert len(buffer) % 8 == 0 and len(buffer) > rows, (lo, rows, r)
        assert not buffer[rows:].any(), (lo, rows, r)
        masks.append((r, buffer[:rows].copy()))
    assert [r for r, _ in masks] == [1, 7, 11, 13, 17, 19, 23, 29]
    return masks


def assert_kernel_matches(flags, basis, lo, rows):
    """Each class's mask for the rows lo + 30j + r, j < rows, agrees with
    the base sieve."""
    for r, mask in class_masks(lo, rows, basis):
        assert mask.shape == (rows,), (lo, rows, r)
        assert np.array_equal(mask, wheel_rows(flags, lo, rows, r)), (lo, rows, r)


def test_segment_kernel_matches_base_sieve_on_short_segments():
    """Short segments put the scatter threshold at 0..4, so most of the
    basis (primes up to 1999, some with no hit at all) is scattered."""
    limit = 2_000_000
    flags = sieve_flags(limit)
    basis = census._wheel_basis(sieve_flags(2000))
    rng = random.Random(20261018)
    for i in range(300):
        rows = rng.randrange(34, 274)
        lo = 0 if i == 0 else rng.randrange(0, limit - 30 * rows) // 30 * 30
        assert_kernel_matches(flags, basis, lo, rows)


def assert_full_basis_segment_matches_oracle(lo, length):
    """One segment of ``length`` numbers from lo (a multiple of 30), sieved
    with the full-scale basis, has as many primes as the oracle counts in
    its rows' span, less 2, 3 and 5."""
    basis = census._wheel_basis(sieve_flags(449_999))
    rows = length // 30
    hi = lo + 30 * rows
    assert lo % 30 == 0 and isqrt(hi) < 449_999
    found = sum(int(np.count_nonzero(mask)) for _, mask in census._wheel_masks(lo, rows, basis))
    unstored = sum(lo <= p < hi for p in WHEEL_PRIMES)
    assert found == prime_pi(hi - 1) - prime_pi(lo - 1) - unstored


def test_segment_kernel_default_length_at_1e10():
    """One full-length segment with the full-scale basis, against the oracle."""
    assert_full_basis_segment_matches_oracle(10**10 - 10**10 % 30, DEFAULT_SEGMENT_LEN)


PRESIEVE_ROWS = 7 * 11 * 13 * 17  # rows of each class; 30 times as many integers
KERNEL_LIMIT = 4 * 30 * PRESIEVE_ROWS  # four periods of integers


@pytest.fixture(scope="module")
def kernel_flags():
    """Base-sieve flags to KERNEL_LIMIT and the basis that covers it."""
    return sieve_flags(KERNEL_LIMIT), census._wheel_basis(sieve_flags(isqrt(KERNEL_LIMIT)))


def wheel_count(flags, start, end):
    """The primes in [start, end] that a wheel row can hold (not 2, 3 or 5)."""
    start = max(start, 0)
    return int(np.count_nonzero(flags[start : end + 1])) - sum(start <= p <= end for p in WHEEL_PRIMES)


@pytest.mark.parametrize("lo", range(3, 22, 2))
def test_segment_kernel_at_every_small_start(kernel_flags, lo):
    """The first segment, from 0, holds 1 and the pre-sieved primes 7..17 at
    row 0 of their classes: 1 must be left composite and the primes prime.
    Each small start ``lo`` is a sweep cursor inside that segment: the
    counts at lo - 1, lo and lo + 1, whose differences mask the values
    below the cursor, match the base sieve."""
    flags, basis = kernel_flags
    for rows in (1, 2, 3, 34, 1000, 2 * PRESIEVE_ROWS + 10):
        assert_kernel_matches(flags, basis, 0, rows)
        ends = sorted({lo - 1, lo, lo + 1, 30, 49, 121, 289, 30 * rows - 1, 30 * rows + 7})
        counts = census._segment_counts(0, rows, ends, basis)
        assert counts.tolist() == [wheel_count(flags, 0, min(e, 30 * rows - 1)) for e in ends], (lo, rows)


def test_segment_counts_match_the_base_sieve(kernel_flags):
    """Seeded ends below, inside and past a segment, repeated ones among
    them, count the wheel primes from lo up to each end."""
    flags, basis = kernel_flags
    rng = random.Random(30)
    for _ in range(100):
        rows = rng.randrange(1, 3 * PRESIEVE_ROWS)
        lo = rng.randrange(0, KERNEL_LIMIT - 30 * rows) // 30 * 30
        hi = lo + 30 * rows
        ends = sorted(rng.randrange(lo - 40, hi + 40) for _ in range(rng.randrange(1, 30)))
        ends += ends[-1:]
        counts = census._segment_counts(lo, rows, ends, basis)
        assert counts.tolist() == [wheel_count(flags, lo, min(e, hi - 1)) for e in ends], (lo, rows)


def test_segment_kernel_on_lengths_off_the_period(kernel_flags):
    """Segments shorter than the pattern's period and lengths that are not
    a multiple of it, from starts at, just before and just after a period."""
    flags, basis = kernel_flags
    starts = [30 * PRESIEVE_ROWS * k + d for k in (1, 2) for d in (-30, 0, 30)]
    for lo in starts:
        for rows in (1, 10, PRESIEVE_ROWS - 1, PRESIEVE_ROWS + 1, 3 * PRESIEVE_ROWS // 2 + 1):
            assert_kernel_matches(flags, basis, lo, rows)


def test_segment_kernel_across_a_period_wrap(kernel_flags):
    """Seeded segments that start within 1,000 rows of a period's end and
    run past it, some past the next one too."""
    flags, basis = kernel_flags
    rng = random.Random(9)
    for _ in range(40):
        period_end = 30 * PRESIEVE_ROWS * rng.randrange(1, 3)
        lo = period_end - 30 * rng.randrange(1, 1000)
        rows = rng.randrange(1000, 2 * PRESIEVE_ROWS)
        assert_kernel_matches(flags, basis, lo, rows)


def test_segment_kernel_default_length_near_full_scale():
    """One default-length segment at the top of the paper's census, against the oracle."""
    assert_full_basis_segment_matches_oracle(190_000_000_020, DEFAULT_SEGMENT_LEN)


def test_segment_kernel_2_22_length_near_full_scale():
    """One 2**22 segment, a quarter of the default, at the top of the
    paper's census: T = rows // 64 is 2,184 there, so primes the default
    length strides get scattered."""
    assert_full_basis_segment_matches_oracle(190_000_000_020, 1 << 22)


def test_segment_kernel_copies_its_pattern(kernel_flags):
    """Sieving never writes through to the module's pre-sieve pattern."""
    _, basis = kernel_flags
    before = census._presieve_pattern().copy()
    for lo in (0, 30, 510, 30 * PRESIEVE_ROWS, 10**6 - 10**6 % 30):
        for rows in (1000, PRESIEVE_ROWS + 100):
            class_masks(lo, rows, basis)
    assert np.array_equal(census._presieve_pattern(), before)


@pytest.mark.parametrize("q", [19, 23, 37, 101, 127])
@pytest.mark.parametrize("times", [1, 2])
def test_segment_kernel_with_threshold_on_a_prime(kernel_flags, q, times):
    """rows // 64 is exactly q, so q is the first banded prime and its
    octave ends at 2q, or exactly 2q, the end of that octave."""
    flags, basis = kernel_flags
    rng = random.Random(q * times)
    for extra in (0, 1, 31, 63):
        rows = 64 * times * q + extra
        for lo in [0, q * q - q * q % 30] + [rng.randrange(0, KERNEL_LIMIT - 30 * rows) // 30 * 30 for _ in range(8)]:
            assert_kernel_matches(flags, basis, lo, rows)


def test_segment_kernel_below_64_slots_bands_every_prime(kernel_flags):
    """With fewer than 64 rows the threshold is 0: every basis prime above
    17 is marked by the octave scatter, most with a single hit or none."""
    flags, basis = kernel_flags
    rng = random.Random(64)
    for rows in (1, 2, 18, 19, 32, 50, 63):
        for lo in [0, 30, 360] + [rng.randrange(0, KERNEL_LIMIT - 30 * rows) // 30 * 30 for _ in range(20)]:
            assert_kernel_matches(flags, basis, lo, rows)


def test_segment_kernel_with_primes_beyond_the_segment(kernel_flags):
    """Basis primes up to 1,427 against segments of 20..700 rows: the first
    hit of most of them falls at or past the segment's end, the sink slot."""
    flags, basis = kernel_flags
    assert basis[0][-1] > 700
    rng = random.Random(1427)
    for _ in range(200):
        rows = rng.randrange(20, 701)
        lo = rng.randrange(KERNEL_LIMIT // 2, KERNEL_LIMIT - 30 * rows) // 30 * 30
        assert_kernel_matches(flags, basis, lo, rows)


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, KERNEL_LIMIT // 30 - 1), rows=st.integers(1, 40_000))
def test_segment_kernel_property(kernel_flags, start, rows):
    """Any lo, a multiple of 30, and any length agree with the base sieve."""
    flags, basis = kernel_flags
    lo = 30 * start
    rows = min(rows, (KERNEL_LIMIT + 1 - lo) // 30)
    assert_kernel_matches(flags, basis, lo, rows)


def test_oversized_base_sieve_fails_before_allocating(tmp_path, monkeypatch):
    """n_max near the 64-bit guard would need about 27 GB of base sieve."""

    def no_allocation(*args, **kwargs):
        raise AssertionError("the base sieve was allocated")

    monkeypatch.setattr(np, "ones", no_allocation)
    n = 3_000_000_000
    with pytest.raises(RangeTooLargeError):
        sieve_flags(n)
    with pytest.raises(RangeTooLargeError):
        next(census_sweep(n))
    with pytest.raises(RangeTooLargeError):
        count_in_range(n)
    with pytest.raises(RangeTooLargeError):
        run_census(n, tmp_path / "rows.csv", checkpoint_path=tmp_path / "ck")
    assert not (tmp_path / "rows.csv").exists()
    with pytest.raises(RangeTooLargeError):
        sieve_flags(census.BASE_SIEVE_MAX_BYTES // 9)  # the smallest n over budget


def test_sweep_independent_of_segment_len_at_full_scale_offsets():
    """A seeded 5-x slice near the top of the paper's census, resumed from
    the oracle's pi((A-1)**2), reads the same at six segment lengths, three
    of them not a multiple of 30, and its last row matches the counter.
    Resumed again from each of its rows, at cursors (x-1)**2 + 1 that fall
    at several offsets from a multiple of 30, it reads the same tail."""
    a = random.Random(449).randrange(448_000, 449_995)
    b = a + 4
    cum_pi = prime_pi((a - 1) ** 2)
    sweeps = [
        sweep_at(segment_len, b, start_x=a, cum_pi_start=cum_pi)
        for segment_len in (1 << 20, 1 << 21, 1 << 22, 3 * (1 << 20) + 2, DEFAULT_SEGMENT_LEN, 30 * 70_001)
    ]
    assert [r.x for r in sweeps[0]] == list(range(a, b + 1))
    assert all(rows == sweeps[0] for rows in sweeps[1:])
    assert sweeps[0][-1].prime_count == count_in_range_oracle(b)
    pairs = list(census._sweep_pairs(b, 1, a, cum_pi))
    assert [record for record, _ in pairs] == sweeps[0]
    assert len({(x * x + 1) % 30 for x in range(a, b)}) > 1
    for k, (record, pi_square) in enumerate(pairs[:-1]):
        for segment_len in (1 << 20, DEFAULT_SEGMENT_LEN):
            assert sweep_at(segment_len, b, start_x=record.x + 1, cum_pi_start=pi_square) == sweeps[0][k + 1 :]


def test_pool_draws_a_bounded_window_of_tasks(monkeypatch):
    """The census process draws segments only as it reduces them, and
    closing the sweep kills and reaps its workers."""
    drawn = [0]
    segment_tasks = census._segment_tasks

    def counted(*args):
        for task in segment_tasks(*args):
            drawn[0] += 1
            yield task

    monkeypatch.setattr(census, "_segment_tasks", counted)
    monkeypatch.setattr(census, "DEFAULT_SEGMENT_LEN", 2048)  # about 4,400 segments
    workers = 2
    stream = census_sweep(3000, workers=workers)
    assert next(stream) == (2, 4, 2)
    assert 0 < drawn[0] <= 4 * workers + 1
    stream.close()
    with pytest.raises(ChildProcessError):  # no child of this process is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_sweep_at_1e7_holds_no_pi_table_of_the_base():
    """A sweep at n_max = 1e7 peaks below 8e7 bytes, what an int64 pi of
    every base integer would take alone: pi(x - 1) is a running count."""
    tracemalloc.start()
    try:
        rows = list(census_sweep(10**7, start_x=10**7 - 1, cum_pi_start=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.x for r in rows] == [10**7 - 1, 10**7]
    assert peak < 8 * 10**7, peak


def _running(pid):
    """Whether ``pid`` is alive and not a zombie (exited, not yet reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(), reason="reads child pids from /proc"
)
def test_pool_workers_exit_when_the_census_is_killed(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(census.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "primecensus.cli", "census", "--max-x", "40000", "--workers", "3"]
    parent = subprocess.Popen(
        [*argv, "--out", str(tmp_path / "rows.csv")], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    children = []
    try:
        listing = Path(f"/proc/{parent.pid}/task/{parent.pid}/children")
        deadline = time.monotonic() + 60
        while len(children) < 2:
            assert parent.poll() is None, "the census ended before two workers were seen"
            assert time.monotonic() < deadline, "no two workers within 60 s"
            with contextlib.suppress(OSError):
                children = [int(pid) for pid in listing.read_text().split()]
            time.sleep(0.005)
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 3
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, children)), "a pool worker outlived its parent by 3 s"
    finally:
        for pid in filter(_running, children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        parent.kill()
        parent.wait()


# (workers, whom, signal) for the kill matrix.  A 20,000-x census sieves to
# 4e8 in about 0.4 s on a 2-core Xeon: its first checkpoint lands at about
# 0.2 s, so each signal comes mid-run.
_KILL_CASES = [
    (2, "parent", signal.SIGINT),
    (2, "parent", signal.SIGTERM),
    (2, "parent", signal.SIGKILL),
    (2, "worker", signal.SIGKILL),
    (1, "parent", signal.SIGTERM),
]
_KILL_MAX_X = 20_000


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc to list a process's children")
def test_kill_matrix_leaves_no_worker_and_a_resumable_census(tmp_path):
    reference = tmp_path / "reference.csv"
    run_census(_KILL_MAX_X, reference)
    env = {**os.environ, "PYTHONPATH": str(Path(census.__file__).resolve().parents[1])}
    delays = np.random.default_rng(23).uniform(0, 0.08, len(_KILL_CASES)).tolist()
    for i, ((workers, whom, signum), delay) in enumerate(zip(_KILL_CASES, delays)):
        case = f"{whom} {signal.Signals(signum).name} with {workers} workers"
        out, ck = tmp_path / f"{i}.csv", tmp_path / f"{i}.ck"
        argv = [sys.executable, "-m", "primecensus.cli", "census", "--out", str(out), "--checkpoint", str(ck)]
        parent = subprocess.Popen([*argv, "--max-x", str(_KILL_MAX_X), "--workers", str(workers)],
                                  env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        children = []
        try:
            # The first checkpoint renames <out>.partial to out just after
            # writing ck; wait for both, then a seeded delay.
            deadline = time.monotonic() + 30
            while not out.exists():
                assert parent.poll() is None, f"{case}: the census ended before its first checkpoint"
                assert time.monotonic() < deadline, f"{case}: no checkpoint within 30 s"
                time.sleep(0.002)
            time.sleep(delay)
            listing = Path(f"/proc/{parent.pid}/task/{parent.pid}/children")
            children = [int(pid) for pid in listing.read_text().split()]
            os.kill(children[0] if whom == "worker" else parent.pid, signum)
            assert parent.wait(timeout=30) != 0, f"{case}: the census finished before the signal"
            deadline = time.monotonic() + 2
            while any(map(_running, children)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(_running, children)), f"{case}: a worker outlived its parent by 2 s"

            # The crash rule: out is under its final name, so ck covers its first rows.
            assert not Path(f"{out}.partial").exists(), case
            checkpoint = read_checkpoint(ck)
            rows = out.read_bytes().split(b"\n")[1 : checkpoint.last_completed_x]
            assert len(rows) == checkpoint.last_completed_x - 1, case
            assert hashlib.sha256(b"".join(row + b"\n" for row in rows)).hexdigest() == checkpoint.digest, case

            done = subprocess.run([*argv, "--resume"], env=env, capture_output=True, timeout=60)
            assert done.returncode == 0, f"{case}: {done.stderr.decode(errors='replace')}"
            assert out.read_bytes() == reference.read_bytes(), case
        finally:
            for pid in filter(_running, children):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            parent.kill()
            parent.wait()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc to list a process's children")
def test_a_dead_worker_or_an_interrupt_ends_the_census_with_one_line(tmp_path):
    """The CLI's exit-code contract: a sieve worker killed mid-run exits 2
    with one ``i/o error:`` line, SIGINT exits 130 with one line, and both
    leave a census that resumes byte-identical."""
    reference = tmp_path / "reference.csv"
    run_census(_KILL_MAX_X, reference)
    env = {**os.environ, "PYTHONPATH": str(Path(census.__file__).resolve().parents[1])}
    cases = [("worker", signal.SIGKILL, 2, "i/o error: sieve worker "), ("parent", signal.SIGINT, 130, "interrupted")]
    for i, (whom, signum, code, message) in enumerate(cases):
        out, ck = tmp_path / f"{i}.csv", tmp_path / f"{i}.ck"
        argv = [sys.executable, "-m", "primecensus.cli", "census", "--out", str(out), "--checkpoint", str(ck)]
        parent = subprocess.Popen([*argv, "--max-x", str(_KILL_MAX_X), "--workers", "2"],
                                  env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 30
            while not out.exists():
                assert parent.poll() is None, f"{whom}: the census ended before its first checkpoint"
                assert time.monotonic() < deadline, f"{whom}: no checkpoint within 30 s"
                time.sleep(0.002)
            (worker,) = map(int, Path(f"/proc/{parent.pid}/task/{parent.pid}/children").read_text().split())
            os.kill(worker if whom == "worker" else parent.pid, signum)
            _, err = parent.communicate(timeout=30)
            assert parent.returncode == code, err
            lines = err.decode().splitlines()
            assert len(lines) == 1 and lines[0].startswith(message), lines
            done = subprocess.run([*argv, "--resume"], env=env, capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr
            assert out.read_bytes() == reference.read_bytes(), whom
        finally:
            parent.kill()
            parent.communicate()  # reaps it and closes its stderr pipe


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc to list a process's children")
def test_a_closed_stdout_ends_the_census_normally():
    """A reader that stops early, as ``census | head -1`` does, ends the
    census with exit 0, nothing on stderr and its sieve worker reaped."""
    env = {**os.environ, "PYTHONPATH": str(Path(census.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "primecensus.cli", "census", "--max-x", "20000", "--workers", "2"]
    parent = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    children = []
    try:
        assert parent.stdout.readline() == b"x,x_squared,prime_count\n"
        while not parent.stdout.readline().startswith(b"1000,"):  # rows come after the worker is forked
            pass
        children = [int(pid) for pid in Path(f"/proc/{parent.pid}/task/{parent.pid}/children").read_text().split()]
        parent.stdout.close()  # the census has over 400 KB left to write, more than the pipe holds
        _, err = parent.communicate(timeout=60)
        assert (parent.returncode, err) == (0, b"")
        assert children and not any(map(_running, children))
    finally:
        for pid in filter(_running, children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        parent.kill()
        parent.communicate()


def test_sweep_independent_of_workers():
    baseline = sweep_at(4096, 300)
    for workers in (2, 4, 8):
        assert sweep_at(4096, 300, workers=workers) == baseline


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_refuses_bad_worker_counts(tmp_path, workers):
    with pytest.raises(ValueError, match="workers"):
        census_sweep(50, workers=workers)
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="workers"):
        run_census(50, out, checkpoint_path=tmp_path / "ck", workers=workers)
    assert list(tmp_path.iterdir()) == []


def test_monotonic_and_never_below_x_at_desk_scale(census_10k):
    counts = np.array([r.prime_count for r in census_10k], dtype=np.int64)
    xs = np.array([r.x for r in census_10k], dtype=np.int64)
    decreasing = xs[1:][np.diff(counts) <= 0]
    assert decreasing.size == 0, f"count not strictly increasing at x={decreasing[:5]}"
    below = xs[counts < xs]
    assert below.size == 0, f"count below x at x={below[:5]}"


def test_random_rows_against_counter(census_10k):
    rng = random.Random(20260808)
    for record in rng.sample(census_10k[:4999], 200):
        assert record.prime_count == count_in_range_oracle(record.x)


# ---------------------------------------------------------------------------
# Checkpoints and resume
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "ck"
    checkpoint = SweepCheckpoint(
        n_max=1000,
        last_completed_x=500,
        cumulative_pi_at_square=22044,
        segment_cursor=250001,
        digest="ab" * 32,
    )
    write_checkpoint(path, checkpoint)
    assert path.read_text(encoding="ascii") == (
        "primecensus-checkpoint-v1\n"
        "n_max=1000\n"
        "last_completed_x=500\n"
        "cumulative_pi_at_square=22044\n"
        "segment_cursor=250001\n"
        f"digest={'ab' * 32}\n"
    )
    assert read_checkpoint(path) == checkpoint
    # Older checkpoints also name the census file; that line is ignored.
    lines = path.read_text(encoding="ascii").splitlines()
    assert not any(line.startswith("census_path=") for line in lines)
    lines.insert(2, "census_path=rows.csv")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert read_checkpoint(path) == checkpoint


def test_checkpoint_rejects_bad_version_and_fields(tmp_path):
    path = tmp_path / "ck"
    path.write_text("something-else-v9\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    path.write_text("primecensus-checkpoint-v1\nn_max=10\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    path.write_bytes("primecensus-checkpoint-v1\nn_max=10é\n".encode("utf-8"))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_interrupt_and_resume_is_byte_identical(tmp_path):
    full = tmp_path / "full.csv"
    split = tmp_path / "split.csv"
    ck = tmp_path / "ck"
    run_census(1000, full)
    written = run_census(1000, split, checkpoint_path=ck, stop_after=500)
    assert written == 499
    resumed = run_census(None, split, checkpoint_path=ck, resume=True)
    assert resumed == 500
    assert full.read_bytes() == split.read_bytes()


def test_resume_to_non_ascii_path_is_byte_identical(tmp_path):
    full = tmp_path / "full.csv"
    split = tmp_path / "résultat.csv"
    ck = tmp_path / "ck"
    run_census(1500, full)
    assert run_census(1500, split, checkpoint_path=ck, stop_after=700) == 699
    assert run_census(None, split, checkpoint_path=ck, resume=True) == 800
    assert full.read_bytes() == split.read_bytes()


def test_resume_drops_rows_newer_than_checkpoint(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(400, out, checkpoint_path=ck, stop_after=200)
    # Simulate a crash after the checkpoint: extra rows the checkpoint never saw.
    with open(out, "ab") as fh:
        fh.write(b"201,40401,999\n202,40804,1000\n")
    run_census(None, out, checkpoint_path=ck, resume=True)
    reference = tmp_path / "ref.csv"
    run_census(400, reference)
    assert out.read_bytes() == reference.read_bytes()


def test_resume_completed_sweep_is_empty(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(100, out, checkpoint_path=ck)
    assert run_census(None, out, checkpoint_path=ck, resume=True) == 0


def test_resume_with_tampered_digest_raises(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    lines = ck.read_text().splitlines()
    lines = [("digest=" + "0" * 64) if l.startswith("digest=") else l for l in lines]
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointIntegrityError):
        run_census(None, out, checkpoint_path=ck, resume=True)


def test_resume_refuses_a_checkpoint_with_a_wrong_pi(tmp_path, capsys):
    """The digest covers the rows, not the checkpoint's pi: a pi one too
    high is refused with exit 3 and one line, and the file is untouched.
    Trusted, it would make every later row one too high."""
    out, ck = tmp_path / "rows.csv", tmp_path / "ck"
    argv = ["census", "--out", str(out), "--checkpoint", str(ck)]
    assert main([*argv, "--max-x", "5000", "--stop-after", "2000"]) == 0
    text = ck.read_text()
    assert "cumulative_pi_at_square=283146\n" in text
    ck.write_text(text.replace("cumulative_pi_at_square=283146\n", "cumulative_pi_at_square=283147\n"))
    rows = out.read_bytes()
    capsys.readouterr()
    assert main([*argv, "--resume"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("integrity error:") and "283147" in lines[0], lines
    assert out.read_bytes() == rows


def test_resume_with_edited_rows_raises(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    content = out.read_text().replace("10,100,21", "10,100,22")
    out.write_text(content)
    with pytest.raises(CheckpointIntegrityError):
        run_census(None, out, checkpoint_path=ck, resume=True)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda lines: lines[:-2], id="two-rows-short"),
    pytest.param(lambda lines: lines[1:], id="header-missing"),
    pytest.param(lambda lines: [b"x,x2,count\n", *lines[1:]], id="header-wrong"),
    pytest.param(lambda lines: [line.replace(b"\n", b"\r\n") for line in lines], id="crlf-line-ends"),
])
def test_resume_refuses_a_damaged_census(tmp_path, damage):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    damaged = b"".join(damage(out.read_bytes().splitlines(keepends=True)))
    out.write_bytes(damaged)
    with pytest.raises(CheckpointIntegrityError):
        run_census(None, out, checkpoint_path=ck, resume=True)
    assert out.read_bytes() == damaged


def test_resume_missing_files(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    with pytest.raises(FileNotFoundError):
        run_census(None, out, checkpoint_path=tmp_path / "absent-ck", resume=True)
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    out.unlink()
    with pytest.raises(FileNotFoundError):
        run_census(None, out, checkpoint_path=ck, resume=True)


def test_resume_stream_matches_direct_sweep(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(1000, out, checkpoint_path=ck, stop_after=500)
    checkpoint = read_checkpoint(ck)
    start_x, cum_pi = checkpoint.last_completed_x + 1, checkpoint.cumulative_pi_at_square
    tail = list(census_sweep(checkpoint.n_max, start_x=start_x, cum_pi_start=cum_pi))
    assert [r.x for r in tail] == list(range(501, 1001))
    assert tail == list(census_sweep(1000))[499:]


def test_checkpoint_digest_covers_rows_exactly(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(250, out, checkpoint_path=ck, stop_after=250)
    checkpoint = read_checkpoint(ck)
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == checkpoint.digest
    assert checkpoint.segment_cursor == 250**2 + 1


def test_run_census_write_failure_marks_partial(tmp_path, monkeypatch):
    import os as os_mod

    real_fsync = os_mod.fsync
    calls = {"n": 0}

    def flaky(fd):
        calls["n"] += 1  # the census, then the checkpoint at x = 1000
        if calls["n"] >= 2:
            raise OSError("simulated disk failure")
        return real_fsync(fd)

    monkeypatch.setattr(os_mod, "fsync", flaky)
    out = tmp_path / "rows.csv"
    with pytest.raises(OSError):
        run_census(3000, out, checkpoint_path=tmp_path / "ck")
    assert not out.exists()
    assert (tmp_path / "rows.csv.partial").exists()
    assert not (tmp_path / "ck").exists()
    assert not (tmp_path / "ck.tmp").exists()


def test_resume_after_write_failure_completes(tmp_path, monkeypatch):
    """An I/O error after a checkpoint leaves the census under its final
    name, covered by that checkpoint, so the run resumes from it."""
    real_fsync = os.fsync
    calls = [0]

    def fail_after_second_checkpoint(fd):
        calls[0] += 1  # the census, then the checkpoint, at x = 1000 and 2000
        if calls[0] > 4:
            raise OSError("simulated disk failure")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fail_after_second_checkpoint)
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    with pytest.raises(OSError):
        run_census(3000, out, checkpoint_path=ck)
    assert read_checkpoint(ck).last_completed_x == 2000
    monkeypatch.setattr(os, "fsync", real_fsync)
    assert run_census(None, out, checkpoint_path=ck, resume=True) == 1000
    reference = tmp_path / "ref.csv"
    run_census(3000, reference)
    assert out.read_bytes() == reference.read_bytes()


def test_resume_from_the_partial_left_before_the_first_rename(tmp_path, monkeypatch):
    """A run stopped between its first checkpoint and the rename of
    <out>.partial leaves only <out>.partial: --resume validates it, takes
    the final name and completes it byte-identical, and refuses it damaged."""
    real_replace = os.replace

    def crash_on_rename(src, dst):
        if str(src).endswith(".partial"):
            raise OSError("simulated crash before the rename")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_rename)
    out, ck = tmp_path / "rows.csv", tmp_path / "ck"
    with pytest.raises(OSError, match="simulated"):
        run_census(3000, out, checkpoint_path=ck)
    monkeypatch.setattr(os, "replace", real_replace)
    partial = Path(f"{out}.partial")
    assert not out.exists() and read_checkpoint(ck).last_completed_x == 1000
    good = partial.read_bytes()
    partial.write_bytes(good.replace(b"\n500,250000,", b"\n500,250001,"))
    with pytest.raises(CheckpointIntegrityError):
        run_census(None, out, checkpoint_path=ck, resume=True)
    assert not out.exists()
    partial.write_bytes(good)
    assert run_census(None, out, checkpoint_path=ck, resume=True) == 2000
    assert not partial.exists()
    reference = tmp_path / "ref.csv"
    run_census(3000, reference)
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("via", ["run_census", "cli"])
def test_interrupted_run_without_checkpoint_keeps_the_partial_name(tmp_path, monkeypatch, via):
    """Ctrl-C mid-run: the short census never takes the final name."""
    encode = census.encode_census_row

    def interrupt_at_1500(record):
        if record.x == 1500:
            raise KeyboardInterrupt
        return encode(record)

    monkeypatch.setattr(census, "encode_census_row", interrupt_at_1500)
    out = tmp_path / "rows.csv"
    if via == "cli":
        assert main(["census", "--max-x", "3000", "--out", str(out)]) == 130
    else:
        with pytest.raises(KeyboardInterrupt):
            run_census(3000, out)
    assert not out.exists()
    assert (tmp_path / "rows.csv.partial").exists()


def test_failed_run_stops_its_pool(tmp_path, monkeypatch):
    def boom(fd):
        raise OSError("simulated disk failure")

    monkeypatch.setattr(os, "fsync", boom)
    with pytest.raises(OSError) as failure:
        run_census(3000, tmp_path / "rows.csv", checkpoint_path=tmp_path / "ck", workers=2)
    # ``failure`` still holds the traceback, and with it run_census's frame.
    with pytest.raises(ChildProcessError):  # no child of this process is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
