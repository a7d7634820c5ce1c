import hashlib
import multiprocessing
import os
import random
from math import isqrt

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
    baseline = list(census_sweep(200))
    for segment_len in (1024, 4096, 65536):
        assert sweep_at(segment_len, 200) == baseline
    # At 2**14 the scatter threshold (slots // 64 = 128) is far below the
    # largest base prime (2999); the default length strides every prime.
    baseline = list(census_sweep(3000))
    for segment_len in (2048, 1 << 14):
        assert sweep_at(segment_len, 3000) == baseline


def test_segment_kernel_matches_base_sieve_on_short_segments():
    """Short segments put the scatter threshold at 8..64, so most of the
    basis (primes up to 1999, some with no hit at all) is scattered."""
    limit = 2_000_000
    flags = sieve_flags(limit)
    basis = census._odd_sieve_basis(sieve_flags(2000))
    rng = random.Random(20261018)
    for i in range(300):
        segment_len = 2 * rng.randrange(512, 4097)
        lo = 3 if i == 0 else rng.randrange(3, limit - segment_len) | 1
        hi = lo + segment_len
        mask = census._sieve_odd_segment(lo, hi, *basis)
        assert np.array_equal(mask, flags[lo:hi:2]), (lo, hi)


def assert_full_basis_segment_matches_oracle(lo, length):
    """One segment sieved with the full-scale basis has as many primes as
    the oracle counts in [lo, lo + length)."""
    basis = census._odd_sieve_basis(sieve_flags(449_999))
    hi = lo + length
    assert isqrt(hi) < 449_999
    mask = census._sieve_odd_segment(lo, hi, *basis)
    assert int(np.count_nonzero(mask)) == prime_pi(hi - 1) - prime_pi(lo - 1)


def test_segment_kernel_default_length_at_1e10():
    """One full-length segment with the full-scale basis, against the oracle."""
    assert_full_basis_segment_matches_oracle(10**10 + 1, DEFAULT_SEGMENT_LEN)


PRESIEVE_PERIOD = 3 * 5 * 7 * 11 * 13 * 17  # odd slots; twice as many integers
KERNEL_LIMIT = 8 * PRESIEVE_PERIOD  # four periods of integers


@pytest.fixture(scope="module")
def kernel_flags():
    """Base-sieve flags to KERNEL_LIMIT and the basis that covers it."""
    return sieve_flags(KERNEL_LIMIT), census._odd_sieve_basis(sieve_flags(isqrt(KERNEL_LIMIT)))


@pytest.mark.parametrize("lo", range(3, 22, 2))
def test_segment_kernel_at_every_small_start(kernel_flags, lo):
    """Each pre-sieved prime 3..17 is the first slot of one of these segments,
    and must be left marked prime."""
    flags, basis = kernel_flags
    for length in (2, 6, 34, 1000, 2 * PRESIEVE_PERIOD + 10):
        mask = census._sieve_odd_segment(lo, lo + length, *basis)
        assert np.array_equal(mask, flags[lo : lo + length : 2]), (lo, length)


def test_segment_kernel_on_lengths_off_the_period(kernel_flags):
    """Segments shorter than the pattern's period and lengths that are not
    a multiple of it, from starts at, just before and just after a period."""
    flags, basis = kernel_flags
    starts = [2 * PRESIEVE_PERIOD * k + d for k in (1, 2) for d in (-1, 1, 3)]
    for lo in starts:
        for length in (2, 20, 2 * PRESIEVE_PERIOD - 2, 2 * PRESIEVE_PERIOD + 2, 3 * PRESIEVE_PERIOD + 1):
            mask = census._sieve_odd_segment(lo, lo + length, *basis)
            assert np.array_equal(mask, flags[lo : lo + length : 2]), (lo, length)


def test_segment_kernel_across_a_period_wrap(kernel_flags):
    """Seeded segments that start within 1,000 slots of a period's end and
    run past it, some past the next one too."""
    flags, basis = kernel_flags
    rng = random.Random(9)
    for _ in range(40):
        period_end = 2 * PRESIEVE_PERIOD * rng.randrange(1, 3)
        lo = period_end - 2 * rng.randrange(1, 1000) + 1
        length = 2 * rng.randrange(1000, 2 * PRESIEVE_PERIOD)
        mask = census._sieve_odd_segment(lo, lo + length, *basis)
        assert np.array_equal(mask, flags[lo : lo + length : 2]), (lo, length)


def test_segment_kernel_default_length_near_full_scale():
    """One default-length segment at the top of the paper's census, against the oracle."""
    assert_full_basis_segment_matches_oracle(190_000_000_001, DEFAULT_SEGMENT_LEN)


def test_segment_kernel_2_22_length_near_full_scale():
    """One 2**22 segment, twice the default, at the top of the paper's
    census: T = slots // 64 is 32,768 there, so primes the default length
    scatters get strided stores."""
    assert_full_basis_segment_matches_oracle(190_000_000_001, 1 << 22)


def test_segment_kernel_copies_its_pattern(kernel_flags):
    """Sieving never writes through to the module's pre-sieve pattern."""
    _, basis = kernel_flags
    before = census._presieve_pattern().copy()
    for lo in (3, 5, 17, 2 * PRESIEVE_PERIOD + 1, 10**6 + 1):
        for length in (1000, 2 * PRESIEVE_PERIOD + 100):
            census._sieve_odd_segment(lo, lo + length, *basis)
    assert np.array_equal(census._presieve_pattern(), before)


def assert_kernel_matches(flags, basis, lo, length):
    """The kernel's mask for [lo, lo + length) has one entry per odd value,
    none for the sink slot, and agrees with the base sieve."""
    mask = census._sieve_odd_segment(lo, lo + length, *basis)
    assert mask.shape == (length // 2,), (lo, length)
    assert np.array_equal(mask, flags[lo : lo + length : 2]), (lo, length)


@pytest.mark.parametrize("q", [19, 23, 37, 101, 127])
@pytest.mark.parametrize("times", [1, 2])
def test_segment_kernel_with_threshold_on_a_prime(kernel_flags, q, times):
    """slots // 64 is exactly q, so q is the first banded prime and its
    octave ends at 2q, or exactly 2q, the end of that octave."""
    flags, basis = kernel_flags
    rng = random.Random(q * times)
    for extra in (0, 1, 31, 63):
        slots = 64 * times * q + extra
        for lo in [3, 2 * q + 1] + [rng.randrange(3, KERNEL_LIMIT - 2 * slots) | 1 for _ in range(8)]:
            assert_kernel_matches(flags, basis, lo, 2 * slots)


def test_segment_kernel_below_64_slots_bands_every_prime(kernel_flags):
    """With fewer than 64 slots the threshold is 0: every basis prime above
    17 is marked by the octave scatter, most with a single hit or none."""
    flags, basis = kernel_flags
    rng = random.Random(64)
    for slots in (1, 2, 18, 19, 32, 50, 63):
        for lo in [3, 19, 37] + [rng.randrange(3, KERNEL_LIMIT - 2 * slots) | 1 for _ in range(20)]:
            assert_kernel_matches(flags, basis, lo, 2 * slots)


def test_segment_kernel_with_primes_beyond_the_segment(kernel_flags):
    """Basis primes up to 1,427 against segments of 20..700 slots: the first
    hit of most of them falls at or past the segment's end, the sink slot."""
    flags, basis = kernel_flags
    assert basis[0][-1] > 700
    rng = random.Random(1427)
    for _ in range(200):
        slots = rng.randrange(20, 701)
        lo = rng.randrange(KERNEL_LIMIT // 2, KERNEL_LIMIT - 2 * slots) | 1
        assert_kernel_matches(flags, basis, lo, 2 * slots)


@settings(max_examples=300, deadline=None)
@given(start=st.integers(1, KERNEL_LIMIT // 2 - 1), slots=st.integers(1, 40_000))
def test_segment_kernel_property(kernel_flags, start, slots):
    """Any odd lo and any length agree with the base sieve."""
    flags, basis = kernel_flags
    lo = 2 * start + 1
    slots = min(slots, (KERNEL_LIMIT + 1 - lo) // 2)
    assert_kernel_matches(flags, basis, lo, 2 * slots)


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
    the oracle's pi((A-1)**2), reads the same at four segment lengths, one
    of them not a power of two, and its last row matches the counter."""
    a = random.Random(449).randrange(448_000, 449_995)
    b = a + 4
    cum_pi = prime_pi((a - 1) ** 2)
    sweeps = [
        sweep_at(segment_len, b, start_x=a, cum_pi_start=cum_pi)
        for segment_len in (1 << 20, 1 << 21, 1 << 22, 3 * (1 << 20) + 2)
    ]
    assert [r.x for r in sweeps[0]] == list(range(a, b + 1))
    assert all(rows == sweeps[0] for rows in sweeps[1:])
    assert sweeps[0][-1].prime_count == count_in_range_oracle(b)


def test_pool_draws_a_bounded_window_of_tasks(monkeypatch):
    """The pool sweep submits at most 4 * workers segments ahead of the one
    it reduces, and closing the sweep stops its workers."""
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
    assert multiprocessing.active_children() == []


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
    with pytest.raises(KeyboardInterrupt):
        if via == "cli":
            main(["census", "--max-x", "3000", "--out", str(out)])
        else:
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
    assert multiprocessing.active_children() == []
