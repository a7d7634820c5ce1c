import hashlib
import multiprocessing
import os
import random
from math import isqrt

import numpy as np
import pytest

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
    resume_sweep,
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


def test_sweep_independent_of_segment_len():
    baseline = list(census_sweep(200))
    for segment_len in (1024, 4096, 65536):
        assert list(census_sweep(200, segment_len=segment_len)) == baseline
    # At 2**14 the scatter threshold (slots // 32 = 256) is far below the
    # largest base prime (2999); the default length strides every prime.
    baseline = list(census_sweep(3000))
    for segment_len in (2048, 1 << 14):
        assert list(census_sweep(3000, segment_len=segment_len)) == baseline


def test_segment_kernel_matches_base_sieve_on_short_segments():
    """Short segments put the scatter threshold at 16..128, so most of the
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


def test_segment_kernel_default_length_at_1e10():
    """One full-length segment with the full-scale basis, against the oracle."""
    basis = census._odd_sieve_basis(sieve_flags(449_999))
    lo = 10**10 + 1
    hi = lo + DEFAULT_SEGMENT_LEN
    assert isqrt(hi) < 449_999
    mask = census._sieve_odd_segment(lo, hi, *basis)
    assert int(np.count_nonzero(mask)) == prime_pi(hi - 1) - prime_pi(lo - 1)


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


def test_sweep_independent_of_workers():
    baseline = list(census_sweep(300, segment_len=4096))
    for workers in (2, 4, 8):
        assert list(census_sweep(300, workers=workers, segment_len=4096)) == baseline


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
        census_path="rows.csv",
    )
    write_checkpoint(path, checkpoint)
    assert read_checkpoint(path) == checkpoint


def test_checkpoint_rejects_bad_version_and_fields(tmp_path):
    path = tmp_path / "ck"
    path.write_text("something-else-v9\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    path.write_text("primecensus-checkpoint-v1\nn_max=10\n")
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
    assert list(resume_sweep(ck)) == []


def test_resume_with_tampered_digest_raises(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    lines = ck.read_text().splitlines()
    lines = [("digest=" + "0" * 64) if l.startswith("digest=") else l for l in lines]
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointIntegrityError):
        run_census(None, out, checkpoint_path=ck, resume=True)
    with pytest.raises(CheckpointIntegrityError):
        resume_sweep(ck)


def test_resume_with_edited_rows_raises(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    content = out.read_text().replace("10,100,21", "10,100,22")
    out.write_text(content)
    with pytest.raises(CheckpointIntegrityError):
        run_census(None, out, checkpoint_path=ck, resume=True)


def test_resume_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        resume_sweep(tmp_path / "absent-ck")
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(300, out, checkpoint_path=ck, stop_after=100)
    out.unlink()
    with pytest.raises(FileNotFoundError):
        resume_sweep(ck)


def test_resume_stream_matches_direct_sweep(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "ck"
    run_census(1000, out, checkpoint_path=ck, stop_after=500)
    tail = list(resume_sweep(ck))
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
        calls["n"] += 1
        if calls["n"] >= 2:
            raise OSError("simulated disk failure")
        return real_fsync(fd)

    monkeypatch.setattr(os_mod, "fsync", flaky)
    out = tmp_path / "rows.csv"
    with pytest.raises(OSError):
        run_census(3000, out, checkpoint_path=tmp_path / "ck")
    assert not out.exists()
    assert (tmp_path / "rows.csv.partial").exists()


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
        run_census(3000, out, checkpoint_path=ck, checkpoint_every=1000)
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
        run_census(3000, tmp_path / "rows.csv", checkpoint_path=tmp_path / "ck", checkpoint_every=1000, workers=2)
    # ``failure`` still holds the traceback, and with it run_census's frame.
    assert multiprocessing.active_children() == []
