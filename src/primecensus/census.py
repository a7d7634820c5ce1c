"""Checkpointed, parallel segmented-sieve census of primes in [x, x**2].

One cumulative pass over 2..n_max**2 records pi at every square boundary;
subtracting pi(x-1) turns that into the per-x range count.  pi(x-1) is a
running count of the base sieve's flags: each segment's rows take one
cumsum over their own x range, on top of the total carried from the rows
before, so no pi table of the whole base is ever held.  Segments may be
sieved concurrently, but results are always reduced in ascending order,
so the emitted stream does not depend on the worker count or the segment
length.

The segment kernel is a pure function of (lo, rows, basis).  It sieves
on a mod-30 wheel: lo is a multiple of 30, and a segment holds only the
values coprime to 30, in eight classes of ``rows`` slots, where slot j
of class r holds lo + 30j + r for r in 1, 7, 11, 13, 17, 19, 23, 29.  So
8 of every 30 integers take a slot, where an odd-only sieve spends 15,
and no store of a prime from 19 up lands on a multiple of 3 or 5.  2, 3
and 5 are never stored; the sweep counts them apart.  The classes are
sieved one at a time, class-major, in one reused buffer of about rows
bytes, and each is marked in four steps:

- Pre-sieved start: the class starts as a copy of its row of a pattern,
  built on first use, in which the multiples of 7, 11, 13 and 17 are
  already cleared.  It repeats every 7*11*13*17 = 17,017 rows and is read
  from row (lo // 30) mod 17,017.  In the first segment, lo = 0, slot 0
  is set back: 1 to composite, 7..17 to prime.  Past the rows the buffer
  has a sink slot, which absorbs the scatter's spare indices, and pads
  to a multiple of 8 bytes; all of that stays False.
- First hits: the first multiple of p in class r is at row
  j = -(lo + r) / 30 (mod p).  The basis holds gap / 30 (mod p) for each
  gap between successive residues, as int32, from 30's inverse
  (k*p + 1) / 30, with k from a 30-entry table on p mod 30.  One int64
  pass per segment gives the row for r = 0; each class steps down from
  the one before by its gap, with a conditional add and no division.  A
  prime with p*p > lo starts at p*p.
- Small primes, from 19 to below T = rows // 64 (17,476 at the default
  segment), get one strided store each from that first hit.
- Large primes hit a class about 64 times at most.  They are marked a
  group at a time, the primes of one octave [P, 2P) cut into groups of
  at most 32,768 hit indices, by one scatter whose indices are an outer
  product: row k holds every prime's k-th hit, for k below
  ceil(rows / P), and an index past the class is clamped to the sink.
  The hit-major order matters: the stores of one row climb through the
  class about in order, so they miss the cache less than the same
  indices taken prime by prime, each prime sweeping the whole class
  again.  This is the numpy form of a bucket sieve.
  Wheel, pattern and buckets are the standard devices of segmented
  sieves (T. Oliveira e Silva, 2001; K. Walisch, primesieve).

Each class's counts at the segment's square boundaries come from one
vectorised pass: the buffer read as 64-bit words, 8 slots each, their
popcounts summed between boundaries by ``np.add.reduceat``.

Segments start at the multiple of 30 at or below the sweep's cursor and
are DEFAULT_SEGMENT_LEN = 2**25 numbers, rounded down to a multiple of
30: 1,118,481 rows, a 1.1 MB class buffer beside a 256 KB workspace of
hit indices, within a 2 MB per-core L2.  The last segment is clipped to end
at the first multiple of 30 past the limit, and the counts mask the
values below the cursor and above the limit.  T follows the segment
length and the pattern offset follows lo, so no state carries across
segments and the output stays independent of how the range is cut.  A
pool sweep keeps an in-order window of at most 4 * workers submitted
segments and submits one more as each result is drawn.  The parent builds
the basis once and hands it to every worker: under fork the workers share
its pages, under spawn it is pickled.  A worker ends itself once its
parent is gone, so a killed census leaves no worker behind.

``write_census_file`` is the one writer of census files.  Its crash rule:
a census under its final name is complete, or a checkpoint on disk covers
it.  A fresh file stays ``<out>.partial`` until its first checkpoint is on
disk or it is complete; a resume appends in place, covered by its checkpoint.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from dataclasses import asdict, dataclass, fields
from itertools import islice
from math import isqrt, prod
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import (
    CheckpointError,
    CheckpointIntegrityError,
    DomainError,
    RangeTooLargeError,
)
from .pi_oracle import MAX_SQUARE_BASE

DEFAULT_SEGMENT_LEN = 1 << 25  # numbers per segment, rounded down to a multiple of 30
CHECKPOINT_EVERY = 1000  # x values between the checkpoints of a census file
# Budget of the base sieve, counted at 9 bytes per integer: n_max up to
# about 2.98e7, where the paper needs 449,999.  The sweep holds 1 byte per
# integer and 24 per prime from 19 up (the basis); the 9 bytes are those of
# the int64 pi prefix it once held, kept so the largest n_max does not move.
BASE_SIEVE_MAX_BYTES = 1 << 28
# The wheel: a segment stores only the values coprime to 30, one class of
# rows per residue, so no multiple of 2, 3 or 5 takes a slot.
_WHEEL = 30
_RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)
_GAPS = tuple(r - q for q, r in zip((0,) + _RESIDUES, _RESIDUES))  # 1, 6, 4, 2, 4, 2, 4, 6
# The inverse of 30 modulo a prime p is (k * p + 1) / 30, with
# k = _INV30_K[p % 30] the k in 0..29 for which k * p = -1 (mod 30).
_INV30_K = np.array(
    [next((k for k in range(_WHEEL) if (k * r + 1) % _WHEEL == 0), 0) for r in range(_WHEEL)], dtype=np.int64)
# _LOW_BYTES[k] keeps the first k bytes of a little-endian 64-bit word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)
# Every class starts with the multiples of these primes cleared, from a
# pattern whose period in rows is their product.
_PRESIEVE_PRIMES = (7, 11, 13, 17)
_PRESIEVE_ROWS = prod(_PRESIEVE_PRIMES)
# Hit indices one scatter call takes at most: a 256 KB int64 workspace.
_SCATTER_HITS = 1 << 15

CENSUS_HEADER = "x,x_squared,prime_count"
CHECKPOINT_VERSION = "primecensus-checkpoint-v1"


class CensusRecord(NamedTuple):
    x: int
    x_squared: int
    prime_count: int


# A census held in memory: one int64 record array with CensusRecord's fields.
CENSUS_DTYPE = np.dtype([(name, np.int64) for name in CensusRecord._fields])


def census_table(records) -> np.recarray:
    """Census rows as one int64 record array: an array of CENSUS_DTYPE is
    viewed as is, any other iterable of (x, x_squared, prime_count) rows
    is converted."""
    if not isinstance(records, np.ndarray):
        records = np.fromiter(records, dtype=CENSUS_DTYPE)
    return records.view(np.recarray)


@dataclass
class SweepCheckpoint:
    """Resumable state of a census sweep.

    ``digest`` is the SHA-256 over the CSV row bytes emitted so far;
    ``segment_cursor`` is the first integer not yet sieved, which for a
    checkpoint taken after x is always x**2 + 1.
    """

    n_max: int
    last_completed_x: int
    cumulative_pi_at_square: int
    segment_cursor: int
    digest: str


def encode_census_row(record) -> bytes:
    x, x_squared, prime_count = record
    return f"{x},{x_squared},{prime_count}\n".encode("ascii")


def sieve_flags(n: int) -> np.ndarray:
    """Primality flags for 0..n (plain Eratosthenes, used as the base sieve).

    Raises RangeTooLargeError, before allocating anything, when 9 bytes
    per integer of 0..n would exceed BASE_SIEVE_MAX_BYTES.
    """
    if 9 * (n + 1) > BASE_SIEVE_MAX_BYTES:
        raise RangeTooLargeError(
            f"a base sieve to {n} is over the {BASE_SIEVE_MAX_BYTES}-byte budget at 9 bytes per integer"
        )
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _wheel_basis(flags: np.ndarray):
    """The primes from 19 up flagged in ``flags``, as int64, and a dict that
    maps each gap of _GAPS to gap / 30 modulo each prime, as int32."""
    primes = np.flatnonzero(flags[19:]).astype(np.int64) + 19
    inv30 = (_INV30_K[primes % _WHEEL] * primes + 1) // _WHEEL
    return primes, {gap: (gap * inv30 % primes).astype(np.int32) for gap in set(_GAPS)}


@functools.cache
def _presieve_pattern() -> np.ndarray:
    """Two periods of rows for each residue class: pattern[i, j] is False
    when 30j + _RESIDUES[i] is a multiple of a _PRESIEVE_PRIMES prime.  Built
    on the first sieved segment, so processes that never sieve skip it."""
    pattern = np.ones((len(_RESIDUES), 2 * _PRESIEVE_ROWS), dtype=bool)
    for row, r in zip(pattern, _RESIDUES):
        for q in _PRESIEVE_PRIMES:
            row[-r * pow(_WHEEL, -1, q) % q :: q] = False  # strided stores: no int64 index array
    return pattern


def _wheel_masks(lo: int, rows: int, basis) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (r, buffer) for each residue r of _RESIDUES in turn, where
    buffer[j] tells whether lo + 30j + r is prime, for j < rows (lo a
    multiple of 30), sieved in the steps the module docstring lists.

    All classes are sieved in one buffer, refilled for the next, so a
    caller that keeps a mask copies it.  The buffer's length is the
    multiple of 8 just past rows, and every byte from buffer[rows], the
    sink, on is False.
    """
    primes, steps = basis
    cut = int(np.searchsorted(primes, isqrt(lo + _WHEEL * rows - 1), side="right"))  # p*p < hi
    primes = primes[:cut]
    steps = {gap: step[:cut] for gap, step in steps.items()}
    late = int(np.searchsorted(primes, isqrt(lo), side="right"))  # p*p > lo from here: start at p*p
    p_late = primes[late:]
    sq_late = p_late * p_late
    # hit walks the classes: for residue r it holds the row j of the first
    # multiple of p, lo + 30j + r = 0 (mod p), one step of gap / 30 (mod p)
    # down from the residue before.  It starts at r = 0.
    hit = (-lo) % primes * steps[1] % primes
    first = np.empty_like(hit)
    small = int(np.searchsorted(primes, rows // 64))
    # (a, z, k): primes[a:z] lie in one octave [P, 2P), so none hits a class
    # more than k = ceil(rows / P) times, and their k * (z - a) hit indices
    # fit in _SCATTER_HITS.
    groups = []
    a = small
    while a < cut:
        k = -(-rows // int(primes[a]))
        z = min(int(np.searchsorted(primes, 2 * primes[a])), a + max(1, _SCATTER_HITS // k))
        groups.append((a, z, k))
        a = z
    hits = np.empty(max((k * (z - a) for a, z, k in groups), default=0), dtype=np.int64)
    offset = lo // _WHEEL % _PRESIEVE_ROWS
    whole = rows - rows % _PRESIEVE_ROWS
    mask = np.zeros(rows + 8 - rows % 8, dtype=bool)  # only False is ever stored past the rows
    for pattern, r, gap in zip(_presieve_pattern(), _RESIDUES, _GAPS):
        period = pattern[offset : offset + _PRESIEVE_ROWS]
        mask[:whole].reshape(-1, _PRESIEVE_ROWS)[:] = period
        mask[whole:rows] = period[: rows - whole]
        if lo == 0:
            mask[0] = r > 1  # 1 is not prime; 7..29 are, and 7..17 were cleared
        hit -= steps[gap]  # no division: add p back where it went negative, first as workspace
        np.right_shift(hit, 63, out=first)
        first &= primes
        hit += first
        np.copyto(first, hit)
        if late < cut:
            low_row = (sq_late - lo - r + _WHEEL - 1) // _WHEEL  # the first row >= p*p
            first[late:] = low_row + (first[late:] - low_row) % p_late
        for p, j in zip(primes[:small].tolist(), first[:small].tolist()):
            mask[j::p] = False
        for a, z, k in groups:
            # Row i of ix holds the i-th hit of every prime of the group.
            ix = hits[: k * (z - a)].reshape(k, z - a)
            np.multiply.outer(np.arange(k), primes[a:z], out=ix)
            ix += first[a:z]
            np.minimum(ix, rows, out=ix)
            mask[ix.ravel()] = False
        yield r, mask


def _prefix_counts(buffer: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The number of True in buffer[:s] for each s of the ascending
    ``stops``, all below len(buffer), a multiple of 8.  Each 64-bit word
    holds 8 rows, one byte each, so its popcount is its count of True."""
    words = buffer.view("<u8")
    spans = np.concatenate(([0], stops >> 3))
    whole = np.add.reduceat(np.bitwise_count(words), spans, dtype=np.int64)[:-1]
    whole[spans[1:] == spans[:-1]] = 0  # reduceat sums one word, not none, over an empty span
    return np.cumsum(whole) + np.bitwise_count(words[spans[1:]] & _LOW_BYTES[stops & 7])


def _segment_counts(lo, rows, ends, basis) -> np.ndarray:
    """Sieve one segment; for each value e of the ascending ``ends``, count
    the primes of the segment's wheel rows that are at most e."""
    ends = np.asarray(ends, dtype=np.int64)
    counts = np.zeros(len(ends), dtype=np.int64)
    for r, mask in _wheel_masks(lo, rows, basis):
        stops = np.clip((ends - lo - r) // _WHEEL + 1, 0, rows)  # rows j < stop hold values <= e
        counts += _prefix_counts(mask, stops)
    return counts


_WORKER_BASIS = None


def _init_segment_worker(basis):
    """Keep the parent's basis, and end this worker once the parent is gone."""
    global _WORKER_BASIS
    _WORKER_BASIS = basis
    parent = os.getppid()

    def watch_parent():
        while os.getppid() == parent:  # an orphan is re-parented, so its ppid changes
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch_parent, daemon=True).start()


def _segment_job(task):
    return _segment_counts(*task, _WORKER_BASIS)


def _in_order(pool, tasks, window):
    """_segment_job's results for ``tasks`` in order, at most ``window`` submitted ahead."""
    pending = [pool.submit(_segment_job, task) for task in islice(tasks, window)]
    while pending:
        done = pending.pop(0)
        pending.extend(pool.submit(_segment_job, task) for task in islice(tasks, 1))
        yield done.result()


def _segment_tasks(cursor: int, limit: int, start_x: int, n_max: int):
    """Yield (lo, rows, ends) segments covering the values cursor..limit.

    lo is a multiple of 30 and a segment holds 30 * rows values, the last
    one clipped to end at the first multiple of 30 past ``limit``.  ``ends``
    is [cursor - 1, every square x*x inside the segment for x = start_x..
    n_max, limit], so the counts at ends[0] and ends[-1] mask the values
    below the cursor and above the limit.
    """
    rows = max(1, DEFAULT_SEGMENT_LEN // _WHEEL)
    lo = cursor - cursor % _WHEEL
    x = start_x
    while lo <= limit:
        n = min(rows, (limit - lo) // _WHEEL + 1)
        hi = lo + _WHEEL * n
        ends = [cursor - 1]
        while x <= n_max and x * x < hi:
            ends.append(x * x)
            x += 1
        ends.append(limit)
        yield lo, n, ends
        lo = hi


def _pi_below_7(v: int) -> int:
    """pi(v) for v < 7; for larger v, the count of 2, 3 and 5, which no wheel row holds."""
    return (v >= 2) + (v >= 3) + (v >= 5)


def count_in_range(x: int) -> int:
    """Exact number of primes p with x <= p <= x*x (both ends inclusive)."""
    if x < 1:
        raise ValueError("x must be positive")
    if x > MAX_SQUARE_BASE:
        raise RangeTooLargeError(f"x={x}: x**2 exceeds the 64-bit guard")
    basis = _wheel_basis(sieve_flags(x))
    count = _pi_below_7(x * x) - _pi_below_7(x - 1)
    for lo, rows, ends in _segment_tasks(x, x * x, 1, 0):  # no square boundaries
        below_x, upto_square = _segment_counts(lo, rows, ends, basis)
        count += int(upto_square - below_x)
    return count


def census_sweep(
    n_max: int,
    *,
    workers: int = 1,
    start_x: int = 2,
    cum_pi_start: Optional[int] = None,
) -> Iterator[CensusRecord]:
    """Yield CensusRecord for x = start_x..n_max in ascending order.

    ``start_x > 2`` resumes a sweep mid-way and requires ``cum_pi_start``,
    the value of pi((start_x - 1)**2).  Output is independent of both
    ``workers`` and DEFAULT_SEGMENT_LEN.  The arguments are checked and the
    base sieve is built when this is called, before the first record is
    drawn, so a refused range fails before a caller opens its output.
    Closing the returned generator drops the sweep, which stops its pool.
    """
    return (record for record, _ in _sweep_pairs(n_max, workers, start_x, cum_pi_start))


def _sweep_pairs(n_max, workers, start_x, cum_pi_start) -> Iterator[tuple[CensusRecord, int]]:
    """census_sweep's records, each paired with pi(x**2) for checkpoints."""
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    if n_max > MAX_SQUARE_BASE:
        raise RangeTooLargeError(f"n_max={n_max}: n_max**2 exceeds the 64-bit guard")
    if start_x < 2:
        raise ValueError("start_x must be >= 2")
    if start_x > 2 and cum_pi_start is None:
        raise ValueError("resuming mid-sweep requires cum_pi_start = pi((start_x-1)**2)")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _sweep(n_max, sieve_flags(n_max), workers, start_x, cum_pi_start)


def _sweep(n_max, flags, workers, start_x, cum_pi_start):
    cursor = (start_x - 1) ** 2 + 1
    # Primes of the wheel rows below the cursor: all of pi(cursor - 1) but 2, 3 and 5.
    wheel = (0 if start_x == 2 else int(cum_pi_start)) - _pi_below_7(cursor - 1)
    pi_before = int(np.count_nonzero(flags[: start_x - 1]))  # pi(next_x - 2), carried row to row
    tasks = _segment_tasks(cursor, n_max * n_max, start_x, n_max)
    next_x = start_x
    basis = _wheel_basis(flags)

    pool = None
    try:
        if workers == 1:
            results = (_segment_counts(*task, basis) for task in tasks)
        else:
            # Imported here: it loads multiprocessing, logging and queue, which
            # a one-worker run never needs.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_segment_worker,
                initargs=(basis,),
            )
            results = _in_order(pool, tasks, 4 * workers)
        for counts in results:
            counts = counts[1:] - counts[0]  # from the cursor up to each square, then to the limit
            xs = np.arange(next_x, next_x + len(counts) - 1)
            pis = wheel + counts[:-1] + 3 - (xs == 2)  # 2, 3 and 5 lie below every square but 4
            before = pi_before + np.cumsum(flags[next_x - 1 : next_x - 1 + len(xs)], dtype=np.int64)  # pi(x - 1)
            for x, pi_x2, pi_x1 in zip(xs.tolist(), pis.tolist(), before.tolist()):
                yield CensusRecord(x, x * x, pi_x2 - pi_x1), pi_x2
            next_x += len(xs)
            if len(xs):
                pi_before = int(before[-1])
            wheel += int(counts[-1])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def write_checkpoint(path, checkpoint: SweepCheckpoint) -> None:
    """Atomically persist a checkpoint (tmp file + rename); a failed write
    removes the tmp file."""
    lines = [CHECKPOINT_VERSION, *(f"{name}={value}" for name, value in asdict(checkpoint).items())]
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_checkpoint(path) -> SweepCheckpoint:
    try:
        with open(path, "r", encoding="ascii") as fh:
            content = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if not content or content[0] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_VERSION} file")
    found = {}
    for line in content[1:]:
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"{path}: malformed line {line!r}")
        found[key] = value
    try:  # every field but the digest is an int; unknown keys are ignored
        checkpoint = SweepCheckpoint(**{
            f.name: found[f.name] if f.name == "digest" else int(found[f.name]) for f in fields(SweepCheckpoint)})
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if len(checkpoint.digest) != 64 or any(c not in "0123456789abcdef" for c in checkpoint.digest):
        raise CheckpointError(f"{path}: digest is not a sha256 hex string")
    expected_cursor = checkpoint.last_completed_x**2 + 1
    if checkpoint.segment_cursor != expected_cursor:
        raise CheckpointError(
            f"{path}: segment_cursor={checkpoint.segment_cursor} does not match "
            f"last_completed_x={checkpoint.last_completed_x}"
        )
    return checkpoint


def _validated_resume(checkpoint_path, path):
    """Read a checkpoint and check the census rows in ``path`` against its digest.

    Returns (checkpoint, (hasher, keep_offset)): the SHA-256 state over
    rows x=2..last_completed_x, and the byte offset just past the last of
    them.  One pass, with memory in proportion to the file: it is read
    whole and the covered rows are hashed in one call, so the digest fails
    on any edited, missing or reordered row.  Raises
    CheckpointIntegrityError on a wrong header, too few rows or a mismatch.
    """
    import hashlib  # here, not at the top: it maps OpenSSL, which only the census writer needs

    checkpoint = read_checkpoint(checkpoint_path)
    data = Path(path).read_bytes()
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))  # ends[0] closes the header
    if not len(ends) or data[: ends[0]].rstrip(b"\r") != CENSUS_HEADER.encode("ascii"):
        raise CheckpointIntegrityError(f"{path}: census header missing or wrong")
    rows = checkpoint.last_completed_x - 1  # x = 2..last_completed_x
    if len(ends) <= rows:
        raise CheckpointIntegrityError(f"{path}: {len(ends) - 1} complete rows, the checkpoint covers {rows}")
    keep_offset = int(ends[rows]) + 1
    hasher = hashlib.sha256(memoryview(data)[ends[0] + 1 : keep_offset])
    if hasher.hexdigest() != checkpoint.digest:
        raise CheckpointIntegrityError(f"{path}: rows do not match the checkpoint digest; refusing to resume")
    return checkpoint, (hasher, keep_offset)


# ---------------------------------------------------------------------------
# Census files: the one writer (CSV rows + periodic checkpoints)
# ---------------------------------------------------------------------------


def write_census_file(
    rows,
    path,
    *,
    n_max: Optional[int] = None,
    checkpoint_path=None,
    stop_after: Optional[int] = None,
    resume_from=None,
) -> int:
    """Write census rows to ``path`` under the crash rule (module docstring).

    ``rows`` yields (CensusRecord, pi(x**2)) pairs and is closed on every
    way out; returns the number of rows written.  ``resume_from`` is the
    (hasher, keep_offset) of a validated checkpoint: the file is cut back
    to the rows it covers and extended.  With ``checkpoint_path``, a
    checkpoint is written every CHECKPOINT_EVERY x, at ``n_max`` and at
    ``stop_after``, the x after which the file ends early.
    """
    import hashlib  # here, not at the top: see _validated_resume

    path = Path(path)
    hasher, keep_offset = resume_from or (hashlib.sha256(), None)
    target = path if resume_from else Path(f"{path}.partial")
    written = 0
    with contextlib.closing(rows), open(target, "ab" if resume_from else "wb") as fh:
        if resume_from:
            fh.truncate(keep_offset)  # drop rows newer than the checkpoint
        else:
            fh.write((CENSUS_HEADER + "\n").encode("ascii"))
        for record, pi_square in rows:
            line = encode_census_row(record)
            fh.write(line)
            hasher.update(line)
            written += 1
            stopping = stop_after is not None and record.x >= stop_after
            if checkpoint_path is not None and (record.x % CHECKPOINT_EVERY == 0 or record.x == n_max or stopping):
                fh.flush()
                os.fsync(fh.fileno())
                write_checkpoint(checkpoint_path, SweepCheckpoint(
                    n_max=n_max, last_completed_x=record.x, cumulative_pi_at_square=pi_square,
                    segment_cursor=record.x**2 + 1, digest=hasher.hexdigest()))
                os.replace(target, path)  # the checkpoint covers it now; a no-op once renamed
                target = path
            if stopping:
                break
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(target, path)
    return written


def run_census(
    n_max: Optional[int],
    out_path,
    *,
    checkpoint_path=None,
    workers: int = 1,
    resume: bool = False,
    stop_after: Optional[int] = None,
) -> int:
    """Sweep to n_max, writing census CSV rows and periodic checkpoints.

    Returns the number of rows written by this invocation.  With
    ``resume=True`` the existing file is digest-validated, trimmed back to
    the checkpointed row, and extended; the concatenation is byte-identical
    to an uninterrupted run.  ``stop_after`` completes the given x, writes
    a checkpoint, and returns early (a clean interruption).  The file is
    written by ``write_census_file``, under its crash rule.
    """
    start_x, cum_pi_start, resume_from = 2, None, None
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requires a checkpoint path")
        checkpoint, resume_from = _validated_resume(checkpoint_path, out_path)
        if n_max is not None and n_max != checkpoint.n_max:
            raise CheckpointError(f"checkpoint is for n_max={checkpoint.n_max}, not n_max={n_max}")
        n_max = checkpoint.n_max
        start_x = checkpoint.last_completed_x + 1
        cum_pi_start = checkpoint.cumulative_pi_at_square
    elif n_max is None:
        raise ValueError("n_max is required for a fresh sweep")

    rows = _sweep_pairs(n_max, workers, start_x, cum_pi_start)
    return write_census_file(rows, out_path, n_max=n_max, checkpoint_path=checkpoint_path,
                             stop_after=stop_after, resume_from=resume_from)
