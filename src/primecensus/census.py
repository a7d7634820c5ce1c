"""Checkpointed, parallel segmented-sieve census of primes in [x, x**2].

One cumulative pass over 2..n_max**2 records pi at every square boundary;
subtracting pi(x-1) from a base sieve turns that into the per-x range
count.  Segments may be sieved concurrently, but results are always
reduced in ascending order, so the emitted stream does not depend on the
worker count or the segment length.

The segment kernel is a pure function of (lo, hi, basis) and holds only
odd values, one slot each.  It marks composites in four steps:

- Pre-sieved start: the segment starts as a copy of a pattern, built on
  first use, in which the odd multiples of 3..17 are already cleared.  It
  repeats every 3*5*7*11*13*17 = 255,255 slots and is read from slot
  ((lo - 1) // 2) mod 255,255; the six primes themselves are set back
  when they lie in the segment.  The copy has one extra sink slot past
  the segment's end, which absorbs the scatter's spare indices and is
  never returned.
- First hits: one int64 numpy pass over the rest of the basis gives
  every prime's first odd multiple in [max(lo, p*p), hi), as a slot index.
- Small primes, from 19 to below T = slots // 64 (16,384 at the default
  2**21 segment), get one strided store each from that first hit.
- Large primes hit the segment about 64 times at most.  They are marked
  one octave [P, 2P) at a time by one scatter whose indices are an outer
  product: row k holds every prime's k-th hit, for k below
  ceil(slots / P), and an index past the segment is clamped to the sink.
  The hit-major order matters: the stores of one row climb through the
  segment about in order, so they miss the cache less than the same
  indices taken prime by prime, each prime sweeping the whole segment
  again.  This is the numpy form of a bucket sieve.
  Pattern and buckets are the standard devices of segmented sieves
  (T. Oliveira e Silva, 2001; K. Walisch, primesieve).

T follows the segment length and the pattern offset follows lo, so no
state carries across segments and the output stays independent of how
the range is cut.  Segments are DEFAULT_SEGMENT_LEN = 2**21 numbers, a
1 MB mask, half of a 2 MB per-core L2, where a strided store costs a
quarter to a half less than on a 2 MB mask.  A pool sweep keeps an
in-order window of at most 4 * workers submitted segments and submits
one more as each result is drawn.

``write_census_file`` is the one writer of census files.  Its crash rule:
a census under its final name is complete, or a checkpoint on disk covers
it.  A fresh file stays ``<out>.partial`` until its first checkpoint is on
disk or it is complete; a resume appends in place, covered by its checkpoint.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
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

DEFAULT_SEGMENT_LEN = 1 << 21  # numbers per segment; half that many odd slots
CHECKPOINT_EVERY = 1000  # x values between the checkpoints of a census file
# Largest base sieve (flags plus int64 prefix, 9 bytes per integer) to
# attempt: n_max up to about 2.98e7, where the paper needs 449,999.
BASE_SIEVE_MAX_BYTES = 1 << 28
# Every segment starts with the odd multiples of these primes cleared, from
# a pattern whose period in odd slots is their product.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13, 17)
_PRESIEVE_PERIOD = prod(_PRESIEVE_PRIMES)

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

    Raises RangeTooLargeError, before allocating anything, when the flags
    plus the int64 prefix count built from them would exceed
    BASE_SIEVE_MAX_BYTES.
    """
    if 9 * (n + 1) > BASE_SIEVE_MAX_BYTES:
        raise RangeTooLargeError(
            f"a base sieve to {n} needs {9 * (n + 1)} bytes, over the {BASE_SIEVE_MAX_BYTES}-byte budget"
        )
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _odd_sieve_basis(flags: np.ndarray):
    """Odd primes flagged in ``flags`` and their squares, as int64 arrays."""
    primes = np.flatnonzero(flags)[1:].astype(np.int64)  # drop 2; odd multiples only in segments
    return primes, primes * primes


@functools.cache
def _presieve_pattern() -> np.ndarray:
    """Two periods of odd slots, slot k for the value 2k + 1, with every odd
    multiple of a _PRESIEVE_PRIMES prime cleared (the primes too).  Built on
    the first sieved segment, so processes that never sieve skip it."""
    pattern = np.ones(2 * _PRESIEVE_PERIOD, dtype=bool)
    for q in _PRESIEVE_PRIMES:
        pattern[(q - 1) // 2 :: q] = False  # strided stores: no int64 index array
    return pattern


def _sieve_odd_segment(lo: int, hi: int, primes: np.ndarray, prime_squares: np.ndarray) -> np.ndarray:
    """Primality mask for the odd values lo, lo+2, ..., < hi (lo odd).

    Slot j holds lo + 2j, and the odd multiples of an odd prime p are p
    slots apart.  The mask starts as a copy of the pre-sieve pattern from
    slot (lo - 1) // 2 on, so the primes up to 17 are done.  The other
    primes below T = slots // 64 are marked with one strided store each.
    The rest are marked one octave [P, 2P) at a time: an outer product
    gives ceil(slots / P) rows of hits, row k holding each prime's k-th
    hit, and every hit at or past the end is clamped to a sink slot that
    the returned mask leaves out.
    """
    slots = (hi - lo) // 2
    offset = ((lo - 1) // 2) % _PRESIEVE_PERIOD
    # A copy with one slot more than the segment: mask[slots] is the sink.
    mask = np.resize(_presieve_pattern()[offset : offset + _PRESIEVE_PERIOD], slots + 1)
    for q in _PRESIEVE_PRIMES:
        if lo <= q < hi:  # only in a segment that starts below 19
            mask[(q - lo) // 2] = True
    skip = int(np.searchsorted(primes, _PRESIEVE_PRIMES[-1], side="right"))
    cut = int(np.searchsorted(prime_squares, hi))  # primes with p*p < hi
    primes = primes[skip:cut]
    # lo + r is the first multiple of p >= lo; adding p makes it odd if it is not.
    r = (-lo) % primes
    r += (r & 1) * primes
    first = np.maximum(r >> 1, (prime_squares[skip:cut] - lo) >> 1)

    a = int(np.searchsorted(primes, slots // 64))
    for p, j in zip(primes[:a].tolist(), first[:a].tolist()):
        mask[j::p] = False
    while a < len(primes):
        low = int(primes[a])
        z = int(np.searchsorted(primes, 2 * low))
        # No prime in [low, 2 * low) hits the segment more than ceil(slots / low) times.
        ix = np.multiply.outer(np.arange(-(-slots // low)), primes[a:z])
        ix += first[a:z]  # in place: a second array per octave was measurably slower
        np.minimum(ix, slots, out=ix)
        mask[ix.ravel()] = False
        a = z
    return mask[:slots]


def _segment_counts(lo, hi, squares, primes, prime_squares):
    """Sieve one segment; report its total odd-prime count and, for every
    square boundary b inside it, the count of odd primes in [lo, b]."""
    mask = _sieve_odd_segment(lo, hi, primes, prime_squares)
    boundary_counts = []
    prev_off = 0
    running = 0
    for x, b in squares:
        off = (b - lo) // 2 + 1
        running += int(np.count_nonzero(mask[prev_off:off]))
        prev_off = off
        boundary_counts.append((x, running))
    total = running + int(np.count_nonzero(mask[prev_off:]))
    return total, boundary_counts


_WORKER_BASIS = None


def _init_segment_worker(n_max):
    global _WORKER_BASIS
    _WORKER_BASIS = _odd_sieve_basis(sieve_flags(n_max))


def _segment_job(task):
    lo, hi, squares = task
    return _segment_counts(lo, hi, squares, *_WORKER_BASIS)


def _in_order(pool, tasks, window):
    """_segment_job's results for ``tasks`` in order, at most ``window`` submitted ahead."""
    pending = [pool.submit(_segment_job, task) for task in islice(tasks, window)]
    while pending:
        done = pending.pop(0)
        pending.extend(pool.submit(_segment_job, task) for task in islice(tasks, 1))
        yield done.result()


def _segment_tasks(cursor: int, limit: int, start_x: int, n_max: int):
    """Yield (lo, hi, [(x, x*x) boundaries]) covering odd values cursor..limit."""
    lo = cursor if cursor % 2 == 1 else cursor + 1
    x = start_x
    while lo <= limit:
        hi = min(lo + DEFAULT_SEGMENT_LEN, limit + 1)
        if hi % 2 == 0:
            hi += 1  # keep segment bounds odd-aligned
        squares = []
        while x <= n_max and x * x < hi:
            squares.append((x, x * x))
            x += 1
        yield lo, hi, squares
        lo = hi


def count_in_range(x: int) -> int:
    """Exact number of primes p with x <= p <= x*x (both ends inclusive)."""
    if x < 1:
        raise ValueError("x must be positive")
    if x > MAX_SQUARE_BASE:
        raise RangeTooLargeError(f"x={x}: x**2 exceeds the 64-bit guard")
    if x == 1:
        return 0  # [1, 1] holds no primes
    primes, prime_squares = _odd_sieve_basis(sieve_flags(x))
    limit = x * x
    count = 1 if x == 2 else 0  # the prime 2 is in range only for x <= 2
    lo = max(x, 3)
    if lo % 2 == 0:
        lo += 1
    for seg_lo, seg_hi, _ in _segment_tasks(lo, limit, x, 1):
        count += int(np.count_nonzero(_sieve_odd_segment(seg_lo, seg_hi, primes, prime_squares)))
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
    pi_below = np.cumsum(flags, dtype=np.int64)  # pi_below[v] = pi(v)
    limit = n_max * n_max
    cursor = 3 if start_x == 2 else (start_x - 1) ** 2 + 1
    cum_odd = 0 if start_x == 2 else int(cum_pi_start) - 1  # strip the prime 2
    tasks = _segment_tasks(cursor, limit, start_x, n_max)

    pool = None
    try:
        if workers == 1:
            basis = _odd_sieve_basis(flags)
            results = (_segment_counts(lo, hi, sq, *basis) for lo, hi, sq in tasks)
        else:
            # Imported here: it loads multiprocessing, logging and queue, which
            # a one-worker run never needs.  Each worker builds its own basis.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_segment_worker,
                initargs=(n_max,),
            )
            results = _in_order(pool, tasks, 4 * workers)
        for total, boundary_counts in results:
            for x, upto_square in boundary_counts:
                pi_x2 = 1 + cum_odd + upto_square
                yield CensusRecord(x, x * x, pi_x2 - int(pi_below[x - 1])), pi_x2
            cum_odd += total
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
