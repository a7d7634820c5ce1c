"""Checkpointed, parallel segmented-sieve census of primes in [x, x**2].

One cumulative pass over 2..n_max**2 records pi at every square boundary;
subtracting pi(x-1) from a base sieve turns that into the per-x range
count.  Segments may be sieved concurrently, but results are always
reduced in ascending order, so the emitted stream does not depend on the
worker count or the segment length.

The segment kernel is a pure function of (lo, hi, basis) and holds only
odd values, one slot each.  It marks composites in three steps:

- First hits: one int64 numpy pass over the basis gives every prime's
  first odd multiple in [max(lo, p*p), hi), as a slot index.
- Small primes, below T = slots // 32 (65,536 at the default 2**22
  segment), get one strided store each from that first hit.
- Large primes hit the segment about 32 times at most.  They are marked
  4,096 primes at a time by one scatter whose indices are a cumulative
  sum over np.repeat'ed strides: the numpy form of a bucket sieve
  (T. Oliveira e Silva, 2001; K. Walisch, primesieve).

T follows the segment length, so no offsets carry across segments and
the output stays independent of how the range is cut.

``write_census_file`` is the one writer of census files.  Its crash rule:
a census under its final name is complete, or a checkpoint on disk covers
it.  A fresh file stays ``<out>.partial`` until its first checkpoint is on
disk or it is complete; a resume appends in place, covered by its checkpoint.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt
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

DEFAULT_SEGMENT_LEN = 1 << 22  # numbers per segment; half that many odd slots
DEFAULT_CHECKPOINT_EVERY = 1000
# Largest base sieve (flags plus int64 prefix, 9 bytes per integer) to
# attempt: n_max up to about 2.98e7, where the paper needs 449,999.
BASE_SIEVE_MAX_BYTES = 1 << 28
# Large primes are scattered this many at a time, so the index arrays of
# one batch stay near a megabyte.
_SCATTER_CHUNK = 4096

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
    census_path: str = ""


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


def _sieve_odd_segment(lo: int, hi: int, primes: np.ndarray, prime_squares: np.ndarray) -> np.ndarray:
    """Primality mask for the odd values lo, lo+2, ..., < hi (lo odd).

    Slot j holds lo + 2j, and the odd multiples of an odd prime p are p
    slots apart.  Primes below T = slots // 32 are marked with one strided
    store each; the rest hit the segment about 32 times at most and are marked
    by an index scatter, _SCATTER_CHUNK primes at a time.
    """
    slots = (hi - lo) // 2
    mask = np.ones(slots, dtype=bool)
    cut = int(np.searchsorted(prime_squares, hi))  # primes with p*p < hi
    primes = primes[:cut]
    # lo + r is the first multiple of p >= lo; adding p makes it odd if it is not.
    r = (-lo) % primes
    r += (r & 1) * primes
    first = np.maximum(r >> 1, (prime_squares[:cut] - lo) >> 1)

    split = int(np.searchsorted(primes, slots // 32))
    for p, j in zip(primes[:split].tolist(), first[:split].tolist()):
        mask[j::p] = False
    for c in range(split, cut, _SCATTER_CHUNK):
        p = primes[c : c + _SCATTER_CHUNK]
        j = first[c : c + _SCATTER_CHUNK]
        hits = (slots - j + p - 1) // p
        live = hits > 0
        p, j, hits = p[live], j[live], hits[live]
        if not hits.size:
            continue
        # Running sum over the steps yields every hit: p within a prime's
        # run, and at each run start the jump from the previous run's last hit.
        steps = np.repeat(p, hits)
        starts = np.cumsum(hits[:-1])
        steps[0] = j[0]
        steps[starts] = j[1:] - j[:-1] - (hits[:-1] - 1) * p[:-1]
        mask[np.cumsum(steps)] = False
    return mask


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


def _segment_tasks(cursor: int, limit: int, segment_len: int, start_x: int, n_max: int):
    """Yield (lo, hi, [(x, x*x) boundaries]) covering odd values cursor..limit."""
    lo = cursor if cursor % 2 == 1 else cursor + 1
    x = start_x
    while lo <= limit:
        hi = min(lo + segment_len, limit + 1)
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
    for seg_lo, seg_hi, _ in _segment_tasks(lo, limit, DEFAULT_SEGMENT_LEN, x, 1):
        count += int(np.count_nonzero(_sieve_odd_segment(seg_lo, seg_hi, primes, prime_squares)))
    return count


def census_sweep(
    n_max: int,
    *,
    workers: int = 1,
    segment_len: int = DEFAULT_SEGMENT_LEN,
    start_x: int = 2,
    cum_pi_start: Optional[int] = None,
) -> Iterator[CensusRecord]:
    """Yield CensusRecord for x = start_x..n_max in ascending order.

    ``start_x > 2`` resumes a sweep mid-way and requires ``cum_pi_start``,
    the value of pi((start_x - 1)**2).  Output is independent of both
    ``workers`` and ``segment_len``.  The arguments are checked and the
    base sieve is built when this is called, before the first record is
    drawn, so a refused range fails before a caller opens its output.
    Closing the returned generator drops the sweep, which stops its pool.
    """
    return (record for record, _ in _sweep_pairs(n_max, workers, segment_len, start_x, cum_pi_start))


def _sweep_pairs(n_max, workers, segment_len, start_x, cum_pi_start) -> Iterator[tuple[CensusRecord, int]]:
    """census_sweep's records, each paired with pi(x**2) for checkpoints."""
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    if n_max > MAX_SQUARE_BASE:
        raise RangeTooLargeError(f"n_max={n_max}: n_max**2 exceeds the 64-bit guard")
    if start_x < 2:
        raise ValueError("start_x must be >= 2")
    if start_x > 2 and cum_pi_start is None:
        raise ValueError("resuming mid-sweep requires cum_pi_start = pi((start_x-1)**2)")
    segment_len = max(1024, int(segment_len))
    if segment_len % 2:
        segment_len += 1
    return _sweep(n_max, sieve_flags(n_max), max(1, int(workers)), segment_len, start_x, cum_pi_start)


def _sweep(n_max, flags, workers, segment_len, start_x, cum_pi_start):
    pi_below = np.cumsum(flags, dtype=np.int64)  # pi_below[v] = pi(v)
    primes, prime_squares = _odd_sieve_basis(flags)

    limit = n_max * n_max
    cursor = 3 if start_x == 2 else (start_x - 1) ** 2 + 1
    cum_odd = 0 if start_x == 2 else int(cum_pi_start) - 1  # strip the prime 2
    tasks = _segment_tasks(cursor, limit, segment_len, start_x, n_max)

    pool = None
    try:
        if workers == 1:
            results = (_segment_counts(lo, hi, sq, primes, prime_squares) for lo, hi, sq in tasks)
        else:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_segment_worker,
                initargs=(n_max,),
            )
            results = pool.map(_segment_job, tasks)
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

_CHECKPOINT_INT_FIELDS = ("n_max", "last_completed_x", "cumulative_pi_at_square", "segment_cursor")


def write_checkpoint(path, checkpoint: SweepCheckpoint) -> None:
    """Atomically persist a checkpoint (tmp file + rename)."""
    lines = [CHECKPOINT_VERSION]
    lines.append(f"n_max={checkpoint.n_max}")
    lines.append(f"census_path={checkpoint.census_path}")
    lines.append(f"last_completed_x={checkpoint.last_completed_x}")
    lines.append(f"cumulative_pi_at_square={checkpoint.cumulative_pi_at_square}")
    lines.append(f"segment_cursor={checkpoint.segment_cursor}")
    lines.append(f"digest={checkpoint.digest}")
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path) -> SweepCheckpoint:
    with open(path, "r", encoding="ascii") as fh:
        content = fh.read().splitlines()
    if not content or content[0] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_VERSION} file")
    fields = {}
    for line in content[1:]:
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"{path}: malformed line {line!r}")
        fields[key] = value
    try:
        ints = {name: int(fields[name]) for name in _CHECKPOINT_INT_FIELDS}
        digest = fields["digest"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise CheckpointError(f"{path}: digest is not a sha256 hex string")
    checkpoint = SweepCheckpoint(digest=digest, census_path=fields.get("census_path", ""), **ints)
    expected_cursor = checkpoint.last_completed_x**2 + 1
    if checkpoint.segment_cursor != expected_cursor:
        raise CheckpointError(
            f"{path}: segment_cursor={checkpoint.segment_cursor} does not match "
            f"last_completed_x={checkpoint.last_completed_x}"
        )
    return checkpoint


def _validated_resume(checkpoint_path, census_path=None):
    """Read a checkpoint and check the census rows it covers against its digest.

    The rows are read from ``census_path``, or from the file recorded in
    the checkpoint.  Returns (checkpoint, (hasher, keep_offset)): the
    SHA-256 state over rows x=2..last_completed_x, and the byte offset
    just past the last of them.  Raises CheckpointIntegrityError when rows
    are missing, out of place or do not match the digest.
    """
    checkpoint = read_checkpoint(checkpoint_path)
    path = census_path or checkpoint.census_path
    if not path:
        raise CheckpointError(f"{checkpoint_path}: no census file recorded; pass census_path to validate the digest")
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        header = fh.readline()
        if header.rstrip(b"\r\n").decode("ascii", "replace") != CENSUS_HEADER:
            raise CheckpointIntegrityError(f"{path}: census header missing or wrong")
        for x in range(2, checkpoint.last_completed_x + 1):
            line = fh.readline()
            if not line.startswith(f"{x},".encode("ascii")):
                raise CheckpointIntegrityError(f"{path}: row for x={x} missing or out of order")
            hasher.update(line)
        keep_offset = fh.tell()
    if hasher.hexdigest() != checkpoint.digest:
        raise CheckpointIntegrityError(f"{path}: rows do not match the checkpoint digest; refusing to resume")
    return checkpoint, (hasher, keep_offset)


def resume_sweep(
    checkpoint_path,
    census_path=None,
    *,
    workers: int = 1,
    segment_len: int = DEFAULT_SEGMENT_LEN,
) -> Iterator[CensusRecord]:
    """Continue a checkpointed sweep, yielding the records after last_completed_x.

    The digest is validated against the census file recorded in the
    checkpoint (or ``census_path`` when given) before any work starts.
    A completed sweep yields nothing.
    """
    checkpoint, _ = _validated_resume(checkpoint_path, census_path)
    return census_sweep(
        checkpoint.n_max,
        workers=workers,
        segment_len=segment_len,
        start_x=checkpoint.last_completed_x + 1,
        cum_pi_start=checkpoint.cumulative_pi_at_square,
    )


# ---------------------------------------------------------------------------
# Census files: the one writer (CSV rows + periodic checkpoints)
# ---------------------------------------------------------------------------


def write_census_file(
    rows,
    path,
    *,
    n_max: Optional[int] = None,
    checkpoint_path=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    stop_after: Optional[int] = None,
    resume_from=None,
) -> int:
    """Write census rows to ``path`` under the crash rule (module docstring).

    ``rows`` yields (CensusRecord, pi(x**2)) pairs and is closed on every
    way out; returns the number of rows written.  ``resume_from`` is the
    (hasher, keep_offset) of a validated checkpoint: the file is cut back
    to the rows it covers and extended.  With ``checkpoint_path``, a
    checkpoint is written every ``checkpoint_every`` x, at ``n_max`` and at
    ``stop_after``, the x after which the file ends early.
    """
    path = Path(path)
    hasher, keep_offset = resume_from or (hashlib.sha256(), None)
    target = path if resume_from else Path(f"{path}.partial")
    checkpoint_every = max(1, int(checkpoint_every))
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
            if checkpoint_path is not None and (record.x % checkpoint_every == 0 or record.x == n_max or stopping):
                fh.flush()
                os.fsync(fh.fileno())
                write_checkpoint(checkpoint_path, SweepCheckpoint(
                    n_max=n_max, last_completed_x=record.x, cumulative_pi_at_square=pi_square,
                    segment_cursor=record.x**2 + 1, digest=hasher.hexdigest(), census_path=str(path)))
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
    segment_len: int = DEFAULT_SEGMENT_LEN,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
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

    rows = _sweep_pairs(n_max, workers, segment_len, start_x, cum_pi_start)
    return write_census_file(rows, out_path, n_max=n_max, checkpoint_path=checkpoint_path,
                             checkpoint_every=checkpoint_every, stop_after=stop_after, resume_from=resume_from)
