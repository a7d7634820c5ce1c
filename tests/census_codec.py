"""A compact codec for a census CSV, so the full census fits in the tests.

A census's counts rise smoothly with x, so their second differences are
small: from x = 2 to 449,999 they lie in -896..739.  The file holds, before
bz2 compression, three little-endian int64 (the first x, its count and the
first difference of the counts), then the second differences as
little-endian int16.  Decoding takes two ``cumsum``s.

Make the file from a finished census:

    PYTHONPATH=src python tests/census_codec.py census.csv tests/data/census_449999.i16.bz2
"""

import bz2
import sys

import numpy as np

from primecensus import read_census

_HEAD = np.dtype("<i8")
_DIFF = np.dtype("<i2")


def encode_counts(first_x: int, counts: np.ndarray) -> bytes:
    """bz2 bytes for the census rows first_x, first_x + 1, ... with these counts."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size < 2:
        raise ValueError("the codec needs at least two rows")
    d1 = np.diff(counts)
    d2 = np.diff(d1)
    if d2.size and (d2.min() < -(2**15) or d2.max() >= 2**15):
        raise ValueError("a second difference does not fit in int16")
    head = np.array([first_x, counts[0], d1[0]], dtype=_HEAD)
    return bz2.compress(head.tobytes() + d2.astype(_DIFF).tobytes(), 9)


def decode_counts(data: bytes) -> tuple[int, np.ndarray]:
    """(first_x, counts) back from ``encode_counts``'s bytes."""
    raw = bz2.decompress(data)
    first_x, c0, d1_0 = np.frombuffer(raw[: 3 * _HEAD.itemsize], dtype=_HEAD).tolist()
    d2 = np.frombuffer(raw[3 * _HEAD.itemsize :], dtype=_DIFF)
    d1 = np.concatenate(([d1_0], np.cumsum(d2, dtype=np.int64) + d1_0))
    counts = np.concatenate(([c0], np.cumsum(d1) + c0))
    return first_x, counts


def main(argv) -> int:
    census, out = argv
    rows = read_census(census)
    data = encode_counts(int(rows[0].x), rows.prime_count)
    with open(out, "wb") as f:
        f.write(data)
    print(f"wrote {len(data)} bytes for {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
