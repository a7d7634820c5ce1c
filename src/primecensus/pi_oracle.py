"""Exact combinatorial prime counting, independent of the sieve engine.

``prime_pi`` evaluates pi(n) in O(n^(3/4)) time and O(sqrt(n)) memory by
running a Legendre-style elimination over the distinct values of n // k
(``_legendre_sweep``).  It exists to cross-check the census engine: the
two never share sieve code.  Its domain is n < 2**62: above that the run
would need tens of GB and about 1e14 updates, so it is refused up front.

The table takes 20 bytes per key k <= sqrt(n): the int64 key n // k, the
int64 large half (the counts at those keys) and the int32 small half (the
counts at keys v <= sqrt(n), each at most sqrt(n) < 2**31).  Reads from
the small half are gathered into an int32 work buffer and subtracted
from, or summed into, the int64 large half.  At n = 1e14 the three tables
take 200 MB.

The sweep takes the primes p <= sqrt(n) in two phases; each prime updates
every key v >= p*p from the table as the smaller primes left it.

1. p <= n^(1/3), about 760 primes at 2e11.  Each is found on the small
   half: it is exact below p*p, since no prime from p on changes a key
   there.  Each updates the large half with one strided read of itself
   and one gather from the small half.  The first of them, p <= n^(1/4)
   (about 120 at 2e11), also update the small half's keys v >= p*p; once
   they are done the small half is exact.
2. p > n^(1/3), about 36,000 primes: let p0 be the smallest of them, so
   p0**3 > n.  Each writes only entries large[k-1] with
   k <= n // p**2 <= n // p0**2 < p0, and reads only the exact small half
   and large entries at index k*p - 1 >= p0 - 1.  No prime of this phase
   reads an entry another one writes, so their updates commute: the
   (key, prime) pairs for k = 1 .. n // p0**2 (about 5,800 keys and 3.4
   million pairs at 2e11) go in blocks of keys by primes, each key's terms
   summed over all its primes at once, and the pi(p - 1) terms sum as an
   arithmetic series.

Both phases work through three buffers of ``_CHUNK`` entries (two int64
and one int32), made once per sweep and refilled a chunk at a time, and
allocate no sqrt(n)-long temporary per prime.  Temporaries that large are
mapped afresh by malloc and unmapped when freed, so one per prime costs
about 98,000 minor page faults per call at n = 440,121**2, more time than
the arithmetic; with the buffers a call takes about 3,000.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import RangeTooLargeError

# Largest x whose square fits in a signed 64-bit integer (3,037,000,499).
MAX_SQUARE_BASE = isqrt(2**63 - 1)
# Entries in each of the sweep's three work buffers: at most 512 KiB
# apiece, so all fit in a 2 MiB L2 cache.
_CHUNK = 2**16


def _check_width(n: int) -> None:
    # n < 2**62 keeps isqrt(n) < 2**31, so the small half fits in int32.
    if n >= 2**62:
        raise RangeTooLargeError(f"n={n}: the oracle counts only n < 2**62")


def _legendre_sweep(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate composites from the quotient table of n; returns (small, large).

    The table holds one count per distinct quotient n // k.  ``small[v]``
    is the count for key v (1 <= v <= isqrt(n)); ``large[k-1]`` is the
    count for key n // k (1 <= k <= isqrt(n)).  After the sweep every
    entry equals pi(key).

    Starts every key v at v - 1 (all integers in 2..v) and, for each prime
    p <= sqrt(n) in turn, removes the numbers whose least prime factor is p:
    S(v) -= S(v // p) - pi(p - 1), for every key v >= p*p, in the two
    phases of the module docstring.

    Beside the three tables (keys, small, large), the sweep holds only
    three work buffers of min(isqrt(n), _CHUNK) entries.  Each update
    runs a chunk at a time through them (``out=`` arguments), in an order
    that reads every entry before it is overwritten, so the results equal
    those of whole-array updates bit for bit.
    """
    r = isqrt(n)
    keys = np.arange(1, r + 1, dtype=np.int64)
    np.floor_divide(n, keys, out=keys)
    large = keys - 1
    small = np.arange(-1, r, dtype=np.int32)
    chunk = min(r, _CHUNK)
    idx = np.empty(chunk, dtype=np.int64)
    buf = np.empty(chunk, dtype=np.int64)
    gathered = np.empty(chunk, dtype=np.int32)  # reads of the small half

    def sieve_large(p: int, sp: int) -> None:
        # Keys n // k >= p*p, i.e. k <= n // p**2.  For k <= r // p the key
        # n // (k*p) is a large key; otherwise it is small, n // k // p.
        # Going up a chunk at a time keeps the one-shot semantics: the read
        # for large[k-1] is at k*p - 1 >= 2k - 1, past every entry written.
        kmax = min(r, n // (p * p))
        a = min(kmax, r // p)
        for lo in range(0, a, chunk):
            hi = min(lo + chunk, a)
            out = buf[: hi - lo]
            np.subtract(large[(lo + 1) * p - 1 : hi * p : p], sp, out=out)
            large[lo:hi] -= out
        for lo in range(a, kmax, chunk):
            hi = min(lo + chunk, kmax)
            i, out = idx[: hi - lo], gathered[: hi - lo]
            np.floor_divide(keys[lo:hi], p, out=i)
            # Every index n // (k*p) lies in [p, r], so "clip" clips nothing;
            # with out=, "raise" would make numpy buffer the output.
            small.take(i, out=out, mode="clip")
            out -= sp
            large[lo:hi] -= out

    def subtract_pair_sums(jlo, jhi, table, to_index, gather) -> None:
        # large[k-1] -= sum of table[to_index(k*p)] over p in ps[jlo:jhi],
        # with jlo and jhi indexed by k - 1.  Both fall as k rises, so rows
        # a..b-1 lie inside the block of columns jlo[b-1] .. jhi[a] - 1; each
        # block of at most chunk cells is one product, one gather into
        # ``gather`` (a work buffer of table's dtype) and one int64 reduceat
        # over the cells of its rows.  The other cells read some entry in
        # range ("clip") and are left out of the sums.
        rows = (jhi > jlo).nonzero()[0]  # k - 1 for each key with a term
        bounds = np.array((jlo, jhi)).T[rows]
        blocks, a = [], 0
        while a < rows.size:
            j0, j1 = bounds[a].tolist()
            fit = min(rows.size - a, chunk // (j1 - j0))
            if fit:
                cells = np.arange(1, fit + 1) * (j1 - bounds[a : a + fit, 0])
                b = a + int(cells.searchsorted(chunk, side="right"))
                blocks.append((a, b, int(bounds[b - 1, 0]), j1))
            else:  # row a alone is wider than a chunk: cut its columns
                b = a + 1
                blocks += [(a, b, j, min(j + chunk, j1)) for j in range(j0, j1, chunk)]
            a = b
        for a, b, j0, j1 in blocks:
            g, w = b - a, j1 - j0
            block = buf[: g * w].reshape(g, w)
            np.multiply(rows[a:b, None] + 1, ps[j0:j1], out=block)
            vals = gather[: g * w]
            table.take(to_index(block), out=vals.reshape(g, w), mode="clip")
            if g == 1:  # the whole block, or a piece of one wide row
                large[rows[a]] -= vals.sum(dtype=np.int64)
                continue
            # Row i's cells are vals[edges[2i] : edges[2i+1]].  The last
            # row may end at the last cell, which reduceat cannot index.
            edges = (bounds[a:b] + np.arange(-j0, g * w - j0, w)[:, None]).reshape(-1)
            if edges[-1] == g * w:
                edges = edges[:-1]
            large[rows[a:b]] -= np.add.reduceat(vals, edges, dtype=np.int64)[::2]

    # Phase 1, p <= cbrt: the float cube root, rounded, is at most one over.
    cbrt = round(n ** (1 / 3))
    cbrt -= cbrt**3 > n
    for p in range(2, cbrt + 1):
        sp = small.item(p - 1)
        if small.item(p) == sp:
            continue  # p composite: no change at key p
        sieve_large(p, sp)
        if p * p > r:
            continue  # p > n**(1/4): no small key v >= p*p
        # small[v] -= small[v // p] - sp for v = p*p .. r: row j of the
        # (q, p) view holds the v with v // p = p + j, and the partial row
        # after it the v with v // p = p + q.  Going down a chunk of rows at
        # a time, each read at v // p < v lies below every entry written.
        q = (r + 1 - p * p) // p
        small[p * p + q * p :] -= small[p + q] - sp
        rows = small[p * p : p * p + q * p].reshape(q, p)
        for hi in range(q, 0, -chunk):
            lo = max(hi - chunk, 0)
            src = np.subtract(small[p + lo : p + hi], sp, out=gathered[: hi - lo])
            rows[lo:hi] -= src[:, None]

    # The small half is now exact, so it lists the primes <= r, and the
    # i-th of them (from 0) has pi(p - 1) = i.
    primes = np.flatnonzero(small[2:] != small[1:-1]) + 2
    tail = small.item(cbrt)  # the primes p <= cbrt

    # Phase 2, p > n**(1/3): the updates commute (module docstring), so
    # each key k takes one sum over its primes, those with p*p <= n // k:
    # c of them, the first m with k*p <= r, which read large[k*p - 1]; the
    # rest read small[n // (k*p)], in [p, r].
    ps = primes[tail:]
    if ps.size:
        kmax = min(r, n // int(ps[0]) ** 2)
        c = np.searchsorted(ps * ps, keys[:kmax], side="right")
        m = np.minimum(c, np.searchsorted(ps, r // np.arange(1, kmax + 1), side="right"))
        large[:kmax] += c * (c + (2 * tail - 1)) // 2  # the pi(p - 1) terms
        subtract_pair_sums(np.zeros_like(m), m, large, lambda kp: np.subtract(kp, 1, out=kp), idx)
        subtract_pair_sums(m, c, small, lambda kp: np.floor_divide(n, kp, out=kp), gathered)
    return small, large


def prime_pi(n: int) -> int:
    """Exact count of primes <= n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_width(n)
    if n < 2:
        return 0
    return int(_legendre_sweep(n)[1][0])


def pi_prefix(limit: int) -> np.ndarray:
    """pi(v) for every v in 0..limit, as one int64 array.

    Runs the elimination at n = limit**2 so that all of 0..limit land in
    the small half of the quotient table; one sweep yields the whole
    prefix without any per-n calls (and without touching a linear sieve).
    """
    if limit < 1:
        return np.zeros(max(limit + 1, 0), dtype=np.int64)
    _check_width(limit * limit)
    small, _ = _legendre_sweep(limit * limit)
    out = small[: limit + 1].astype(np.int64)
    out[0] = 0
    return out


def count_in_range_oracle(x: int) -> int:
    """Primes in the closed range [x, x*x], via pi(x**2) - pi(x - 1).

    Both terms come from the one sweep at x**2.
    """
    if x < 1:
        raise ValueError("x must be positive")
    _check_width(x * x)
    if x == 1:
        return 0
    small, large = _legendre_sweep(x * x)
    return int(large[0] - small[x - 1])  # x - 1 <= isqrt(x**2): a small key
