"""Integers that are sums of two squares: sieve, gaps, and pole probes.

Membership is the classical criterion (every prime p = 3 mod 4 divides
to an even power).  Windows [Y, 2Y) are sieved in segments [lo, hi)
with no division and no residue array:

* the exclusion flags start from a wheel of period 7 056 = 16 * 9 * 49,
  the residue classes n = 3 * 2^a (mod 2^(a + 2)) for a <= 2 and the n
  with ord_p(n) = 1 (n = p j mod p^2, 0 < j < p) for p = 3 and 7: one
  period is marked at lo's phase and copied forward in doubling copies,
  which keep the period;
* for each prime p = 3 mod 4 with p <= sqrt(hi - 1), and for each odd
  k = k0, k0 + 2, ... with p^k < hi, where k0 is 3 for p = 3 and 7 and
  1 otherwise, the flags at the multiples of p^(k+1) are saved, every
  multiple of p^k is excluded, and the saved flags are written back (one
  strided write per odd power, no parity array);
* then every n whose odd part n / 2^a (a = ord_2(n)) is 3 mod 4 and
  a >= 3 is excluded, on the strided slices n = 3 * 2^a (mod 2^(a + 2)).

Each step ORs an exact indicator of a property of n alone into the
flags, so their order does not matter, and the wheel's entries hold
even in a segment where 3 or 7 is not yet a bad prime (hi <= 9, 49).
The levels of p OR exactly [ord_p(n) odd and >= k0].  By induction on
odd k, after level k every n with ord_p(n) odd in [k0, k] is excluded
and every multiple of p^(k+1) holds its flag from before level k0:
level k sets the multiples of p^k, which are those with ord_p(n) = k
and the multiples of p^(k+1), and the restore puts the latter back.
The last level has p^(k+1) >= hi, so no multiple of p^(k+1) lies in
[lo, hi) (lo >= 1) and its restore is empty.  Every other n keeps its
flag: ord_p(n) < k0 is never written, and ord_p(n) = j >= k0 even is a
multiple of p^(k+1) at each level k < j and not a multiple of p^k at
each level k > j.  With the wheel's [ord_p(n) = 1] for p = 3 and 7,
every n with ord_p(n) odd is excluded.

The 2-adic classes are exact.  Split the odd part of n as A * B, with A
built from primes <= sqrt(hi - 1) and B from larger ones.  Since
B <= n < hi, B is 1 or a single prime to the first power.  If every
small bad valuation is even, A is a product of primes 1 mod 4 and even
powers of primes 3 mod 4, so A = 1 mod 4 and the odd part is 3 mod 4
exactly when B is a bad prime, i.e. when n is not a sum of two squares.
If some small bad valuation is odd, n is already excluded.

Gaps are folded from the flags, one cache-sized slice at a time, so a
scan holds one segment of flags and no member array.  A slice is read
as 8-flag words.  Consecutive members in different words lie in
consecutive nonempty words; if those are d words apart, the gap is in
[8d - 7, 8d + 7], and a gap inside one word is at most 7.  So when the
widest span between consecutive nonempty words is d_max >= 2, the
largest gap is at least 8 d_max - 7 >= 9, while a span of d_max - 2 or
less holds a gap of at most 8 d_max - 9 and one word a gap of at most
7: the largest gap and every tie of it lie across the spans of at
least d_max - 1 words, which are opened in order, from the last member
of the left word to the first of the right one, and the first tie is
kept.  A slice whose nonempty words all touch is folded member by
member.  A scan is refused up front past the "gap_scan" budget of
`errors.BUDGETS`, a window past its "window_bytes" budget of members.

The probe connects lattice points near the pole of the sphere of radius
m to gap certificates: a point (x1, x2, x3) with x1^2 + x2^2 =
(m - x3)(m + x3) and m + x3 a sum of two squares certifies that
2m = (m + x3) + (m - x3) is within m - x3 of the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes as _primes
from .arith import factorize
from .errors import DomainError, InvariantError, budget
from .lattice import points_near_pole

_SEGMENT = 1 << 21
_FOLD = 1 << 17  # flags per fold slice: its word index arrays stay in cache
_WHEEL = 16 * 9 * 49  # period of the exclusions pre-filled from the wheel
_WHEEL_PRIMES = (3, 7)  # whose ord_p(n) = 1 the wheel holds
# the residue classes (modulus, residue) the wheel excludes: n = 3 * 2^a
# (mod 2^(a + 2)) for a <= 2, and ord_p(n) = 1 for the wheel's primes
_WHEEL_CLASSES = ((4, 3), (8, 6), (16, 12)) + tuple(
    (p * p, p * j) for p in _WHEEL_PRIMES for j in range(1, p)
)


def is_sum_two_squares(n: int) -> bool:
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n == 0:
        return True
    return all(k % 2 == 0 for p, k in factorize(n) if p % 4 == 3)


@dataclass
class TwoSquaresWindow:
    y: int
    members: np.ndarray  # sorted members of the sequence in [Y, 2Y)
    max_gap: int
    argmax_pair: tuple[int, int] | None


def _sieve_segment(lo: int, hi: int, bad_primes: list[int]) -> np.ndarray:
    """Membership flags for [lo, hi), 1 <= lo; bad_primes are the 3 mod 4
    primes up to sqrt(hi - 1) (see the module docstring)."""
    size = hi - lo
    wheel = np.zeros(min(size, _WHEEL), dtype=bool)
    for modulus, residue in _WHEEL_CLASSES:
        wheel[(residue - lo) % modulus :: modulus] = True
    excluded = np.empty(size, dtype=bool)
    excluded[: wheel.size] = wheel
    filled = wheel.size
    while filled < size:  # copies of whole periods keep the period
        step = min(filled, size - filled)
        excluded[filled : filled + step] = excluded[:step]
        filled += step
    for p in bad_primes:
        pk = p**3 if p in _WHEEL_PRIMES else p  # the wheel holds ord_p(n) = 1
        while pk < hi:
            multiples = slice((-lo) % (pk * p), None, pk * p)  # of p^(k+1)
            saved = excluded[multiples].copy()
            excluded[(-lo) % pk :: pk] = True
            excluded[multiples] = saved
            pk *= p * p
    # the odd part of n = 2^a * o is 3 mod 4 iff n = 3 * 2^a (mod 2^(a + 2))
    two_a = 8  # a >= 3: the wheel holds a <= 2
    while 3 * two_a < hi:
        excluded[(3 * two_a - lo) % (4 * two_a) :: 4 * two_a] = True
        two_a *= 2
    return np.logical_not(excluded, out=excluded)  # in place: no fresh pages


def _segments(y: int):
    """(lo, membership flags of [lo, hi)) for the sieve segments of [Y, 2Y)."""
    if y < 1:
        raise DomainError("Y must be positive")
    hi_total = 2 * y
    bad = [
        int(p)
        for p in _primes.primes_up_to(math.isqrt(hi_total - 1)).tolist()
        if p % 4 == 3
    ]
    for lo in range(y, hi_total, _SEGMENT):
        yield lo, _sieve_segment(lo, min(lo + _SEGMENT, hi_total), bad)


def _fold_slice(flags: np.ndarray) -> tuple[int, int, int, int] | None:
    """(first member, last member, largest gap, its first left member) of
    the flags, relative to their start; None when they hold no member.

    The flags are read as 8-flag words, and only the pairs of consecutive
    nonempty words that can hold the largest gap are opened (see the
    module docstring); member by member when no two nonempty words are
    apart.
    """
    if len(flags) % 8:
        flags = np.concatenate([flags, np.zeros(-len(flags) % 8, dtype=bool)])
    words = np.flatnonzero(flags.view(np.uint64) != 0)
    if words.size == 0:
        return None
    rows = flags.reshape(-1, 8)
    first = 8 * int(words[0]) + int(np.argmax(rows[words[0]]))
    last = 8 * int(words[-1]) + 7 - int(np.argmax(rows[words[-1], ::-1]))
    span = np.diff(words)
    widest = int(span.max()) if span.size else 0
    if widest <= 1:
        idx = np.flatnonzero(flags)
        gaps = np.diff(idx, append=idx[-1])  # a closing 0: one member folds too
        k = int(np.argmax(gaps))
        return first, last, int(gaps[k]), int(idx[k])
    pairs = np.flatnonzero(span >= widest - 1)
    lw, rw = words[pairs], words[pairs + 1]
    left = 8 * lw + 7 - np.argmax(rows[lw, ::-1], axis=1)  # last member of lw
    right = 8 * rw + np.argmax(rows[rw], axis=1)  # first member of rw
    gaps = right - left
    k = int(np.argmax(gaps))
    return first, last, int(gaps[k]), int(left[k])


def _largest_gap(segments) -> tuple[int, tuple[int, int] | None]:
    """Largest gap between consecutive members and its first pair.

    Each segment is folded in slices of _FOLD flags; only the last member
    and the running maximum are carried across slices, so no member, word
    or gap array spans a slice.
    """
    best, pair, last = 0, None, None
    for lo, flags in segments:
        for start in range(0, len(flags), _FOLD):
            folded = _fold_slice(flags[start : start + _FOLD])
            if folded is None:
                continue
            first, final, gap, left = folded
            base = lo + start
            if last is not None and base + first - last > best:
                best, pair = base + first - last, (last, base + first)
            if gap > best:
                best, pair = gap, (base + left, base + left + gap)
            last = base + final
    return best, pair


def window(y: int) -> TwoSquaresWindow:
    """All sums of two squares in [Y, 2Y) and the largest internal gap.
    A Y whose members could pass the "window_bytes" budget is refused."""
    budget("window_bytes", 8 * y, f"window of Y = {y}")
    segments = list(_segments(y))
    chunks = [np.flatnonzero(flags) + lo for lo, flags in segments]
    members = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return TwoSquaresWindow(y, members, *_largest_gap(segments))


def gap_scan(y_values) -> list[tuple[int, int, float]]:
    """Rows (Y, G(Y), G(Y) / Y^(1/4)); the ratio is a monitor, the
    elementary bound's constant is not specified.  No member array is
    kept: each window is folded segment by segment.  A list whose sum of
    Y passes the "gap_scan" budget (about 21 s of sieving on a 2-vCPU
    Xeon, 5.2 ns per integer at Y = 4e9) is refused before any sieving,
    after every Y is checked to be positive (so that no negative Y can
    offset the sum)."""
    ys = [int(y) for y in y_values]
    if any(y < 1 for y in ys):
        raise DomainError("Y must be positive")
    budget("gap_scan", sum(ys), "gap scan")
    out = []
    for y in ys:
        g, _ = _largest_gap(_segments(y))
        out.append((y, g, g / y**0.25))
    return out


@dataclass
class ProbeResult:
    m: int
    height: int
    best_x3: int | None  # largest qualifying x3 strictly below the pole
    certified_distance: int | None  # m - best_x3, an upper bound certificate
    distance: int  # exact dist(2m, sums of two squares)
    pole_in_sequence: bool  # whether 2m itself is a sum of two squares
    candidates: int  # near-pole points examined


def gap_probe(m: int, height: int) -> ProbeResult:
    """Probe dist(2m, sums of two squares) through near-pole points.

    A point with x3 < m and m + x3 in the sequence certifies
    dist <= m - x3 (since 2m = (m + x3) + (m - x3)); the exact distance
    comes from an independent outward scan.  A certificate is only known
    to exist for m free of small prime factors; whenever one is found it
    is checked against that distance.
    """
    pts = points_near_pole(m, height)
    x1, x2, x3 = pts.T
    if np.any(x1 * x1 + x2 * x2 != (m - x3) * (m + x3)):
        raise InvariantError("near-pole point fails the factorization identity")
    below = np.unique(x3[x3 < m])[::-1].tolist()
    best = next((z for z in below if is_sum_two_squares(m + z)), None)
    dist = 0
    while not (is_sum_two_squares(2 * m - dist) or is_sum_two_squares(2 * m + dist)):
        dist += 1
    if best is not None and dist > m - best:
        raise InvariantError("certificate shorter than the exact distance")
    return ProbeResult(
        m=m,
        height=height,
        best_x3=best,
        certified_distance=None if best is None else m - best,
        distance=dist,
        pole_in_sequence=is_sum_two_squares(2 * m),
        candidates=len(pts),
    )
