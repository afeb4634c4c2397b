"""Integers that are sums of two squares: sieve, gaps, and pole probes.

Membership is the classical criterion (every prime p = 3 mod 4 divides
to an even power).  Windows [Y, 2Y) are sieved in segments [lo, hi)
with no division and no residue array:

* for each prime p = 3 mod 4 with p <= sqrt(hi - 1), and for each odd
  k = 1, 3, 5, ... with p^k < hi, the flags at the multiples of p^(k+1)
  are saved, every multiple of p^k is excluded, and the saved flags are
  written back (one strided write per odd power, no parity array);
* then every n whose odd part n / 2^a (a = ord_2(n)) is 3 mod 4 is
  excluded, on the strided slices n = 3 * 2^a (mod 2^(a + 2)).

The first step ORs exactly [ord_p(n) odd] into the exclusion flags.  By
induction on odd k, after level k every n with ord_p(n) in {1, 3, ..., k}
is excluded and every multiple of p^(k+1) holds its flag from before
level 1: level k sets the multiples of p^k, which are those with
ord_p(n) = k and the multiples of p^(k+1), and the restore puts the
latter back.  The last level has p^(k+1) >= hi, so no multiple of
p^(k+1) lies in [lo, hi) (lo >= 1) and its restore is empty.  Every
n with ord_p(n) even keeps its flag: ord_p(n) = 0 is never written, and
ord_p(n) = j > 0 even is a multiple of p^(k+1) at each level k < j and
not a multiple of p^k at each level k > j.

The second step is exact.  Split the odd part of n as A * B, with A
built from primes <= sqrt(hi - 1) and B from larger ones.  Since
B <= n < hi, B is 1 or a single prime to the first power.  If every
small bad valuation is even, A is a product of primes 1 mod 4 and even
powers of primes 3 mod 4, so A = 1 mod 4 and the odd part is 3 mod 4
exactly when B is a bad prime, i.e. when n is not a sum of two squares.
If some small bad valuation is odd, n is already excluded.

Gaps are folded from the flags, one cache-sized slice at a time, so a
scan holds one segment of flags and no member array.  A scan is refused
up front past the "gap_scan" budget of `errors.BUDGETS`, a window past
its "window_bytes" budget of members.

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
_FOLD = 1 << 16  # flags per fold slice: its index and gap arrays stay in cache


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
    excluded = np.zeros(hi - lo, dtype=bool)
    for p in bad_primes:
        pk = p
        while pk < hi:
            multiples = slice((-lo) % (pk * p), None, pk * p)  # of p^(k+1)
            saved = excluded[multiples].copy()
            excluded[(-lo) % pk :: pk] = True
            excluded[multiples] = saved
            pk *= p * p
    # the odd part of n = 2^a * o is 3 mod 4 iff n = 3 * 2^a (mod 2^(a + 2))
    two_a = 1
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


def _largest_gap(segments) -> tuple[int, tuple[int, int] | None]:
    """Largest gap between consecutive members and its first pair.

    Each segment is read in slices of _FOLD flags, from the slice-relative
    indices of its members; only the last member and the running maximum
    are carried across slices, so no member or gap array spans a segment.
    """
    best, pair, last = 0, None, None
    for lo, flags in segments:
        for start in range(0, len(flags), _FOLD):
            idx = np.flatnonzero(flags[start : start + _FOLD])
            if idx.size == 0:
                continue
            base = lo + start
            first = base + int(idx[0])
            if last is not None and first - last > best:
                best, pair = first - last, (last, first)
            if idx.size > 1:
                gaps = np.diff(idx)
                k = int(np.argmax(gaps))
                if gaps[k] > best:
                    best, pair = int(gaps[k]), (base + int(idx[k]), base + int(idx[k + 1]))
            last = base + int(idx[-1])
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
    Y passes the "gap_scan" budget (about 10 s of sieving) is refused
    before any sieving."""
    ys = [int(y) for y in y_values]
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


def rough_interval_check(y: int, delta: float = 0.1) -> tuple[bool, int, int]:
    """Every length-G/8 subinterval of [Y, 2Y) holds a G^delta-rough number?

    Returns (ok, max run of non-rough integers, required bound G/8); at
    desk scale the cutoff G^delta stays below 2 and the check is vacuous,
    which is recorded rather than hidden.  A Y whose rough flags and run
    lengths could pass the "window_bytes" budget is refused before G is
    sieved.
    """
    budget("window_bytes", 8 * y, f"rough flags of Y = {y}")
    ((_, g, _),) = gap_scan([y])
    if g <= 0:
        return True, 0, 0
    cutoff = int(g**delta)
    need = max(1, g // 8)
    if cutoff < 2:
        return True, 0, need
    smooth_ps = [int(p) for p in _primes.primes_up_to(cutoff).tolist()]
    flags = np.ones(y, dtype=bool)  # rough flags for [Y, 2Y)
    for p in smooth_ps:
        start = (-y) % p
        flags[start::p] = False
    runs = np.diff(np.flatnonzero(np.concatenate([[True], flags, [True]])))
    worst = int(runs.max() - 1) if len(runs) else 0
    return worst < need, worst, need
