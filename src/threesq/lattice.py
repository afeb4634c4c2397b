"""Integer points on the sphere x1^2 + x2^2 + x3^2 = n.

Enumeration solves a^2 + b^2 = n - x1^2 for canonical triples
0 <= x1 <= a <= b, one row per x1, and expands them through the 48-element
group of signed permutations, a 48-fold saving over the naive triple loop.
Near-pole scans solve x1^2 + x2^2 = m^2 - x3^2, one row per x3, and expand
through the 8 elements that fix x3.  Both share one exact perfect-square
test (`_two_squares`) and one group table.  Shells past _FLOAT_SAFE = 2^50
are refused: their enumeration would take weeks, and below it every float
dot product of two points is exact.

The same group drives the pair statistics.  Each enumerated shell
carries its orbit record (`LatticeSet.orbits`), built once: the stable z
order of its points and `shell_orbits` of the points in that order.  A
`LatticeSet` is the one integer source of a point set: its constructor
checks that every row lies on the shell of n <= 2^50, and
`spatial.project` attaches it to the projected points.  Every
whole-shell statistic in `spatial` and `harmonics` knows a shell by the
record it carries, which no hand-built set has, and the pair walks,
spacings and harmonic sums read its orbit rows.  Neither module folds
orbits itself.  The exact inner-product histogram of a whole shell
(`pair_table`) is read by `pairs_in_band` and `pair_count`, and by the
`pairs` and `verify-arith` commands; no statistic reads it, and it folds
its own orbits.  The histogram comes from one orbit-reduced Gram kernel:
one representative per orbit is dotted with all N points, and its row is
weighted by the orbit size, since a signed permutation maps the shell
onto itself and keeps x.y.  That is about N^2/48 integer products
instead of N^2, and no N x N matrix is ever formed.  The histogram is
two sorted int64 arrays, `t` and `count`; a pair count or a distance
band is read from them by `np.searchsorted` and one slice sum.

Both `enumerate_points` and `pair_table` keep their results per n, least
recently used first out, bounded by the bytes of their arrays rather than
by a count (`_byte_lru`): a run over many small shells keeps every table,
and a few large shells cannot take gigabytes.  _POINTS_BYTES (32 MB of
points and orbit records, about 40 N bytes a shell) holds hundreds of
shells of N ~ 2000; _TABLE_BYTES (2 MB of `t` and `count`) holds eight
tables at N ~ 2100, or every table of `verify-arith --n-max 500`
(0.48 MB).  The newest entry always stays, even alone over its bound, as
the shell at n = 1e10+19 (38 MB) does, so repeated calls on one large
shell keep hitting; it goes at the next insert.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, update_wrapper

import numpy as np

from .errors import DomainError, InvariantError, budget

_FLOAT_SAFE = 1 << 50  # the largest n of a LatticeSet: float dot products of its points are exact
_GRAM_ENTRIES = 1 << 23  # entries per row block of the Gram kernel
_POINTS_BYTES = 32 << 20  # point arrays the enumerate_points cache holds
_TABLE_BYTES = 2 << 20  # t and count arrays the pair_table cache holds
_CANDIDATES = 1 << 14  # values of a per _two_squares call: 128 KB int64 arrays
_MAX_POLE_RADIUS = 1 << 31  # near-pole scans stay in int64 up to here

# The 48 signed permutations x -> sign * x[perm]; _FIX_X3 marks the 8 fixing x3
_PERM = np.repeat(list(itertools.permutations(range(3))), 8, axis=0)
_SIGN = np.tile(list(itertools.product((1, -1), repeat=3)), (6, 1))
_FIX_X3 = (_PERM[:, 2] == 2) & (_SIGN[:, 2] == 1)


def three_squares_representable(n: int) -> bool:
    """False exactly for n of the form 4^a (8b + 7)."""
    if n < 0:
        return False
    while n > 0 and n % 4 == 0:
        n //= 4
    return n % 8 != 7


@dataclass
class ShellOrbits:
    """Points of one sphere split into orbits of the signed-permutation group.

    Points share an orbit exactly when their images in the sector
    0 <= x <= y <= z (`fold`) agree.  For a set closed under the group (a
    whole shell) `size` is the orbit size.  An orbit record also holds
    `order`, the stable z order of the points, and then `first` and
    `index` name rows of the points in that order.
    """

    first: np.ndarray  # (R,) the row of each orbit's first point
    size: np.ndarray  # (R,) points per orbit
    index: np.ndarray  # (N,) the orbit of each row
    order: np.ndarray | None = None  # (N,) the stable z order of the points

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.first, self.size, self.index, self.order) if a is not None)


@dataclass
class LatticeSet:
    """Integer points of squared length n: from `enumerate_points` all of
    them, lexicographically sorted, or any rows of the shell built by hand.

    The constructor refuses, with DomainError, an n that is no integer in
    [1, 2^50] (_FLOAT_SAFE), points that are not an int64 (N, 3) array,
    and a row whose squared length is not exactly n.  Every coordinate is
    checked to be at most isqrt(n) in absolute value first, so no square
    wraps in int64: (2^32, 0, 1) would pass as a point of n = 1.  N = 0
    is allowed.

    `orbits` is the shell's orbit record, which only `enumerate_points`
    builds; a set built any other way carries none, and a point set counts
    as symmetric exactly when its shell carries one.  Instances are shared
    through the `enumerate_points` cache, which counts `nbytes`, the points
    and the record, against _POINTS_BYTES, and every array is frozen
    (read-only).
    """

    n: int
    points: np.ndarray  # (N, 3) int64
    orbits: ShellOrbits | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n, P = self.n, self.points
        if not (isinstance(n, int | np.integer) and 1 <= n <= _FLOAT_SAFE):
            raise DomainError(f"a lattice set needs an integer 1 <= n <= 2^50, not n = {n}")
        if not (isinstance(P, np.ndarray) and P.dtype == np.int64 and P.ndim == 2 and P.shape[1] == 3):
            raise DomainError("a lattice set's points must be an int64 (N, 3) array")
        m = math.isqrt(n)
        if not (-m <= P.min(initial=0) and P.max(initial=0) <= m and np.all(np.einsum("ij,ij->i", P, P) == n)):
            raise DomainError(f"every point of a lattice set must have squared length n = {n}")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def nbytes(self) -> int:
        return self.points.nbytes + (0 if self.orbits is None else self.orbits.nbytes)


@dataclass(eq=False)
class PairCountTable:
    """Histogram of inner products over ordered point pairs.

    `t` holds the distinct inner products in ascending order and `count`
    the ordered pairs at each, both int64; a nonempty table of a whole shell
    ends at t = n with count N.  Shared through the `pair_table` cache,
    which counts `nbytes` against _TABLE_BYTES: read-only.
    """

    n: int
    t: np.ndarray
    count: np.ndarray

    @cached_property
    def entries(self) -> dict[int, int]:
        """The histogram as a dict t -> count.

        Kept only for the benchmark tracer, which reads its length; the
        package reads `t` and `count`.
        """
        return dict(zip(self.t.tolist(), self.count.tolist()))

    @property
    def empty(self) -> bool:
        return len(self.t) == 0

    @property
    def nbytes(self) -> int:
        return self.t.nbytes + self.count.nbytes

    @property
    def total(self) -> int:
        return int(self.count.sum())


_CacheInfo = namedtuple("CacheInfo", "hits misses maxbytes currbytes")


def _byte_lru(bound):
    """Cache a function of n, least recently used first out, holding results
    of at most `bound()` bytes in all, each result counted by its `nbytes`.

    The bound is read at each insert, and the oldest entries go until the
    rest fit, but the newest always stays, however large.  A call that
    raises counts as a miss and is not cached.  Like `functools.lru_cache`
    the wrapper has `cache_info()` (hits, misses, the bound and the bytes
    held), `cache_clear()` and `__wrapped__`.
    """

    def decorate(fn):
        entries = OrderedDict()  # n -> result, oldest first
        hits = misses = held = 0

        def cached(n):
            nonlocal hits, misses, held
            if n in entries:
                entries.move_to_end(n)
                hits += 1
                return entries[n]
            misses += 1
            result = entries[n] = fn(n)
            held += result.nbytes
            while held > bound() and len(entries) > 1:
                held -= entries.popitem(last=False)[1].nbytes
            return result

        def cache_info():
            return _CacheInfo(hits, misses, bound(), held)

        def cache_clear():
            nonlocal hits, misses, held
            entries.clear()
            hits = misses = held = 0

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return update_wrapper(cached, fn)

    return decorate


def _two_squares(r: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b >= 0) with a^2 + b^2 = r and lo <= a < hi, as int64 arrays.

    The one perfect-square test: b is the rounded float root of r - a^2,
    kept when b^2 == r - a^2 in int64.  Exact for r <= 2^62: every square
    fits, and the float root of k^2, k <= 2^31, lies within k 2^-52 of k."""
    a = np.arange(lo, hi, dtype=np.int64)
    rem = r - a * a
    b = np.rint(np.sqrt(rem)).astype(np.int64)
    k = np.flatnonzero(b * b == rem)
    return a[k], b[k]


def _solve_rows(fixed: np.ndarray, r: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Rows (f, a, b) with a^2 + b^2 = r and lo <= a <= b, for each entry
    (f, r, lo); long rows go in chunks of _CANDIDATES values of a, and
    only chunks holding a solution are kept."""
    keys, sols = [], []
    for f, ri, li in zip(fixed.tolist(), r.tolist(), lo.tolist()):
        hi = math.isqrt(ri // 2) + 1
        for a0 in range(li, hi, _CANDIDATES):
            a, b = _two_squares(ri, a0, min(a0 + _CANDIDATES, hi))
            if len(a):
                keys.append(f)
                sols.append((a, b))
    if not sols:
        return np.zeros((0, 3), dtype=np.int64)
    f = np.repeat(keys, [len(a) for a, _ in sols])
    return np.column_stack((f, *(np.concatenate(c) for c in zip(*sols))))


def _images(rows: np.ndarray, group=slice(None)) -> np.ndarray:
    """Every image of `rows` under the signed permutations _PERM[group],
    _SIGN[group], lexicographically sorted, each point once."""
    X = (rows[:, _PERM[group]] * _SIGN[group]).reshape(-1, 3)
    X = X[np.lexsort(X.T[::-1])]
    return np.concatenate((X[:1], X[1:][(X[1:] != X[:-1]).any(axis=1)]))


@_byte_lru(lambda: _POINTS_BYTES)
def enumerate_points(n: int) -> LatticeSet:
    """Enumerate every integer solution of x1^2 + x2^2 + x3^2 = n.

    Shells past _FLOAT_SAFE are refused: the work grows about linearly
    in n (11 s at n = 1e10), so n = 2^50 would take about two weeks.
    The set carries its orbit record, `shell_orbits` of the points in
    their stable z order, with that order; every whole-shell statistic
    reads it.  The points and the record are frozen.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if n > _FLOAT_SAFE:
        raise DomainError(f"n = {n} exceeds 2^50, past which shells are not enumerated")
    x1 = np.arange(math.isqrt(n // 3) + 1, dtype=np.int64)
    P = _images(_solve_rows(x1, n - x1 * x1, x1))
    order = np.argsort(P[:, 2], kind="stable")
    ls = LatticeSet(n, P)
    ls.orbits = orb = shell_orbits(P[order])
    orb.order = order
    for a in (P, order, orb.first, orb.size, orb.index):
        a.setflags(write=False)
    if bool(ls.size) != three_squares_representable(n):
        raise InvariantError(f"enumeration of n={n} contradicts the 4^a(8b+7) test")
    return ls


def fold(P: np.ndarray) -> np.ndarray:
    """The image of each row of P in the sector 0 <= x <= y <= z of the 48
    signed permutations: its absolute values, sorted by a three-compare
    min/max network.  Exact on int64 and float64 alike, it equals
    np.sort(np.abs(P), axis=1)."""
    F = np.abs(P)
    lo = np.minimum(F[:, 0], F[:, 1])
    hi = np.maximum(F[:, 0], F[:, 1])
    mid = np.minimum(hi, F[:, 2])
    np.maximum(hi, F[:, 2], out=F[:, 2])
    np.minimum(lo, mid, out=F[:, 0])
    np.maximum(lo, mid, out=F[:, 1])
    return F


def shell_orbits(P: np.ndarray) -> ShellOrbits:
    """Group integer points of one sphere by their orbit under the 48 signed
    permutations.

    The points must share one squared length n.  With a <= b <= c their
    image in the sector (`fold`), a and b then fix c = sqrt(n - a^2 - b^2),
    so the one int64 code a (b_max + 1) + b keys the orbit.  Orbits come
    in ascending (a, b), each represented by its first point in P.
    """
    key = fold(P)
    code = key[:, 0] * (int(key[:, 1].max(initial=0)) + 1) + key[:, 1]
    _, first, index, size = np.unique(code, return_index=True, return_inverse=True, return_counts=True)
    return ShellOrbits(first, size, index)


def orbit_gram_rows(P: np.ndarray, reps: np.ndarray):
    """Yield (r0, G), G[i, j] = reps[r0 + i] . P[j] as exact int64.

    Row blocks hold at most _GRAM_ENTRIES entries.  The products go
    through BLAS in float64: on an enumerable shell (n <= _FLOAT_SAFE)
    every partial sum is an exact integer, so the cast back is exact.
    """
    step = max(1, _GRAM_ENTRIES // max(len(P), 1))
    PT = P.astype(np.float64).T
    R = reps.astype(np.float64)
    for r0 in range(0, len(reps), step):
        yield r0, (R[r0 : r0 + step] @ PT).astype(np.int64)


def _merge_histograms(vals: list, cnts: list) -> tuple[np.ndarray, np.ndarray]:
    t, inv = np.unique(np.concatenate(vals), return_inverse=True)
    c = np.zeros(len(t), dtype=np.int64)
    np.add.at(c, inv, np.concatenate(cnts))
    return t, c


def _orbit_histogram(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct x.y over ordered pairs of a whole shell, with their counts.

    Block histograms are merged whenever they hold more than
    _GRAM_ENTRIES values, which bounds memory by a few blocks.
    """
    orb = shell_orbits(P)
    vals, cnts, pending = [], [], 0
    for size in np.unique(orb.size).tolist():  # at most six orbit sizes
        for _, g in orbit_gram_rows(P, P[orb.first[orb.size == size]]):
            v, k = np.unique(g, return_counts=True)
            vals.append(v)
            cnts.append(size * k)
            pending += len(v)
            if pending > _GRAM_ENTRIES:
                t, c = _merge_histograms(vals, cnts)
                vals, cnts, pending = [t], [c], len(t)
    return _merge_histograms(vals, cnts)


@_byte_lru(lambda: _TABLE_BYTES)
def pair_table(n: int) -> PairCountTable:
    """Full inner-product histogram over ordered pairs of points.

    Built by the orbit-reduced Gram kernel.  Validates the marginals
    before returning: counts sum to N^2, the entries at +-n both equal N,
    and the table is symmetric in t -> -t.  An empty sphere yields an
    empty (flagged) table.  A shell whose N^2/48 Gram products pass the
    "gram_products" budget of `errors.BUDGETS` is refused after
    enumeration, before any product.
    """
    ls = enumerate_points(n)
    budget("gram_products", ls.size**2 // 48, f"pair table of n = {n}")
    if ls.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        empty.setflags(write=False)
        return PairCountTable(n, empty, empty)
    t, c = _orbit_histogram(ls.points)
    N = ls.size
    if int(c.sum()) != N * N:
        raise InvariantError(f"pair table of n={n} does not sum to N^2")
    if t[0] != -n or t[-1] != n or c[0] != N or c[-1] != N:
        raise InvariantError(f"pair table of n={n} has wrong diagonal counts")
    if not (np.array_equal(t, -t[::-1]) and np.array_equal(c, c[::-1])):
        raise InvariantError(f"pair table of n={n} is not symmetric in t")
    t.setflags(write=False)
    c.setflags(write=False)
    return PairCountTable(n, t, c)


def pair_count(n: int, t: int) -> int:
    """Ordered pairs (x, y) on the sphere of radius sqrt(n) with x.y = t."""
    if abs(t) > n:
        raise DomainError("|t| <= n required")
    tbl = pair_table(n)
    i, j = np.searchsorted(tbl.t, t, side="left"), np.searchsorted(tbl.t, t, side="right")
    return int(tbl.count[i:j].sum())


def pairs_in_band(n: int, a, b) -> int:
    """Ordered pairs with a < |x - y|^2 < b (both strict).

    Equals the sum of pair counts over inner products
    n - b/2 < t < n - a/2.  The bounds are exact rationals (a and b may
    be ints, floats, Fractions, and b may be inf), turned into the
    integer range lo <= t <= hi with lo = floor(n - b/2) + 1 and
    hi = ceil(n - a/2) - 1, so no pair is ever misclassified at a shell
    boundary.
    """
    if not (0 <= a < b):
        raise DomainError("need 0 <= a < b")
    tbl = pair_table(n)
    hi = min(n, math.ceil(n - Fraction(a) / 2) - 1)
    lo = -n if math.isinf(b) else max(-n, math.floor(n - Fraction(b) / 2) + 1)
    i = np.searchsorted(tbl.t, lo, side="left")
    j = np.searchsorted(tbl.t, hi, side="right")
    return int(tbl.count[i:j].sum())


def _pole_candidates(m: int, height: int) -> int:
    """Upper bound on the values of a that `points_near_pole` tests.

    Each of the height + 1 rows has r = (m - x3)(m + x3) <= 2 m height and
    tests a <= isqrt(r / 2) <= isqrt(m height).
    """
    return (height + 1) * (math.isqrt(height * m) + 1)


def points_near_pole(m: int, height: int) -> np.ndarray:
    """All x with |x|^2 = m^2 and m - x3 <= height, lexicographically sorted.

    Scans x3 downward from the pole and solves x1^2 + x2^2 = m^2 - x3^2
    directly, avoiding enumeration of the whole sphere.  Radii past 2^31,
    where m^2 would leave int64, are refused, and so is a scan whose
    candidate bound passes the "pole_candidates" budget (about 10 s of
    work).
    """
    if m < 1:
        raise DomainError("m must be positive")
    if m > _MAX_POLE_RADIUS:
        raise DomainError(f"m = {m} exceeds 2^31, past which near-pole scans leave int64")
    if not 0 <= height < 2 * m:
        raise DomainError("need 0 <= height < 2m")
    budget("pole_candidates", _pole_candidates(m, height), f"near-pole scan (m = {m}, height = {height})")
    x3 = np.arange(m, m - height - 1, -1, dtype=np.int64)
    rows = _solve_rows(x3, m * m - x3 * x3, np.zeros_like(x3))
    pts = _images(rows[:, [1, 2, 0]], _FIX_X3)
    if not np.all(np.einsum("ij,ij->i", pts, pts) == m * m):
        raise InvariantError("near-pole point off the sphere")
    return pts
