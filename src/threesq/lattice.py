"""Integer points on the sphere x1^2 + x2^2 + x3^2 = n.

Enumeration runs over canonical triples 0 <= x1 <= x2 <= x3 and expands
through the 48-element group of signed permutations, a 48-fold saving
over the naive triple loop.  Perfect-square tests always go through an
exact integer comparison (a float square root is only a first guess), so
results stay correct far past 2^53.

The same group drives the pair statistics.  Every function of x.y over a
whole shell is read from the exact inner-product histogram (`pair_table`),
and that histogram comes from one orbit-reduced Gram kernel: one
representative per orbit is dotted with all N points, and its row is
weighted by the orbit size, since a signed permutation maps the shell onto
itself and keeps x.y.  That is about N^2/48 integer products instead of N^2,
and no N x N matrix is ever formed.  The histogram is two sorted int64
arrays, `t` and `count`; a pair count or a distance band is read from them
by `np.searchsorted` and one slice sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InvariantError

_FLOAT_SAFE = 1 << 50  # below this, float dot products of points are exact
_GRAM_ENTRIES = 1 << 23  # entries per row block of the Gram kernel


def three_squares_representable(n: int) -> bool:
    """False exactly for n of the form 4^a (8b + 7)."""
    if n < 0:
        return False
    while n > 0 and n % 4 == 0:
        n //= 4
    return n % 8 != 7


@dataclass
class LatticeSet:
    """All integer triples of squared length n, lexicographically sorted.

    Instances are cached and shared; treat the arrays as read-only.
    """

    n: int
    points: np.ndarray  # (N, 3) int64
    primitive: np.ndarray  # (N,) bool: gcd(x1, x2, x3) == 1

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(eq=False)
class PairCountTable:
    """Histogram of inner products over ordered point pairs.

    `t` holds the distinct inner products in ascending order and `count`
    the ordered pairs at each, both int64; a nonempty table of a whole shell
    ends at t = n with count N.  Shared through the cache: read-only.
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
    def total(self) -> int:
        return int(self.count.sum())


@dataclass
class ShellOrbits:
    """A point set split into orbits of the signed-permutation group.

    Points share an orbit exactly when their sorted absolute coordinates
    agree.  For a set closed under the group (a whole shell) `size` is the
    orbit size; `index` maps each point to its orbit.
    """

    reps: np.ndarray  # (R, 3) int64, one point per orbit
    size: np.ndarray  # (R,) points per orbit
    index: np.ndarray  # (N,) orbit of each point


def _canonical_triples(n: int) -> list[tuple[int, int, int]]:
    out = []
    use_numpy = n <= _FLOAT_SAFE
    for x1 in range(math.isqrt(n) + 1):
        r1 = n - x1 * x1
        if r1 < 2 * x1 * x1:
            break
        hi = math.isqrt(r1 // 2)
        if use_numpy:
            xs = np.arange(x1, hi + 1, dtype=np.int64)
            r2 = r1 - xs * xs
            s = np.sqrt(r2.astype(np.float64)).astype(np.int64)
            s = np.where((s + 1) * (s + 1) <= r2, s + 1, s)
            s = np.where(s * s > r2, s - 1, s)
            ok = s * s == r2
            out.extend(
                (x1, int(a), int(b)) for a, b in zip(xs[ok].tolist(), s[ok].tolist())
            )
        else:
            for x2 in range(x1, hi + 1):
                r2 = r1 - x2 * x2
                x3 = math.isqrt(r2)
                if x3 * x3 == r2:
                    out.append((x1, x2, x3))
    return out


@lru_cache(maxsize=64)
def enumerate_points(n: int) -> LatticeSet:
    """Enumerate every integer solution of x1^2 + x2^2 + x3^2 = n."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    pts: list[tuple[int, int, int]] = []
    for tri in _canonical_triples(n):
        for perm in set(itertools.permutations(tri)):
            signs = [(v, -v) if v else (0,) for v in perm]
            pts.extend(itertools.product(*signs))
    pts.sort()
    arr = np.array(pts, dtype=np.int64).reshape(len(pts), 3)
    if len(pts):
        prim = np.gcd.reduce(np.abs(arr), axis=1) == 1
    else:
        prim = np.zeros(0, dtype=bool)
    if bool(len(pts)) != three_squares_representable(n):
        raise InvariantError(f"enumeration of n={n} contradicts the 4^a(8b+7) test")
    arr.setflags(write=False)
    prim.setflags(write=False)
    return LatticeSet(n, arr, prim)


def shell_orbits(P: np.ndarray) -> ShellOrbits:
    """Group integer points by their orbit under the 48 signed permutations."""
    key = np.sort(np.abs(P), axis=1)
    _, first, index, size = np.unique(
        key, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    return ShellOrbits(P[first], size, index.reshape(-1))


def orbit_gram_rows(P: np.ndarray, n: int, reps: np.ndarray):
    """Yield (r0, G), G[i, j] = reps[r0 + i] . P[j] as exact int64.

    Row blocks hold at most _GRAM_ENTRIES entries.  Below _FLOAT_SAFE the
    products go through BLAS in float64, where every partial sum is an
    exact integer (so the cast back is exact); above it they stay in int64.
    """
    step = max(1, _GRAM_ENTRIES // max(len(P), 1))
    if n <= _FLOAT_SAFE:
        PT = P.astype(np.float64).T
        R = reps.astype(np.float64)
        for r0 in range(0, len(reps), step):
            yield r0, (R[r0 : r0 + step] @ PT).astype(np.int64)
    else:
        for r0 in range(0, len(reps), step):
            yield r0, reps[r0 : r0 + step] @ P.T


def _merge_histograms(vals: list, cnts: list) -> tuple[np.ndarray, np.ndarray]:
    t, inv = np.unique(np.concatenate(vals), return_inverse=True)
    c = np.zeros(len(t), dtype=np.int64)
    np.add.at(c, inv, np.concatenate(cnts))
    return t, c


def _orbit_histogram(P: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct x.y over ordered pairs of a whole shell, with their counts.

    Block histograms are merged whenever they hold more than
    _GRAM_ENTRIES values, which bounds memory by a few blocks.
    """
    orb = shell_orbits(P)
    vals, cnts, pending = [], [], 0
    for size in np.unique(orb.size).tolist():  # at most six orbit sizes
        for _, g in orbit_gram_rows(P, n, orb.reps[orb.size == size]):
            v, k = np.unique(g, return_counts=True)
            vals.append(v)
            cnts.append(size * k)
            pending += len(v)
            if pending > _GRAM_ENTRIES:
                t, c = _merge_histograms(vals, cnts)
                vals, cnts, pending = [t], [c], len(t)
    return _merge_histograms(vals, cnts)


@lru_cache(maxsize=8)
def pair_table(n: int) -> PairCountTable:
    """Full inner-product histogram over ordered pairs of points.

    Built by the orbit-reduced Gram kernel.  Validates the marginals
    before returning: counts sum to N^2, the entries at +-n both equal N,
    and the table is symmetric in t -> -t.  An empty sphere yields an
    empty (flagged) table.
    """
    ls = enumerate_points(n)
    if ls.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        empty.setflags(write=False)
        return PairCountTable(n, empty, empty)
    t, c = _orbit_histogram(ls.points, n)
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


def points_near_pole(m: int, height: int) -> np.ndarray:
    """All x with |x|^2 = m^2 and m - x3 <= height.

    Scans x3 downward from the pole and solves x1^2 + x2^2 = m^2 - x3^2
    directly, avoiding enumeration of the whole sphere.
    """
    if m < 1:
        raise DomainError("m must be positive")
    if not 0 <= height < 2 * m:
        raise DomainError("need 0 <= height < 2m")
    pts: list[tuple[int, int, int]] = []
    for x3 in range(m, m - height - 1, -1):
        r = m * m - x3 * x3
        planar: set[tuple[int, int]] = set()
        for a in range(math.isqrt(r) + 1):
            rem = r - a * a
            b = math.isqrt(rem)
            if b * b == rem:
                planar.update({(a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a), (-b, -a)})
        pts.extend((u, v, x3) for u, v in planar)
    pts.sort()
    arr = np.array(pts, dtype=np.int64).reshape(len(pts), 3)
    if len(pts) and not np.all((arr.astype(object) ** 2).sum(axis=1) == m * m):
        raise InvariantError("near-pole point off the sphere")
    return arr


def save_points(ls: LatticeSet, fh) -> None:
    """Text format: header '# n=<n> N=<N>' then one 'x1 x2 x3' per line."""
    fh.write(f"# n={ls.n} N={ls.size}\n")
    for x1, x2, x3 in ls.points.tolist():
        fh.write(f"{x1} {x2} {x3}\n")


def load_points(fh) -> LatticeSet:
    header = fh.readline().strip()
    if not header.startswith("# n="):
        raise DomainError("missing point-set header")
    head, count = header[2:].split()
    n = int(head.split("=")[1])
    declared = int(count.split("=")[1])
    pts = []
    for line in fh:
        line = line.strip()
        if line:
            pts.append(tuple(int(v) for v in line.split()))
    if len(pts) != declared:
        raise DomainError("point count does not match header")
    arr = np.array(sorted(pts), dtype=np.int64).reshape(len(pts), 3)
    if len(pts) and not np.all((arr * arr).sum(axis=1) == n):
        raise InvariantError("loaded point off the sphere")
    prim = (
        np.gcd.reduce(np.abs(arr), axis=1) == 1
        if len(pts)
        else np.zeros(0, dtype=bool)
    )
    return LatticeSet(n, arr, prim)


def pair_table_csv(tbl: PairCountTable) -> str:
    lines = ["t,count"]
    for t, c in zip(tbl.t.tolist(), tbl.count.tolist()):
        lines.append(f"{t},{c}")
    return "\n".join(lines) + "\n"
