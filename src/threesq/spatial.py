"""Spatial statistics of finite point sets on the unit sphere.

Distances are Euclidean (chord) distances throughout, so a cap of chord
radius rho has normalized area rho^2/4 exactly and annulus areas are
(rho2^2 - rho1^2)/4.  Statistics that compare a projected lattice shell
against integer distance shells (Ripley counts) are evaluated on exact
integers whenever the set remembers its integer source, which removes
boundary misclassification entirely.

A whole lattice shell is a set that remembers its source n and integer
points and has as many points as `enumerate_points(n)`; testing that
builds no pair table.  A whole shell takes its energies from the pair
table, sum over t < n of c(t) f(2(n - t)/n), with every distance exact
from integers, and its nearest-neighbour spacings from the orbit-reduced
Gram kernel without the table: one representative row per orbit of the
signed-permutation group, whose nearest-neighbour distance every point of
the orbit shares.  Ripley counts stay geometric, so they remain a second
path to the pair table.

Every other pair sum of a point set (energies, Ripley counts, spacings
and the Legendre pair sums in `harmonics`) goes through one kernel,
`_pair_blocks`, which walks the upper block triangle of the set's Gram
matrix under one entry budget.  Each statistic maps a block to its value;
Ripley counts of a lattice shell feed it the integer points and compare
exact integer squared distances.  Float squared distances come from the
Gram form |x|^2 + |y|^2 - 2x.y, and the few below _CLOSE_D2, where that
form loses digits, are recomputed from coordinate differences.

Monte Carlo statistics use a counter-based generator (Philox) keyed by
the caller's seed, and every randomized result embeds that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, DuplicatePointError, InvariantError
from .lattice import (
    _FLOAT_SAFE,
    LatticeSet,
    enumerate_points,
    orbit_gram_rows,
    pair_table,
    shell_orbits,
)

_PAIR_ENTRIES = 1 << 16  # Gram entries per block of the pair kernel
_NORM_TOL = 1e-12
# below this squared distance the Gram form's rounding (about 1e-15
# absolute) would exceed 1e-12 relative, so differences are used instead
_CLOSE_D2 = 1e-3


@dataclass
class UnitPointSet:
    """Points on S^2, optionally remembering the integer shell they came from."""

    points: np.ndarray
    source_n: int | None = None
    int_points: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if len(pts):
            norms = np.linalg.norm(pts, axis=1)
            if np.abs(norms - 1.0).max() > _NORM_TOL:
                raise DomainError("points must lie on the unit sphere to 1e-12")
        self.points = pts

    @property
    def size(self) -> int:
        return len(self.points)

    def antipodal(self) -> "UnitPointSet":
        ip = None if self.int_points is None else -self.int_points
        return UnitPointSet(-self.points, self.source_n, ip)


def project(ls: LatticeSet) -> UnitPointSet:
    """Divide a lattice shell by sqrt(n) to land on the unit sphere."""
    if ls.size == 0:
        return UnitPointSet(np.zeros((0, 3)), ls.n, ls.points)
    return UnitPointSet(ls.points / math.sqrt(ls.n), ls.n, ls.points)


def unit_shell(n: int) -> UnitPointSet:
    return project(enumerate_points(n))


@dataclass(frozen=True)
class AnnulusSpec:
    """Chord-distance annulus rho1 <= dist <= rho2; rho1 = 0 is a cap."""

    rho1: float
    rho2: float

    def __post_init__(self):
        if not (0 <= self.rho1 < self.rho2 <= 2):
            raise DomainError("need 0 <= rho1 < rho2 <= 2")

    @property
    def area(self) -> float:
        """Normalized area, exactly (rho2^2 - rho1^2) / 4."""
        return (self.rho2**2 - self.rho1**2) / 4.0

    @classmethod
    def cap(cls, rho: float) -> "AnnulusSpec":
        return cls(0.0, rho)

    @classmethod
    def cap_of_area(cls, sigma: float) -> "AnnulusSpec":
        if not 0 < sigma <= 1:
            raise DomainError("cap area must be in (0, 1]")
        return cls(0.0, 2.0 * math.sqrt(sigma))

    def dot_window(self) -> tuple[float, float]:
        # dist in [rho1, rho2]  <=>  dot in [1 - rho2^2/2, 1 - rho1^2/2]
        return 1.0 - self.rho2**2 / 2.0, 1.0 - self.rho1**2 / 2.0


def _random_units(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0, k)
    phi = rng.uniform(0.0, 2.0 * math.pi, k)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def binomial_sample(n_points: int, seed: int) -> UnitPointSet:
    """n_points i.i.d. uniform points on S^2, reproducible per seed."""
    if n_points < 1:
        raise DomainError("need at least one point")
    rng = np.random.Generator(np.random.Philox(seed))
    return UnitPointSet(_random_units(rng, n_points))


def _pair_blocks(A: np.ndarray):
    """Yield (i0, G, w) over the upper block triangle of the Gram matrix of A.

    G = A[i0 : i0 + b] @ A[i0:].T is a fresh array of at most about
    _PAIR_ENTRIES entries, and w weights its columns 1 on the block's own
    square (the first b) and 2 beyond.  Summing w * f(G) over the blocks
    gives the sum of f(x.y) over ordered pairs, diagonal included, for any
    symmetric f.  Every pair loop of a point set goes through here.
    """
    N = len(A)
    rows = max(1, _PAIR_ENTRIES // max(N, 1))
    for i0 in range(0, N, rows):
        b = min(rows, N - i0)
        w = np.full(N - i0, 2.0)
        w[:b] = 1.0
        yield i0, A[i0 : i0 + b] @ A[i0:].T, w


def _distance_blocks(P: np.ndarray):
    """Yield (i0, d2, w): _pair_blocks as squared distances, self at +inf.

    Entries below _CLOSE_D2 are recomputed as |x - y|^2 from coordinate
    differences, so close pairs keep their digits and d2 is never negative.
    """
    sq = np.einsum("ij,ij->i", P, P)
    for i0, G, w in _pair_blocks(P):
        b = len(G)
        d2 = sq[i0 : i0 + b, None] + sq[None, i0:] - 2.0 * G
        idx = np.arange(b)
        d2[idx, idx] = np.inf
        k = np.flatnonzero(d2 < _CLOSE_D2)  # a 2-D np.nonzero costs 10x more
        if len(k):
            i, j = np.divmod(k, d2.shape[1])
            diff = P[i0 + i] - P[i0 + j]
            d2.flat[k] = np.einsum("ij,ij->i", diff, diff)
        yield i0, d2, w


def _is_whole_shell(pts: UnitPointSet) -> bool:
    """True if pts is a whole lattice shell: its source's every point."""
    return (
        pts.source_n is not None
        and pts.int_points is not None
        and enumerate_points(pts.source_n).size == pts.size
    )


def _table_energy(n: int, s: float, cap: float | None = None) -> float:
    """Sum over t < n of c(t) min(d^(-s), cap), with d^2 = 2(n - t)/n.

    The one summation behind both energies of a whole shell, read from its
    pair table, so the capped sum never exceeds the plain one.
    """
    tbl = pair_table(n)
    d2 = 2.0 * (n - tbl.t[:-1]) / n
    terms = d2 ** (-s / 2.0)
    if cap is not None:
        np.minimum(terms, cap, out=terms)
    return math.fsum((tbl.count[:-1] * terms).tolist())


def _check_duplicates(i0: int, d2: np.ndarray) -> None:
    # pairs closer than chord 1e-7 count as equal
    dup = np.flatnonzero(d2 < 1e-14)
    if len(dup):
        i, j = divmod(int(dup[0]), d2.shape[1])
        raise DuplicatePointError(i0 + i, i0 + j)


def uniform_energy_integral(s: float) -> float:
    """Pair integral of |x - y|^(-s) over S^2 x S^2: 2^(1-s) / (2-s)."""
    if not 0 < s < 2:
        raise DomainError("s must lie in (0, 2)")
    return 2.0 ** (1.0 - s) / (2.0 - s)


def riesz_energy(pts: UnitPointSet, s: float) -> float:
    """Sum of |P_i - P_j|^(-s) over ordered pairs i != j.

    The uniform baseline is uniform_energy_integral(s) * N^2.  Duplicate
    points raise DuplicatePointError naming the offending indices.
    """
    if not 0 < s < 2:
        raise DomainError("s must lie in (0, 2)")
    if pts.size < 2:
        raise DomainError("need at least two points")
    if _is_whole_shell(pts):
        return _table_energy(pts.source_n, s)
    parts = []
    for i0, d2, w in _distance_blocks(pts.points):
        _check_duplicates(i0, d2)
        parts.append(float((d2 ** (-s / 2.0) @ w).sum()))
    return math.fsum(parts)


def truncated_energy(pts: UnitPointSet, s: float, rho: float) -> float:
    """Riesz sum with the potential capped at n^(s*rho).

    Equals riesz_energy whenever the minimal gap exceeds n^(-rho); needs
    a lattice source to set the cutoff.
    """
    if not 0 < rho <= 0.5:
        raise DomainError("rho must lie in (0, 1/2]")
    if not 0 < s < 2:
        raise DomainError("s must lie in (0, 2)")
    if pts.source_n is None:
        raise DomainError("truncated potential needs a lattice source n")
    if pts.size < 2:
        raise DomainError("need at least two points")
    cap = float(pts.source_n) ** (s * rho)
    if _is_whole_shell(pts):
        return _table_energy(pts.source_n, s, cap)
    parts = []
    for i0, d2, w in _distance_blocks(pts.points):
        _check_duplicates(i0, d2)
        parts.append(float((np.minimum(d2 ** (-s / 2.0), cap) @ w).sum()))
    return math.fsum(parts)


def ripley_baseline(n_points: int, r: float) -> float:
    """Expected pair count for the binomial process: N(N-1) r^2 / 4."""
    return n_points * (n_points - 1) * r * r / 4.0


def ripley_k(pts: UnitPointSet, r: float) -> int:
    """Ordered pairs of distinct points at chord distance strictly below r.

    For a projected lattice shell the count is taken over exact integer
    squared distances, so it agrees exactly with the inner-product sum
    pairs_in_band(n, 0, r^2 * n).
    """
    if not 0 < r <= 2:
        raise DomainError("r must lie in (0, 2]")
    N = pts.size
    if N < 2:
        return 0
    if pts.source_n is not None and pts.int_points is not None:
        n = pts.source_n
        lim = Fraction(r) * Fraction(r) * n  # exact rational threshold
        dmax = (lim.numerator - 1) // lim.denominator
        if dmax < 1:
            return 0
        P = pts.int_points
        sq = np.einsum("ij,ij->i", P, P)
        total = 0
        # float64 Gram entries are exact integers up to _FLOAT_SAFE
        for i0, G, w in _pair_blocks(P.astype(np.float64) if n <= _FLOAT_SAFE else P):
            d2 = sq[i0 : i0 + len(G), None] + sq[None, i0:] - 2 * G.astype(np.int64)
            total += int((((d2 >= 1) & (d2 <= dmax)) @ w).sum())
        return total
    total = 0
    r2 = r * r
    for _, d2, w in _distance_blocks(pts.points):
        total += int(((d2 < r2) @ w).sum())
    return total


@dataclass
class SpacingReport:
    """Nearest-neighbour spacings rescaled by N/4.

    The rescaled values N d_j^2 / 4 have mean at most 4 for any set (the
    caps of radius d_j/2 around the points are disjoint, so
    sum d_j^2 <= 16) and tend to a unit-mean exponential law for uniform
    random points.
    """

    n: int | None
    rescaled_values: np.ndarray
    ks_distance_to_exp: float
    mean: float

    def __post_init__(self):
        if self.mean > 4.0 + 1e-9:
            raise InvariantError("mean rescaled spacing exceeds the packing bound 4")


def _shell_nn_d2(P: np.ndarray, n: int) -> np.ndarray:
    """Squared nearest-neighbour distance of each point of a whole shell.

    A signed permutation keeps the shell and all distances, so each orbit
    takes the value of its representative: the largest x.y below n on its
    Gram row (x.y = n only for y = x), as 2(n - t)/n.
    """
    orb = shell_orbits(P)
    tmax = np.empty(len(orb.reps), dtype=np.int64)
    for r0, g in orbit_gram_rows(P, n, orb.reps):
        tmax[r0 : r0 + len(g)] = g.max(axis=1, where=g < n, initial=-n)
    return (2.0 * (n - tmax) / n)[orb.index]


def nn_spacings(pts: UnitPointSet) -> SpacingReport:
    if pts.size < 2:
        raise DomainError("need at least two points")
    N = pts.size
    if _is_whole_shell(pts):
        d2min = _shell_nn_d2(pts.int_points, pts.source_n)
    else:
        d2min = np.full(N, np.inf)
        for i0, d2, _ in _distance_blocks(pts.points):
            # the block holds pairs (i, j >= i0) once: fold both ends
            b = len(d2)
            d2min[i0 : i0 + b] = np.minimum(d2min[i0 : i0 + b], d2.min(axis=1))
            d2min[i0:] = np.minimum(d2min[i0:], d2.min(axis=0))
    rescaled = N * d2min / 4.0
    x = np.sort(rescaled)
    cdf = 1.0 - np.exp(-x)
    i = np.arange(1, N + 1)
    ks = float(max(np.max(i / N - cdf), np.max(cdf - (i - 1) / N)))
    return SpacingReport(pts.source_n, rescaled, ks, float(rescaled.mean()))


def covering_radius(pts: UnitPointSet) -> float:
    """Largest chord distance from any point of S^2 to the set, exactly.

    The farthest point sits over a facet of the convex hull: a facet at
    distance `off` from the origin has all its vertices at chord distance
    sqrt(2 - 2*off) from the outward unit normal, and the covering radius
    is the maximum over facets.  Requires the origin strictly inside the
    hull; otherwise (all points in a closed hemisphere) the method is
    invalid and the covering radius is at least sqrt(2).
    """
    from scipy.spatial import ConvexHull, QhullError

    if pts.size < 4:
        raise DomainError("fewer than 4 points always sit in a closed hemisphere")
    try:
        hull = ConvexHull(pts.points)
    except QhullError as exc:
        raise DomainError(
            "degenerate configuration: points lie in a closed hemisphere or a plane"
        ) from exc
    off = -hull.equations[:, 3]
    if off.min() <= 1e-12:
        raise DomainError("points lie in a closed hemisphere; covering radius >= sqrt(2)")
    return float(math.sqrt(2.0 - 2.0 * off.min()))


def _fibonacci_mesh(count: int) -> np.ndarray:
    i = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def covering_radius_mesh(pts: UnitPointSet, resolution: float = 1e-3) -> float:
    """Mesh lower bound on the covering radius.

    Queries a Fibonacci mesh whose own covering radius is below
    `resolution`, so the true value exceeds this estimate by at most
    `resolution`.  Independent of the convex-hull method.  The kd-tree
    query uses every core.
    """
    from scipy.spatial import cKDTree

    if pts.size < 1:
        raise DomainError("need at least one point")
    if not 0 < resolution < 1:
        raise DomainError("resolution must lie in (0, 1)")
    # Fibonacci mesh covering radius is 2.728/sqrt(M), so this M keeps it
    # below `resolution`
    count = int(min(3e7, math.ceil(7.5 / resolution**2)))
    mesh = _fibonacci_mesh(count)
    tree = cKDTree(pts.points)
    best = 0.0
    step = 1 << 20
    for i0 in range(0, count, step):
        d, _ = tree.query(mesh[i0 : i0 + step], k=1, workers=-1)
        best = max(best, float(d.max()))
    return best


def count_in(pts: UnitPointSet, center, spec: AnnulusSpec) -> int:
    """Points with rho1 <= |P - center| <= rho2, boundaries included."""
    c = np.asarray(center, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(c) - 1.0) > 1e-9:
        raise DomainError("center must be a unit vector")
    lo, hi = spec.dot_window()
    dots = pts.points @ c
    return int(((dots >= lo) & (dots <= hi)).sum())


@dataclass
class VarianceReport:
    """Monte Carlo counts over uniformly random annulus centers."""

    n: int | None
    annulus: AnnulusSpec
    samples: int
    mean: float
    variance: float
    expected_mean: float
    conjectured_variance: float
    seed: int
    n_points: int
    variance_stderr: float


def number_variance(
    pts: UnitPointSet, spec: AnnulusSpec, samples: int, seed: int
) -> VarianceReport:
    """Sample mean and unbiased variance of annulus counts at random centers.

    The center distribution is uniform on S^2 (equivalent to a random
    rotation for these zonal regions), so the mean is N * area in
    expectation.  Counts are binned exactly; all moments come from the
    integer histogram, including the standard error of the variance
    estimate via the fourth central moment.
    """
    if samples < 100:
        raise DomainError("need at least 100 samples")
    N = pts.size
    lo, hi = spec.dot_window()
    rng = np.random.Generator(np.random.Philox(seed))
    hist = np.zeros(N + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(N, 1))
    remaining = samples
    while remaining:
        k = min(chunk, remaining)
        remaining -= k
        centers = _random_units(rng, k)
        dots = centers @ pts.points.T
        counts = ((dots >= lo) & (dots <= hi)).sum(axis=1)
        hist += np.bincount(counts, minlength=N + 1)
    weights = hist.tolist()
    s1 = sum(w * k for k, w in enumerate(weights))
    s2 = sum(w * k * k for k, w in enumerate(weights))
    S = samples
    mean = s1 / S
    variance = (s2 - s1 * s1 / S) / (S - 1)
    m4 = sum(w * (k - mean) ** 4 for k, w in enumerate(weights)) / S
    var_of_var = max(0.0, (m4 - (S - 3) / (S - 1) * variance**2) / S)
    sigma = spec.area
    return VarianceReport(
        n=pts.source_n,
        annulus=spec,
        samples=samples,
        mean=mean,
        variance=variance,
        expected_mean=N * sigma,
        conjectured_variance=N * sigma,
        seed=seed,
        n_points=N,
        variance_stderr=math.sqrt(var_of_var),
    )


@dataclass
class CellPartition:
    """Equal-area zonal partition: latitude bands cut into equal sectors.

    Each cell has normalized area exactly 1/K because band thickness in z
    is proportional to the band's sector count.
    """

    cells: int
    u_edges: np.ndarray  # cumulative 1 - z breakpoints, len bands + 1
    sectors: np.ndarray  # cells per band
    offsets: np.ndarray  # first cell id of each band

    @property
    def size(self) -> int:
        return self.cells

    def assign(self, points: np.ndarray) -> np.ndarray:
        u = 1.0 - points[:, 2]
        band = np.clip(
            np.searchsorted(self.u_edges[1:-1], u, side="right"),
            0,
            len(self.sectors) - 1,
        )
        phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * math.pi)
        m = self.sectors[band]
        sector = np.minimum((phi / (2.0 * math.pi) * m).astype(np.int64), m - 1)
        return self.offsets[band] + sector

    def diameter_bound(self) -> float:
        """Upper bound on the chord diameter of any cell."""
        best = 0.0
        for b in range(len(self.sectors)):
            z1 = 1.0 - self.u_edges[b]
            z2 = 1.0 - self.u_edges[b + 1]
            a1 = math.sqrt(max(0.0, 1.0 - z1 * z1))
            a2 = math.sqrt(max(0.0, 1.0 - z2 * z2))
            chord_z = math.hypot(a1 - a2, z1 - z2)
            dphi = min(2.0 * math.pi / int(self.sectors[b]), math.pi)
            a_max = 1.0 if z1 * z2 <= 0 else max(a1, a2)
            width = 2.0 * a_max * math.sin(dphi / 2.0)
            best = max(best, min(2.0, chord_z + width))
        return best


def equal_area_cells(cells: int) -> CellPartition:
    if cells < 1:
        raise DomainError("need at least one cell")
    bands = max(1, round(math.sqrt(math.pi * cells) / 2.0))
    bands = min(bands, cells)
    centers_u = (np.arange(bands) + 0.5) * 2.0 / bands
    z = 1.0 - centers_u
    weights = np.sqrt(np.clip(1.0 - z * z, 1e-12, None))
    m = np.maximum(1, np.rint(cells * weights / weights.sum()).astype(np.int64))
    while m.sum() > cells:
        m[np.argmax(m)] -= 1
    while m.sum() < cells:
        m[np.argmin(m / weights)] += 1
    u_edges = np.concatenate([[0.0], np.cumsum(2.0 * m / cells)])
    u_edges[-1] = 2.0
    offsets = np.concatenate([[0], np.cumsum(m)[:-1]])
    return CellPartition(cells, u_edges, m, offsets)


def box_moment(pts: UnitPointSet, cells: int) -> tuple[int, int]:
    """Cell occupancy sums (sum of counts, sum of squared counts).

    Cells form an equal-area zonal partition; the first component always
    equals the number of points, and sum of squares >= N^2 / K by
    Cauchy-Schwarz.
    """
    if cells < 2:
        raise DomainError("need at least two cells")
    part = equal_area_cells(cells)
    ids = part.assign(pts.points)
    counts = np.bincount(ids, minlength=part.size)
    return int(counts.sum()), int((counts * counts).sum())
