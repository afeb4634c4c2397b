"""Spatial statistics of finite point sets on the unit sphere.

Distances are Euclidean (chord) distances throughout, so a cap of chord
radius rho has normalized area rho^2/4 exactly and annulus areas are
(rho2^2 - rho1^2)/4.  Statistics that compare a projected lattice shell
against integer distance shells (Ripley counts) are evaluated on exact
integers whenever the set has an integer source, which removes
boundary misclassification entirely.

A point set is either a float set or the projection of a
`lattice.LatticeSet` (`project`), which it keeps as `shell`, its one
integer source: rows of squared length n <= 2^50, the points being those
rows over sqrt(n).  It is symmetric exactly when that shell carries the
orbit record `lattice.enumerate_points` built (`_orbits`): the stable z
order of the integer points and `shell_orbits` of the points in that
order.  A whole enumerated shell is whole orbits of the 48 signed
permutations, each point once, and every whole-shell shortcut rests on
that alone.  Its energies and Ripley counts walk one row per orbit
(below), its spacings query one point per orbit, and its annulus counts
fold each center into one sector.  Its covering radius needs only the
hull facets over one sector: one hull of the points near that sector and
a phantom vertex opposite it, accepted when a certificate shows those
facets are facets of the whole hull (see `covering_radius`), and the
winning plane is evaluated on its integer points, free of the
cancellation in 2 - 2*offset.  A set built by hand carries no record,
whatever its rows, and takes the routes of a float set; only its Ripley
count reads its integer rows.

Every pair sum of a point set (energies and Ripley counts) and every
Monte Carlo annulus count takes its tiles from one planner and its
products from one loop.  The planner, `_z_band`, takes points sorted by
z and cuts row blocks of one height, each over the columns whose z lies
within a reach of its rows', into tiles of at most _PAIR_ENTRIES
entries (64 x 1024 at the default); a coordinate of a difference is at
most its length, so every pair within the reach is in.  Every plan's
Gram products are predicted first, and past the "pair_products" budget
it is refused before any product.  A pair walk's rows are its columns,
from each row block's diagonal: Ripley counts plan at a reach just past
r, energies at reach inf, the whole upper triangle.  A symmetric set's
pair walk is a rectangle instead: its rows are the first point of each
orbit, sorted by z, and its columns every point in the record's z order
(`_pair_plan`).  A signed permutation maps the set onto itself and keeps
distances, so a sum over ordered pairs i != j is the sum over orbits of
the orbit's size times its row's sum over j.  An annulus count's rows
are a chunk of random centers (`number_variance`).  A rectangle with
fewer columns than a tile is wide takes taller row blocks.  The loop, `_products`, writes
each tile's matrix product into one workspace.  The pair walk,
`_distance_blocks`, multiplies augmented coordinates,
[x, |x|^2, 1] . [-2y, 1, |y|^2], so each tile holds squared distances,
each point's own entry at +inf, and every statistic reduces a tile by
one rule, `_ordered`: a diagonal tile's own square counts once and every
other entry twice, and an orbit row as many times as its orbit has
points.  Ripley counts of a lattice source, and the energy of a
symmetric set, walk the integer points, where every partial sum of the
product is an integer of at most 4n <= 2^52, so their squared distances
are exact in float64.  The energy divides them by n once and settles
none.  Float squared distances are within a few ulps of 4 of the
coordinate-difference form, and each statistic writes that form
(`_settle`) into only the entries it reads where the gap matters: a
float Ripley count into its pairs within _RIPLEY_TIE of r^2, so no
count depends on the shape of the tile that holds a pair, and a float
energy alone into the few below _CLOSE_D2, where the gap is a loss of
digits.  Every tile, and every mask
a count reduces, is a view of one array sized from its plan's largest
tile, overwritten in place (matmul and ufunc `out=`).  The s = 1 energy
takes 1/sqrt(d^2), two correctly rounded steps, not pow.

Nearest-neighbour spacings of every set need no pair loop: a kd-tree
offers each point its nearest candidates, and the spacing is the
coordinate-difference d^2 of the nearest other one, ties and duplicates
settled against every point near it.  On the integer points of a whole
shell each of those d^2 is an exact integer, so one routine serves float
sets and shells alike, and a symmetric set queries it at one point per
orbit of the signed permutations, which share their d^2.  The Legendre
pair sums in `harmonics` need no pair loop either: they come from the
same harmonic sums as its discrepancy bound, in chunks under the same
entry budget.

Monte Carlo statistics use a counter-based generator (Philox) keyed by
the caller's seed (`_rng`, which refuses a negative one), and every
randomized result embeds that seed.  A symmetric set's annulus counts fold
each center into the sector D (`lattice.fold`), which keeps its count,
and walk only the points near D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, DuplicatePointError, InvariantError, budget
from .lattice import LatticeSet, ShellOrbits, enumerate_points, fold

_PAIR_ENTRIES = 1 << 16  # Gram entries per tile of the pair kernel
_NORM_TOL = 1e-12
# below this squared distance the Gram form's rounding (about 1e-15
# absolute) would exceed 1e-12 relative, so differences are used instead
_CLOSE_D2 = 1e-3
# the Gram form and the difference form of one d^2 <= 4 differ by a few
# 1e-15 at most, so a float Ripley pair whose Gram-form d^2 lies farther
# than this from r^2 counts alike in both; nearer ones take the latter
_RIPLEY_TIE = 1e-12
_BAND_SLACK = 1e-11  # squared-chord slack of the band reach, see number_variance
_NN_TIE = 1e-9  # relative gap below which two nearest-neighbour candidates tie
_VARIANCE_FLOOR = 256  # number_variance's cost of one center in dot products
# D = {0 <= x <= y <= z} on S^2, a fundamental domain of the 48 signed
# permutations, is the spherical triangle with vertices e_z, (e_y + e_z)/sqrt 2
# and (1, 1, 1)/sqrt 3; its circumcap, centre _SECTOR_CENTER and chord radius
# _SECTOR_RADIUS (about 0.4765), holds it
_SECTOR_VERTICES = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
_SECTOR_VERTICES /= np.linalg.norm(_SECTOR_VERTICES, axis=1)[:, None]
_SECTOR_CENTER = np.cross(
    _SECTOR_VERTICES[2] - _SECTOR_VERTICES[0], _SECTOR_VERTICES[1] - _SECTOR_VERTICES[0]
)
_SECTOR_CENTER /= np.linalg.norm(_SECTOR_CENTER)
_SECTOR_RADIUS = float(np.linalg.norm(_SECTOR_VERTICES - _SECTOR_CENTER, axis=1).max())
_SECTOR_MARGIN = 2.5  # starting margin of the gathered cap, times N^(-1/4)
_SECTOR_SLACK = 1e-9  # chord slack on the safe side of every certificate test
_PLANE_TIE = 1e-12  # float offsets this close to the smallest are settled exactly


@dataclass
class UnitPointSet:
    """Points on S^2, an (N, 3) float array of unit rows to 1e-12.

    The constructor takes the points alone and refuses, with DomainError,
    any other shape and any row off the sphere.  `shell` is the integer
    source, the `lattice.LatticeSet` whose rows over sqrt(n) are the
    points, which only `project` sets; a set built by hand has none.
    """

    points: np.ndarray
    shell: LatticeSet | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError(f"points must be an (N, 3) array, not of shape {pts.shape}")
        if len(pts):
            norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
            if not np.abs(norms - 1.0).max() <= _NORM_TOL:  # NaN fails too
                raise DomainError("points must lie on the unit sphere to 1e-12")
        self.points = pts

    @property
    def size(self) -> int:
        return len(self.points)


def project(ls: LatticeSet) -> UnitPointSet:
    """Divide a lattice set by sqrt(n) to land on the unit sphere, keeping
    it as the points' `shell`: row i of the points is row i of `ls` over
    sqrt(n), and the orbit record, if `ls` carries one, comes with it."""
    pts = UnitPointSet(ls.points / math.sqrt(ls.n))
    pts.shell = ls
    return pts


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
    def cap_of_area(cls, sigma: float) -> "AnnulusSpec":
        if not 0 < sigma <= 1:
            raise DomainError("area sigma must lie in (0, 1]")
        return cls(0.0, 2.0 * math.sqrt(sigma))

    def dot_window(self) -> tuple[float, float]:
        """dist in [rho1, rho2]  <=>  dot in [1 - rho2^2/2, 1 - rho1^2/2].

        A cap (rho1 = 0) has no upper end and the whole sphere (rho2 = 2)
        no lower end: x.x and x.(-x) round past +-1, and a point on its
        center, or on its antipode, must still count.
        """
        lo = -math.inf if self.rho2 >= 2 else 1.0 - self.rho2**2 / 2.0
        hi = math.inf if self.rho1 == 0 else 1.0 - self.rho1**2 / 2.0
        return lo, hi


def _random_units(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0, k)
    phi = rng.uniform(0.0, 2.0 * math.pi, k)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def _rng(seed: int) -> np.random.Generator:
    """The counter-based generator (Philox) keyed by a non-negative seed."""
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, not {seed}")
    return np.random.Generator(np.random.Philox(seed))


def binomial_sample(n_points: int, seed: int) -> UnitPointSet:
    """n_points i.i.d. uniform points on S^2, reproducible per seed.

    Points past the "sample_points" budget are refused before any is drawn.
    """
    if n_points < 1:
        raise DomainError("need at least one point")
    budget("sample_points", n_points, "binomial sample")
    return UnitPointSet(_random_units(_rng(seed), n_points))


def _z_band(z: np.ndarray, reach, rows: np.ndarray | None = None):
    """The tiles of a walk over columns of ascending z within a reach in z.

    A tile (i0, i1, j0, j1) takes rows i0 <= i < i1 and columns
    j0 <= j < j1.  The rows run in blocks of a fixed height,
    h = isqrt(_PAIR_ENTRIES) // 4 (64 at the default, never below 1), and
    each row block's columns run to the first whose z passes its last
    row's z plus the reach, cut into tiles at most _PAIR_ENTRIES // h wide
    (1024), so no tile has more than _PAIR_ENTRIES entries.  Without
    `rows` the rows are the columns, and each row block starts at its
    diagonal (j0 = i0): its first tile, the diagonal tile, holds the
    block's own square, and the tiles hold every pair of the upper
    triangle whose z differ by at most the reach (all of it at reach inf).
    With `rows`, the ascending z of a second set (orbit rows or random
    centers), a row block starts at the first column whose z reaches its
    first row's z less the reach, and one with no column that near has
    no tile.  There the rows need no square diagonal tile, so fewer
    columns c than a tile is wide take row blocks _PAIR_ENTRIES // c high
    (2730 at c = 24), whose columns fit one tile.  Either plan's Gram
    products are predicted from the row blocks before any tile is listed,
    and past the "pair_products" budget the plan is refused with
    DomainError; a chunk of random centers predicts about 2^22 of them.
    """
    zr = z if rows is None else rows
    h = max(1, math.isqrt(_PAIR_ENTRIES) // 4)
    w = _PAIR_ENTRIES // h
    if rows is not None:
        # fewer columns than a tile is wide: taller row blocks, as many entries
        h = max(h, _PAIR_ENTRIES // max(1, min(len(z), w)))
        w = _PAIR_ENTRIES // h
    i0 = np.arange(0, len(zr), h)
    i1 = np.minimum(i0 + h, len(zr))
    j1 = np.searchsorted(z, zr[i1 - 1] + reach, side="right")
    j0 = i0 if rows is None else np.searchsorted(z, rows[i0] - reach, side="left")
    budget("pair_products", int(((i1 - i0) * (j1 - j0)).sum()), "pair kernel")
    return [
        (a, b, j, min(j + w, c))
        for a, b, d, c in zip(i0.tolist(), i1.tolist(), j0.tolist(), j1.tolist())
        for j in range(d, c, w)
    ]


def _workspace(tiles, dtype=np.float64) -> np.ndarray:
    """One flat array as long as the largest tile (rows x columns) of a plan."""
    return np.empty(max(((i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in tiles), default=0), dtype)


def _block(buf: np.ndarray, b: int, c: int) -> np.ndarray:
    """The first b * c entries of a workspace as a C-ordered b x c block."""
    return buf[: b * c].reshape(b, c)


def _products(left: np.ndarray, right: np.ndarray, tiles):
    """Yield (i0, i1, j0, G) over the tiles (i0, i1, j0, j1) of a `_z_band`
    plan, G = left[i0:i1] @ right[:, j0:j1] written into one workspace,
    so G is valid only until the next tile and free to be overwritten."""
    buf = _workspace(tiles, left.dtype)
    for i0, i1, j0, j1 in tiles:
        yield i0, i1, j0, np.matmul(left[i0:i1], right[:, j0:j1], out=_block(buf, i1 - i0, j1 - j0))


def _distance_blocks(P: np.ndarray, tiles, rows: np.ndarray | None = None):
    """Yield (i0, j0, d2) over the tiles (i0, i1, j0, j1) of a `_z_band` plan of P.

    d2 holds |X_i - P_j|^2 for rows i0 <= i < i0 + len(d2) and columns
    j0 <= j < j1, the `_products` of the augmented coordinates
    [X_i, |X_i|^2, 1] and [-2 P_j, 1, |P_j|^2], each written once in its
    final layout (R x 5 and 5 x N).  Without `rows` the plan is a pair
    plan, X is P, and a diagonal tile's self entries (i = j) are set to
    +inf.  With `rows`, indices into P in ascending order, the plan is a
    rectangle, X_i is P[rows[i]], and each row's own column is set to
    +inf where a tile holds it.  Every pair sum of a point set is a
    reduction of these tiles by `_ordered`.

    The product is always taken in float64.  Integer points (the int64
    rows of a `lattice.LatticeSet`, n <= 2^50) give exact d2: every
    partial sum of the augmented product, in any order, is at most
    |P_i|^2 + 2|P_i||P_j| + |P_j|^2 <= 4n <= 2^52 in magnitude, an
    integer float64 holds.  On float points of the unit sphere each term
    is at most 2, so d2 is within a few ulps of 4 (a few 1e-15) of its
    coordinate-difference form, and a statistic that needs more digits at
    some entries writes that form there (`_settle`).  d2 is `_products`'
    workspace.
    """
    sq = np.einsum("ij,ij->i", P, P)
    left = np.empty((len(P), 5))
    right = np.empty((5, len(P)))
    left[:, :3], left[:, 3], left[:, 4] = P, sq, 1
    np.multiply(P.T, -2, out=right[:3])
    right[3], right[4] = 1, sq
    for i0, _, j0, d2 in _products(left if rows is None else left[rows], right, tiles):
        if rows is not None:  # ascending, so the rows whose own column is here are a run
            a, b = np.searchsorted(rows[i0 : i0 + len(d2)], (j0, j0 + d2.shape[1]))
            d2[np.arange(a, b), rows[i0 + a : i0 + b] - j0] = np.inf
        elif j0 == i0:
            np.fill_diagonal(d2, np.inf)
        yield i0, j0, d2


def _settle(P: np.ndarray, i0: int, j0: int, d2: np.ndarray, flat: np.ndarray) -> None:
    """Write the coordinate-difference form |P_i - P_j|^2 into the entries
    of a `_distance_blocks` tile d2 at (i0, j0) whose flat indices are
    `flat`: it keeps the digits of a small d2 and is never negative."""
    i, j = np.divmod(flat, d2.shape[1])
    diff = P[i0 + i] - P[j0 + j]
    d2.flat[flat] = np.einsum("ij,ij->i", diff, diff)


def _ordered(total, x: np.ndarray, i0: int, j0: int, weight: np.ndarray | None = None):
    """total(x) over the ordered pairs of a `_distance_blocks` tile x at (i0, j0).

    In a pair plan, a diagonal tile's (j0 = i0) own square (its first
    rows-many columns) holds both orders of each of its pairs, and every
    other entry of any tile holds one order of a pair whose other order no
    tile holds; so the square counts once and the rest twice.  In a
    rectangle of orbit rows, `weight` holds every row's orbit size, and
    each row's total counts that many times.
    """
    if weight is not None:
        return total(x, axis=1) @ weight[i0 : i0 + len(x)]
    return 2 * total(x) - total(x[:, : len(x)]) if j0 == i0 else 2 * total(x)


def _orbits(pts: UnitPointSet) -> ShellOrbits | None:
    """The orbit record of a symmetric set, None for any other set.

    A set is symmetric exactly when its `shell` carries the record that
    `lattice.enumerate_points` built: the stable z order of the integer
    points and `shell_orbits` of the points in that order, with the
    order.  A whole enumerated shell is whole orbits of the 48 signed
    permutations, each point once.  A float set, or a set projected from
    rows built by hand (a fragment, a union of orbits, a shuffled shell),
    has no record.
    """
    return None if pts.shell is None else pts.shell.orbits


def _pair_plan(P: np.ndarray, reach, orb: ShellOrbits | None):
    """(tiles, rows, weight) of a pair sum over the points P, sorted by z.

    Any other set (no record) walks the `_z_band` pair plan of P, with no
    rows or weights.  A symmetric set, P its integer points in the z order
    of its record `orb` (`_orbits`), walks a rectangle: its rows are the
    first point of each orbit, in ascending order and so sorted by z, each
    weighted by its orbit's size, and its columns are every point.
    """
    if orb is None:
        return _z_band(P[:, 2], reach), None, None
    k = np.argsort(orb.first)
    return _z_band(P[:, 2], reach, P[orb.first[k], 2]), orb.first[k], orb.size[k]


def _check_duplicates(order: np.ndarray, i0: int, j0: int, d2: np.ndarray, close: np.ndarray) -> None:
    """Raise on the first pair of a `_distance_blocks` tile closer than
    chord 1e-7, named by its indices before the walk's `order`; such
    pairs count as equal, and all are among the settled `close`."""
    dup = close[d2.flat[close] < 1e-14]
    if len(dup):
        i, j = divmod(int(dup[0]), d2.shape[1])
        raise DuplicatePointError(int(order[i0 + i]), int(order[j0 + j]))


def uniform_energy_integral(s: float) -> float:
    """Pair integral of |x - y|^(-s) over S^2 x S^2: 2^(1-s) / (2-s)."""
    if not 0 < s < 2:
        raise DomainError("s must lie in (0, 2)")
    return 2.0 ** (1.0 - s) / (2.0 - s)


def riesz_energy(pts: UnitPointSet, s: float) -> float:
    """Sum of |P_i - P_j|^(-s) over ordered pairs i != j.

    The uniform baseline is uniform_energy_integral(s) * N^2.  Duplicate
    points raise DuplicatePointError naming the offending indices.  The
    energy walks the z band at reach inf (`_pair_plan`), whose Gram
    products are predicted first, and past the "pair_products" budget it
    is refused before any product.

    A symmetric set (`_orbits`) walks its integer points in its record's
    z order, one row per orbit against every point, so every d2 is an
    exact integer D = |x - y|^2, and D/n is correctly rounded; it has no
    duplicates.
    Any other set walks the whole upper triangle of its float points.
    Their d2 carry an absolute error of a few 1e-15, a loss of digits
    where d2 is small, so the entries below _CLOSE_D2 are settled from
    coordinate differences (`_settle`); every pair closer than about 0.03
    is among them, duplicates included.  A tile whose first column's z
    lies more than sqrt(_CLOSE_D2) above its last row's z holds no such
    pair, since |dz| <= |P_i - P_j|, and is not scanned.
    """
    if not 0 < s < 2:
        raise DomainError("s must lie in (0, 2)")
    if pts.size < 2:
        raise DomainError("need at least two points")
    orb = _orbits(pts)
    order = np.argsort(pts.points[:, 2], kind="stable") if orb is None else orb.order
    P = (pts.points if orb is None else pts.shell.points)[order]
    tiles, rows, weight = _pair_plan(P, math.inf, orb)
    parts = []
    for i0, j0, d2 in _distance_blocks(P, tiles, rows):
        if orb is not None:
            d2 /= pts.shell.n
        elif P[j0, 2] - P[i0 + len(d2) - 1, 2] <= math.sqrt(_CLOSE_D2):
            close = np.flatnonzero(d2 < _CLOSE_D2)
            if len(close):
                _settle(P, i0, j0, d2, close)
                _check_duplicates(order, i0, j0, d2, close)
        # the terms overwrite the tile's workspace in place
        if s == 1.0:
            # two correctly rounded steps, several times cheaper than pow
            np.sqrt(d2, out=d2)
            np.divide(1.0, d2, out=d2)
        else:
            np.power(d2, -s / 2.0, out=d2)
        parts.append(float(_ordered(np.sum, d2, i0, j0, weight)))
    return math.fsum(parts)


def ripley_baseline(n_points: int, r: float) -> float:
    """Expected pair count for the binomial process: N(N-1) r^2 / 4."""
    return n_points * (n_points - 1) * r * r / 4.0


def ripley_k(pts: UnitPointSet, r: float) -> int:
    """Ordered pairs (i, j), i != j, of points at chord distance strictly below r.

    The count runs over index pairs, so a point repeated in the set pairs
    with its copy at distance 0 on every path.  For a projected lattice
    shell the count is taken over exact integer squared distances, so it
    agrees exactly with the inner-product sum pairs_in_band(n, 0, r^2 * n);
    a hand-built lattice set (`project` of a `lattice.LatticeSet`) is
    counted on its integer rows too, repeated rows and all.

    A coordinate of a difference is at most its length, so only pairs
    whose z differ by at most a reach can count, and the count walks a
    z band (`_z_band`) that holds every such pair.  On integer
    points a counted pair has dz^2 <= d^2 <= dmax, so the reach
    isqrt(dmax) is exact.  On float points it is sqrt(r^2 + _BAND_SLACK),
    as in `number_variance`: a computed d^2 below r^2 is within about
    1e-15 of the true one, and the slack also outgrows the rounding of
    z + reach at every r.  A symmetric set (`_orbits`) walks one row per
    orbit against every point, in its record's z order (`_pair_plan`).
    The band's Gram products are predicted first, and past the
    "pair_products" budget the count is refused before any product.

    On float points the Gram form of d^2 is within a few 1e-15 of the
    coordinate-difference form |x - y|^2, and BLAS rounds it differently
    for different tile shapes.  A pair whose Gram-form d^2 lies within
    _RIPLEY_TIE of r^2 is therefore settled from differences (`_settle`),
    and the count equals that of |x - y|^2 < r^2 over all pairs, whatever
    the tiling.  No other pair needs settling, close ones included: a
    Gram-form d^2 farther than _RIPLEY_TIE from r^2 lies on the same side
    of r^2 as its difference form, however small it is, and when
    r^2 < _RIPLEY_TIE the band reaches below 0, so duplicates and
    near-duplicates lie in it and are settled.  On integer points the
    band is empty: d^2 < dmax + 1 is one exact compare per tile.
    """
    if not 0 < r <= 2:
        raise DomainError("r must lie in (0, 2]")
    if pts.size < 2:
        return 0
    r2 = r * r
    if pts.shell is not None:
        lim = Fraction(r) * Fraction(r) * pts.shell.n  # exact rational threshold
        dmax = (lim.numerator - 1) // lim.denominator
        X = pts.shell.points
        reach = math.isqrt(dmax)
        lo = hi = dmax + 1
    else:
        X = pts.points
        reach = math.sqrt(r2 + _BAND_SLACK)
        lo, hi = r2 - _RIPLEY_TIE, r2 + _RIPLEY_TIE
    orb = _orbits(pts)
    P = X[np.argsort(X[:, 2], kind="stable") if orb is None else orb.order]
    tiles, rows, weight = _pair_plan(P, reach, orb)
    below = _workspace(tiles, bool)
    above = _workspace(tiles, bool) if hi > lo else None
    total = 0
    for i0, j0, d2 in _distance_blocks(P, tiles, rows):
        within = np.less(d2, lo, out=_block(below, *d2.shape))
        if above is not None:
            band = np.less(d2, hi, out=_block(above, *d2.shape))
            if np.count_nonzero(band) > np.count_nonzero(within):
                _settle(P, i0, j0, d2, np.flatnonzero(np.not_equal(within, band, out=band)))
                np.less(d2, r2, out=within)
        total += _ordered(np.count_nonzero, within, i0, j0, weight)
    return int(total)


@dataclass
class SpacingReport:
    """Nearest-neighbour spacings rescaled by N/4.

    The rescaled values N d_j^2 / 4 have mean at most 4 for any set (the
    caps of radius d_j/2 around the points are disjoint, so
    sum d_j^2 <= 16) and tend to a unit-mean exponential law for uniform
    random points.
    """

    rescaled_values: np.ndarray
    ks_distance_to_exp: float
    mean: float

    def __post_init__(self):
        if self.mean > 4.0 + 1e-9:
            raise InvariantError("mean rescaled spacing exceeds the packing bound 4")


def _nn_d2(P: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """min over j != i of |P_i - P_j|^2 from coordinate differences, for
    each row i of P, or for each row i in `at`.

    A kd-tree (Friedman, Bentley & Finkel 1977) offers each point its
    three nearest candidates, itself among them unless it has two or more
    duplicates.  The tree's distances and the difference form differ by
    rounding only, far below _NN_TIE relative, but may order near-equal
    candidates differently (a compiler may fuse the tree's multiply-adds).
    So the nearest other candidate holds the minimum unless the next one
    lies within _NN_TIE of it.  Such a row, a tie or a duplicate (d = 0),
    takes the minimum over every point the tree finds within
    (1 + _NN_TIE) times the nearest distance, so it equals the minimum
    over all j != i.

    P may be float or int64.  On the integer points of a lattice set
    (n <= 2^50) every coordinate, difference and square is
    an integer of at most 2^52, and so is every |P_i - P_j|^2 <= 4n; the
    tree and the float64 sums of squares therefore compute each squared
    distance exactly, and the result is the exact minimum.
    """
    from scipy.spatial import cKDTree

    N = len(P)
    Q, rows = (P, np.arange(N)) if at is None else (P[at], at)
    tree = cKDTree(P)
    d, idx = tree.query(Q, k=min(3, N))
    own = idx == rows[:, None]
    diff = Q[:, None, :] - P[idx]
    d2 = (diff * diff).sum(axis=2, dtype=np.float64)
    d2[own] = np.inf
    d[own] = np.inf
    d.sort(axis=1)
    nn = d2.min(axis=1)
    tied = np.flatnonzero(d[:, 1] <= d[:, 0] * (1.0 + _NN_TIE))
    if len(tied):
        near = tree.query_ball_point(Q[tied], d[tied, 0] * (1.0 + _NN_TIE))
        i = np.repeat(tied, [len(c) for c in near])
        j = np.concatenate(near).astype(np.intp)
        diff = Q[i] - P[j]
        dj = (diff * diff).sum(axis=1, dtype=np.float64)
        dj[rows[i] == j] = np.inf
        np.minimum.at(nn, i, dj)
    return nn


def nn_spacings(pts: UnitPointSet) -> SpacingReport:
    """Nearest-neighbour spacings N d_j^2 / 4 and their KS distance to Exp(1).

    Every set takes d_j^2 from one kd-tree routine (`_nn_d2`), as the
    coordinate-difference form |P_j - P_i|^2 of its nearest other point,
    so a duplicate point gives 0.  A symmetric set (`_orbits`), an
    enumerated shell, runs it on its integer points, where every
    squared distance D = 2(n - x.y) is exact, and divides by n once:
    d_j^2 = D/n, correctly rounded.  It queries the tree at the first
    point of each orbit of the 48 signed permutations in its record,
    about N/48 queries: a signed permutation g maps the set onto itself
    and keeps distances, so g x has the nearest distance of x, and each
    point takes its orbit's exact D through the record's orbit index.
    The values are those of querying every point, bit for bit.  Any other
    set queries every point.
    """
    if pts.size < 2:
        raise DomainError("need at least two points")
    N = pts.size
    orb = _orbits(pts)
    if orb is not None:  # the record's rows are in its z order
        d2min = np.empty(N)
        d2min[orb.order] = (_nn_d2(pts.shell.points, at=orb.order[orb.first]) / pts.shell.n)[orb.index]
    else:
        d2min = _nn_d2(pts.points)
    rescaled = N * d2min / 4.0
    x = np.sort(rescaled)
    cdf = 1.0 - np.exp(-x)
    i = np.arange(1, N + 1)
    ks = float(max(np.max(i / N - cdf), np.max(cdf - (i - 1) / N)))
    return SpacingReport(rescaled, ks, float(rescaled.mean()))


def covering_radius(pts: UnitPointSet) -> float:
    """Largest chord distance from any point of S^2 to the set, exactly.

    The farthest point sits over a facet of the convex hull: a facet at
    distance `off` from the origin has all its vertices at chord distance
    rho = sqrt(2 - 2*off) from the outward unit normal u, the cap of radius
    rho around u holds no point in its interior, and the covering radius
    is the maximum of rho over facets.  Requires the origin strictly inside
    the hull; otherwise (all points in a closed hemisphere) the method is
    invalid and the covering radius is at least sqrt(2).

    A symmetric set (`_orbits`), an enumerated shell, needs only the
    facets over one symmetry sector.  The set is
    invariant under the 48 signed permutations, so a deepest
    hole lies in D = {0 <= x <= y <= z}, which the cap of chord radius
    r_D around c0 holds (`_SECTOR_CENTER`, `_SECTOR_RADIUS`).  One hull is
    taken of the shell points within r_D + M of c0 and a phantom vertex at
    -c0, and its result is accepted when
      (a) every facet offset is positive;
      (b) every facet through the phantom has its opposite arc farther
          than r_D from c0;
      (c) every other facet with |u - c0| <= r_D + rho has its empty cap
          inside the gathered one, |u - c0| + rho <= r_D + M, or else
          its longest edge L is at most sqrt 2 and its nearest vertex
          lies farther than r_D + L from c0, and is left out,
    each with _SECTOR_SLACK on the safe side.  Otherwise M doubles, and
    once r_D + M reaches 2 the whole shell's hull is taken.  Proof
    sketch: by (a) the spherical triangles of the facets tile S^2, and a
    triangle lies in its facet's cap.  A triangle through the phantom is
    the union of arcs from -c0 to its opposite arc, along which the
    distance to c0 falls, so by (b) it misses the cap around c0 and the
    other triangles cover D.  A triangle also lies within L of each of its
    vertices a when L <= sqrt 2: a point of it is y/|y| for a convex
    combination y of the vertices, with a.y >= 1 - L^2/2 >= 0 and
    |y| <= 1.  So the triangles meeting the cap are among the facets that
    (c) keeps; it leaves out the slivers between points on the rim of the
    gathered cap, whose caps can pass chord 2 from c0 though they lie far
    from D.  A shell point left out lies farther than r_D + M from c0,
    so by (c) it lies outside the kept caps, which are then empty for the
    whole shell: they are facets of the whole hull, and their rho is at
    most the covering radius.  Every point of a facet's triangle is
    within rho of one of its vertices, so the deepest hole in D is within
    the largest of these rho, which is therefore the covering radius.

    The winning plane is then evaluated on the integer points: for a
    facet within _PLANE_TIE of the smallest float offset, with primitive
    integer normal nu and vertex a, q = |nu|^2 n and p = |nu.a| are
    exact and off^2 = p^2/q.  The largest (q - p^2)/q, compared exactly,
    gives rho = sqrt(2(q - p^2) / (q + p sqrt(q))), which has none of
    the cancellation of 2 - 2*off.

    Any other set takes the whole hull, and its winning facets are
    evaluated in the difference form, which keeps those digits too (see
    `_float_covering`).
    """
    if pts.size < 4:
        raise DomainError("fewer than 4 points always sit in a closed hemisphere")
    if _orbits(pts) is not None:
        return _shell_covering(pts)
    return _float_covering(pts.points, *_hull(pts.points))


def _hull(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(simplices, offsets) of the whole hull of P, refused unless every
    facet's offset is positive (the origin strictly inside)."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(P)
    except QhullError as exc:
        raise DomainError(
            "degenerate configuration: points lie in a closed hemisphere or a plane"
        ) from exc
    off = -hull.equations[:, 3]
    if off.min() <= 1e-12:
        raise DomainError("points lie in a closed hemisphere; covering radius >= sqrt(2)")
    return hull.simplices, off


def _float_covering(P: np.ndarray, simplices: np.ndarray, off: np.ndarray) -> float:
    """The largest rho of the facets within _PLANE_TIE of the smallest
    offset, each from coordinate differences: u is the facet's unit normal,
    the normalised cross product of its edge differences, and rho the least
    |u - v| over its vertices v.  A degenerate triangle (zero normal)
    carries no plane, as in `_exact_covering`."""
    T = P[simplices[off <= off.min() + _PLANE_TIE]]
    u = np.cross(T[:, 1] - T[:, 0], T[:, 2] - T[:, 0])
    norm = np.linalg.norm(u, axis=1)
    T, u = T[norm > 0], u[norm > 0] / norm[norm > 0, None]
    u *= np.sign(np.einsum("ij,ij->i", u, T[:, 0]))[:, None]  # outward
    diff = u[:, None, :] - T
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).min(axis=1).max()))


def _shell_covering(pts: UnitPointSet) -> float:
    """`covering_radius` of a symmetric set: the sector hull, else the
    whole hull, which a set of at most 48 points (one orbit) takes at once.
    Row i of the points is row i of its shell over sqrt(n) (`project`),
    so the hull's vertex indices name the integer points of its planes."""
    P, A, N = pts.points, pts.shell.points, pts.size
    margin = _SECTOR_MARGIN * N**-0.25
    while N > 48 and _SECTOR_RADIUS + margin < 2.0:
        reach = _SECTOR_RADIUS + margin
        near = np.flatnonzero(P @ _SECTOR_CENTER >= 1.0 - reach * reach / 2.0)
        facets = _sector_facets(P[near], reach)
        if facets is not None:
            return _exact_covering(A[near], pts.shell.n, *facets)
        margin *= 2.0
    return _exact_covering(A, pts.shell.n, *_hull(P))


def _sector_facets(Q: np.ndarray, reach: float):
    """(simplices, offsets) of the facets over the sector that the hull of
    Q and a phantom vertex at -c0 certifies, Q being the points within
    chord `reach` of c0; None if the certificate of `covering_radius`
    fails."""
    from scipy.spatial import ConvexHull, QhullError

    k = len(Q)
    try:
        hull = ConvexHull(np.vstack([Q, -_SECTOR_CENTER]))
    except QhullError:
        return None
    off = -hull.equations[:, 3]
    if off.min() <= 0.0:  # (a)
        return None
    # (b): the arc from x to y lies in the cap of chord radius |x - m| around
    # their normalized midpoint m, so it keeps that far less |m - c0| from c0
    phantom = (hull.simplices == k).any(axis=1)
    arcs = np.sort(hull.simplices[phantom], axis=1)[:, :2]
    x, y = Q[arcs[:, 0]], Q[arcs[:, 1]]
    m = x + y
    m /= np.linalg.norm(m, axis=1)[:, None]
    gap = np.linalg.norm(m - _SECTOR_CENTER, axis=1) - np.linalg.norm(x - m, axis=1)
    if not (gap > _SECTOR_RADIUS + _SECTOR_SLACK).all():
        return None
    # (c): a facet's triangle lies in its cap, and within chord L of each of
    # its vertices when its longest edge L is at most sqrt 2; only a facet
    # whose cap leaves the gathered one needs the second test
    rho = np.sqrt(2.0 - 2.0 * np.minimum(off, 1.0))
    dist = np.linalg.norm(hull.equations[:, :3] - _SECTOR_CENTER, axis=1)
    meets = ~phantom & (dist <= _SECTOR_RADIUS + rho + _SECTOR_SLACK)
    broken = np.flatnonzero(meets & (dist + rho > reach - _SECTOR_SLACK))
    if len(broken):
        T = hull.points[hull.simplices[broken]]
        L = np.linalg.norm(T - np.roll(T, 1, axis=1), axis=2).max(axis=1)
        nearest = np.linalg.norm(T - _SECTOR_CENTER, axis=2).min(axis=1)
        if not ((L <= math.sqrt(2.0)) & (nearest > _SECTOR_RADIUS + L + _SECTOR_SLACK)).all():
            return None
        meets[broken] = False
    return hull.simplices[meets], off[meets]


def _exact_covering(A: np.ndarray, n: int, simplices: np.ndarray, off: np.ndarray) -> float:
    """The largest rho of the facets within _PLANE_TIE of the smallest
    offset, from exact integer planes (see `covering_radius`).

    The normal is made primitive and p positive, so a plane's value does
    not depend on the triangle that carries it; equal (q - p^2)/q of
    different planes are settled by the larger float, so the result does
    not depend on which facets the hull listed either.  A degenerate
    triangle of a coplanar face (zero normal) carries no plane.
    """
    T = A[simplices[off <= off.min() + _PLANE_TIE]]
    # coordinates of a shell up to 2^50 are at most 2^25, so every entry
    # of these cross products is at most 2^53 and int64 holds it exactly
    normals = np.cross(T[:, 1] - T[:, 0], T[:, 2] - T[:, 0])
    planes = []
    for nu, a in zip(normals.tolist(), T[:, 0].tolist()):
        g = math.gcd(*nu)
        if g == 0:
            continue
        nu = [x // g for x in nu]
        p = abs(sum(x * y for x, y in zip(nu, a)))
        q = sum(x * x for x in nu) * n
        planes.append((Fraction(q - p * p, q), math.sqrt(2 * (q - p * p) / (q + p * math.sqrt(q)))))
    return max(planes)[1]


# Cube faces as (normal axis, sign, the two in-face axes); a face point
# (u, v) in [-1, 1]^2 sits at sign on the normal axis and u, v on the others.
_CUBE_FACES = (
    (0, 1.0, 1, 2), (0, -1.0, 1, 2),
    (1, 1.0, 2, 0), (1, -1.0, 2, 0),
    (2, 1.0, 0, 1), (2, -1.0, 0, 1),
)
_COVER_CHUNK = 1 << 16  # cells whose geometry and query share one pass
_COVER_MIN_RESOLUTION = 1e-9


def _cell_geometry(face, i, j, w):
    """Centres and circumradii of cube-sphere cells of face width w.

    Cell (face, i, j) is [-1 + i w, -1 + (i+1) w] x [-1 + j w, ...] in
    face coordinates, normalised onto the sphere.  The circumradius is
    measured in face-local coordinates, which the face map only permutes
    and reflects, from component differences so it keeps its digits at
    widths near 1e-9.
    """
    u0 = -1.0 + i * w
    v0 = -1.0 + j * w
    um = u0 + 0.5 * w
    vm = v0 + 0.5 * w
    nc = np.sqrt(um * um + vm * vm + 1.0)
    cu, cv, cz = um / nc, vm / nc, 1.0 / nc
    rho2 = np.zeros_like(um)
    for u in (u0, u0 + w):
        for v in (v0, v0 + w):
            nx = np.sqrt(u * u + v * v + 1.0)
            d2 = (cu - u / nx) ** 2 + (cv - v / nx) ** 2 + (cz - 1.0 / nx) ** 2
            np.maximum(rho2, d2, out=rho2)
    centres = np.empty((len(face), 3))
    for f, (axis, sign, a, b) in enumerate(_CUBE_FACES):
        on = face == f
        centres[on, axis] = sign * cz[on]
        centres[on, a] = cu[on]
        centres[on, b] = cv[on]
    return centres, np.sqrt(rho2)


def covering_interval(pts: UnitPointSet, resolution: float) -> tuple[float, float]:
    """Certified interval [lo, hi] holding the covering radius, hi - lo <= resolution.

    Branch and bound over cube-sphere cells.  Each of the six cube faces
    is split into a k0 x k0 grid in face coordinates, k0 = ceil(sqrt(N/6)),
    and each cell is mapped to S^2 by normalising (gnomonic projection).
    The planes bounding a cell pass through the origin, so the cell is the
    sphere's intersection with the convex cone spanned by its four corners
    and its edges are great-circle arcs.  For a centre c the set
    {x : c.x >= tau |x|} is a convex cone when tau >= 0; taking tau the
    smallest c.x over the corners, it contains the corners and so the
    whole cell.  That tau is positive: with c the image of the face-grid
    midpoint (um, vm), c.x has the sign of um u + vm v + 1, which is 1 on
    a whole face and at least 1/2 on cells at most 1 wide.  Hence no point of the
    cell is farther from c than a corner, and the circumradius rho is the
    largest chord from c to a corner.

    With d(c) the distance from c to the nearest point of the set, every
    d(c) is a lower bound on the covering radius (`lo` is the largest
    seen), and d(c) + rho bounds it from above over the cell by the
    triangle inequality.  Each level queries a kd-tree once for all
    centres, drops the cells with d(c) + rho <= lo and splits the rest
    into four, until hi - lo <= resolution, hi being the largest
    d(c) + rho over the remaining cells.  Independent of the convex-hull
    method.

    Where the farthest set is flat (one point, two antipodal points, a
    set in a hemisphere) the remaining cells grow like 1/rho; a level
    that would query more cells than the "cover_cells" budget is refused
    up front.
    """
    from scipy.spatial import cKDTree

    if pts.size < 1:
        raise DomainError("need at least one point")
    if not _COVER_MIN_RESOLUTION <= resolution < 1:
        raise DomainError(f"resolution must lie in [{_COVER_MIN_RESOLUTION:g}, 1)")
    k = math.isqrt(-(-pts.size // 6) - 1) + 1  # ceil(sqrt(N / 6))
    budget("cover_cells", 6 * k * k, "covering interval's starting grid")
    tree = cKDTree(pts.points)
    grid = np.arange(k * k)
    face = np.repeat(np.arange(6), k * k)
    i = np.tile(grid // k, 6)
    j = np.tile(grid % k, 6)
    lo = 0.0
    while True:
        up = np.empty(len(face))
        for start in range(0, len(face), _COVER_CHUNK):
            part = slice(start, start + _COVER_CHUNK)
            centres, rho = _cell_geometry(face[part], i[part], j[part], 2.0 / k)
            d, _ = tree.query(centres, k=1)
            lo = max(lo, float(d.max()))
            up[part] = d + rho
        keep = up > lo
        hi = max(lo, float(up.max()))
        if hi - lo <= resolution:
            return lo, hi
        cells = 4 * int(np.count_nonzero(keep))
        budget("cover_cells", cells, f"covering interval at resolution {resolution:g} (a flat farthest set)")
        face = np.repeat(face[keep], 4)
        i = 2 * np.repeat(i[keep], 4) + np.tile([0, 0, 1, 1], cells // 4)
        j = 2 * np.repeat(j[keep], 4) + np.tile([0, 1, 0, 1], cells // 4)
        k *= 2


def covering_radius_mesh(pts: UnitPointSet, resolution: float = 1e-3) -> float:
    """Lower end of `covering_interval`: a point of S^2 at this distance
    from the set exists, and the true covering radius exceeds it by at
    most `resolution`."""
    return covering_interval(pts, resolution)[0]


@dataclass
class VarianceReport:
    """Monte Carlo counts over uniformly random annulus centers."""

    samples: int
    mean: float
    variance: float
    seed: int
    variance_stderr: float


def _annulus_histogram(
    pts: UnitPointSet, spec: AnnulusSpec, samples: int, seed: int
) -> np.ndarray:
    """hist[k] = how many of the random centers of `number_variance` see
    exactly k points in their annulus."""
    N = pts.size
    lo, hi = spec.dot_window()
    reach = math.sqrt(spec.rho2**2 + _BAND_SLACK)
    P = pts.points
    orb = _orbits(pts)
    order = np.argsort(P[:, 2], kind="stable") if orb is None else orb.order
    gather = _SECTOR_RADIUS + reach + _SECTOR_SLACK
    if orb is not None and gather < 2.0:  # the gathered points, still in the record's z order
        order = order[(P @ _SECTOR_CENTER >= 1.0 - gather * gather / 2.0)[order]]
    # the points sorted by z, one C-contiguous 3 x N factor for every chunk
    PT = np.ascontiguousarray(P[order].T)
    rng = _rng(seed)
    hist = np.zeros(N + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(N, 1))
    remaining = samples
    while remaining:
        k = min(chunk, remaining)
        remaining -= k
        centers = _random_units(rng, k)
        if orb is not None:
            centers = fold(centers)
        centers = centers[np.argsort(centers[:, 2])]
        tiles = _z_band(PT[2], reach, centers[:, 2])
        inside, below = _workspace(tiles, bool), _workspace(tiles, bool)
        counts = np.zeros(k, dtype=np.int32)  # int32 sums cost 2/3 of int64 ones
        for i0, i1, _, D in _products(centers, PT, tiles):
            M = np.greater_equal(D, lo, out=_block(inside, *D.shape))
            if hi < math.inf:  # a cap has no upper end
                M &= np.less_equal(D, hi, out=_block(below, *D.shape))
            counts[i0:i1] += M.sum(axis=1, dtype=np.int32)
        hist += np.bincount(counts, minlength=N + 1)
    return hist


def number_variance(
    pts: UnitPointSet, spec: AnnulusSpec, samples: int, seed: int
) -> VarianceReport:
    """Sample mean and unbiased variance of annulus counts at random centers.

    The center distribution is uniform on S^2 (equivalent to a random
    rotation for these zonal regions), so the mean is N * area in
    expectation.  Counts are binned exactly; all moments come from the
    integer histogram, including the standard error of the variance
    estimate via the fourth central moment.

    Each center is dotted only with the points its annulus can reach in z.
    A coordinate of a difference is at most its length, so a point x in
    the annulus of c has |x_z - c_z| <= |x - c| <= rho2.  The points are
    sorted by z once; each chunk of centers is drawn as in a dense count,
    then sorted by z (the histogram does not depend on their order) and
    walked on the pair walk's tiles (`_z_band` with the centers as rows,
    `_products`): a row block of centers meets only the points with z
    within the reach of its first and last center.  The reach is
    sqrt(rho2^2 + _BAND_SLACK), not rho2, so that no point whose computed
    dot passes lo is dropped: with |x|, |c| within 1e-12 of 1 (the
    `UnitPointSet` tolerance) and a dot and lo each rounded by under
    1e-15, a passing dot gives |x - c|^2 = |x|^2 + |c|^2 - 2 x.c
    <= rho2^2 + 2.1e-12 < rho2^2 + _BAND_SLACK.  A fixed pad on rho2 would
    not do: for a cap of radius 1e-4 the slack sqrt(rho2^2 + 2.1e-12) - rho2
    is 1e-8.  The counts, and every moment, therefore equal those of
    dotting each center with all N points.  A center's count is summed
    over the tiles of its row block, which may be several or none; the
    tiles' dots and masks are views of workspaces sized once per chunk.

    A symmetric set (`_orbits`) walks one symmetry sector, its gathered
    points taken in its record's z order.  Its chunks are drawn as above,
    then each center c is folded into D = {0 <= x <= y <= z}
    (`lattice.fold`, absolute values then a sort), a signed permutation g
    with g c in D.  Since g P = P and g keeps dot products, g c sees as
    many points as c: in exact arithmetic the same count, and in floats
    dots of the same three products summed in another order, which move
    a count only for a center within an ulp or two of its window's edge,
    as the tile shapes of BLAS already do.  D lies in the cap of chord
    radius r_D around c0 (`_SECTOR_RADIUS`, `_SECTOR_CENTER`), and a point
    x that a center c in D counts has |x - c| < reach (the band argument
    above), so |x - c0| <= |x - c| + |c - c0| < reach + r_D.  Only the
    points within R = r_D + reach + _SECTOR_SLACK of c0 are kept: the
    slack widens R^2 by more than 2 r_D 1e-9, far past the few 1e-12 by
    which the dot test x.c0 >= 1 - R^2/2 can err on norms within 1e-12 of
    1.  Where R reaches 2 every point is kept.  The walk then runs on the
    kept points, R^2/4 of the shell: about N/9 for a cap of area 0.01, and
    never below r_D^2/4, about N/18.

    samples x max(N, _VARIANCE_FLOOR) dot products are predicted first,
    and past the "center_products" budget the count is refused before
    any center is drawn.
    """
    if samples < 100:
        raise DomainError("need at least 100 samples")
    N = pts.size
    budget("center_products", samples * max(N, _VARIANCE_FLOOR), f"{samples} random centers")
    hist = _annulus_histogram(pts, spec, samples, seed)
    # the moments skip the empty counts outside the occupied range, whose
    # terms are exact zeros
    occupied = np.flatnonzero(hist)
    first = int(occupied[0])
    weights = hist[first : occupied[-1] + 1].tolist()
    s1 = sum(w * k for k, w in enumerate(weights, first))
    s2 = sum(w * k * k for k, w in enumerate(weights, first))
    S = samples
    mean = s1 / S
    variance = (s2 - s1 * s1 / S) / (S - 1)
    m4 = sum(w * (k - mean) ** 4 for k, w in enumerate(weights, first)) / S
    var_of_var = max(0.0, (m4 - (S - 3) / (S - 1) * variance**2) / S)
    return VarianceReport(
        samples=samples,
        mean=mean,
        variance=variance,
        seed=seed,
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
    """Equal-area partition into `cells` cells; cells past the
    "partition_cells" budget are refused before anything is allocated."""
    if cells < 1:
        raise DomainError("need at least one cell")
    budget("partition_cells", cells, "equal-area partition")
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
    Cauchy-Schwarz.  `equal_area_cells` refuses cells past its budget
    up front.
    """
    if cells < 2:
        raise DomainError("need at least two cells")
    part = equal_area_cells(cells)
    ids = part.assign(pts.points)
    counts = np.bincount(ids, minlength=part.size)
    return int(counts.sum()), int((counts * counts).sum())
