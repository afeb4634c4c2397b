"""Legendre and spherical-harmonic machinery for point sets on S^2.

Zonal expansions of cap/annulus indicators in Legendre series, harmonic
sums over point sets (plain and normalized by the point count), the
closed-form count variance over random centers that those sums imply,
and discrepancy bounds built from the same sums.

Normalization is pinned by two identities rather than by convention:
the degree-0 zonal coefficient of a region of normalized area sigma is
h(0) = 4*pi*sigma, and the variance series must reproduce
V = integral of |Z - N*sigma|^2 over centers exactly on closed-form test
cases (a single point gives sigma*(1-sigma), an antipodal pair gives
2*sigma*(1-2*sigma) for caps with rho^2 < 2).  With the harmonic basis
orthonormal against the un-normalized area measure, the degree-m
aggregate of plain harmonic sums is

    sum_j W_j^2 = (2m+1)/(4*pi) * sum_{x,y} P_m(x.y)

and V = sum_{m>=1} h(m)^2/(4*pi) * aggregate(m).

Every set takes the pair sums S_m = sum_{x,y} P_m(x.y) from the addition
theorem, as sums of squares of its harmonic sums over every degree at
once (`_harmonic_sums`): O(N M^2) work with no pair loop, against
O(N^2 M) for the pairs.  A symmetric set, an enumerated shell (whole
orbits of the 48 signed permutations, each point once), which
`spatial._orbits` knows by the orbit record its `shell` carries from the
enumeration, sums over the three cyclic images of each orbit's first
point, about N/16 rows, and keeps the orders its symmetry leaves.  The
discrepancy bound reads the magnitudes of the same harmonic sums.  The
basis sums in `weyl_sums` run order outer, one degree at a time, over
every point, so they stay an independent check of both.  No statistic
reads the pair table; its readers are `lattice.pairs_in_band` and
`lattice.pair_count`, and the `pairs` and `verify-arith` commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, budget
from .spatial import _PAIR_ENTRIES, AnnulusSpec, UnitPointSet, _orbits, _random_units, _rng, unit_shell

MAX_DEGREE = 2000
# power-of-two scale of the order recurrence, so that sectoral values of
# points near s = 1/e stay out of the subnormal range up to MAX_DEGREE
_ORDER_SCALE = 2.0**900
# cap_discrepancy_estimate's cost of one center in dot products: each row
# is sorted and searched in Python, about 10 us against 10 ns a product
_ESTIMATE_FLOOR = 1024


def _legendre_seq(m_max: int, x):
    """P_0(x), ..., P_m_max(x) by the three-term recurrence, x a float or an array."""
    p_prev, p_cur = np.ones_like(x), x
    yield p_prev
    for k in range(1, m_max + 1):
        if k > 1:
            p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
        yield p_cur


def zonal_coeffs(spec: AnnulusSpec, m_max: int) -> np.ndarray:
    """Legendre coefficients h(0), ..., h(m_max) of an annulus indicator.

    h(m) = 2*pi * integral of P_m over the indicator's support in
    t = cos(angle), evaluated through the antiderivative
    (P_{m+1} - P_{m-1}) / (2m+1); h(0) = 4*pi*area.
    """
    if m_max < 0:
        raise DomainError("m_max must be nonnegative")
    t_hi = 1.0 - spec.rho1**2 / 2.0
    t_lo = 1.0 - spec.rho2**2 / 2.0
    hi, lo = (np.fromiter(_legendre_seq(m_max + 1, t), np.float64, m_max + 2) for t in (t_hi, t_lo))
    h = np.empty(m_max + 1)
    h[0] = 2.0 * math.pi * (t_hi - t_lo)
    m = np.arange(1, m_max + 1)
    h[1:] = 2.0 * math.pi * ((hi[2:] - hi[:-2]) - (lo[2:] - lo[:-2])) / (2 * m + 1)
    return h


def _pair_legendre_sums(pts: UnitPointSet, m_max: int) -> np.ndarray:
    """S_m = sum over all ordered pairs (diagonal included) of P_m(x.y), m <= m_max.

    From the addition theorem, S_m = 4 pi/(2m+1) (|W_0|^2 + 2 sum_{mu>=1}
    |W_mu|^2) over the harmonic sums W_m^mu of `_harmonic_sums`.  Every
    term is a sum of squares, so S_m >= 0 exactly, and S_0 = N^2.  Work is
    O(R m_max^2) over R rows (N, or 3 per orbit on a symmetric set), which
    beats the O(N^2 m_max) of the pairs while m_max is below about N (at
    N = 500, m_max = 400 the pairs were about 3x faster; no caller runs
    there).
    """
    W, start = _harmonic_sums(pts, m_max)
    sums = np.empty(m_max + 1)
    sums[0] = float(pts.size) * pts.size
    for m in range(1, m_max + 1):
        w = W[start[m] : start[m + 1]]
        sq = w.real * w.real + w.imag * w.imag
        sums[m] = 4.0 * math.pi / (2 * m + 1) * (sq[0] + 2.0 * sq[1:].sum())
    return sums


def _harmonic_sums(pts: UnitPointSet, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex harmonic sums W_m^mu of a point set, 0 <= mu <= m <= m_max.

    W_m^mu = sum_x P~_m^mu(z_x) e^{i mu phi_x}, with P~ the fully normalized
    associated Legendre function of `_assoc_legendre_rows`; degree m
    holds orders 0..m at [start[m]:start[m + 1]].  Y_m^mu = P~_m^mu
    e^{i mu phi} runs its recurrence in complex form, degree outer and every
    order at once: the degree step P~_m^mu = a z P~_{m-1}^mu - b P~_{m-2}^mu
    (same a, b; b is 0 at mu = m - 1) has real coefficients, and the
    sectoral step, with the same Condon-Shortley sign, carries
    s e^{i phi} = x + iy, so no angle is formed and the poles need no care.
    At the poles the degree step's rounding grows like m^2 eps: one point
    there gives S_m = 1 within 2e-14 at m = 60 and 9e-11 at m = 2000.

    The quarter turn about z, y -> -y and z -> -z each map a symmetric set
    onto itself, so W_m^mu vanishes unless m is even and 4 | mu, and there
    it is the sum of Re Y_m^mu; the other orders are set to 0, and the sums
    are returned real.  Each order kept, f = Re Y_m^mu, is invariant under
    the group H of the 16 signed permutations that fix the z axis, and the
    48 signed permutations are the three cosets H, Hc and Hc^2 of the
    cyclic shift c: (x, y, z) -> (y, z, x).  Summing f(g x0) over all 48 g
    counts each point of the orbit O of x0 48/|O| times, and it is
    16 (f(x0) + f(c x0) + f(c^2 x0)); so f sums over O to |O|/3 times
    f(x0) + f(c x0) + f(c^2 x0), also when coordinates of x0 are equal.
    A symmetric set therefore sums over the three cyclic images of the
    first point of each orbit of its record, each weighted |O|/3 through
    the recurrence's starting value.

    Degrees past MAX_DEGREE are refused before the orbits are read, and R
    rows (points, or 3 per orbit) past the "harmonic_terms" budget of
    `errors.BUDGETS`, R (m_max + 1)(m_max + 2)/2 order terms, before any
    allocation.  Rows go in chunks of _PAIR_ENTRIES //
    (m_max + 1), so the three recurrence arrays hold at most about
    _PAIR_ENTRIES entries each, and the order sums are accumulated across
    chunks (153 at m_max = 16, no more than _PAIR_ENTRIES up to
    m_max = 360, 32 MB at MAX_DEGREE).
    """
    if m_max > MAX_DEGREE:
        raise DomainError(f"m_max must be at most {MAX_DEGREE} for the harmonic sums")
    orb = _orbits(pts)
    if orb is None:
        U, weight = pts.points, np.ones(pts.size)
    else:  # (x, y, z), (y, z, x) and (z, x, y) of each orbit's first point
        U = np.concatenate([np.roll(pts.points[orb.order[orb.first]], -k, axis=1) for k in range(3)])
        weight = np.tile(orb.size / 3, 3)
    start = np.arange(m_max + 2)
    start = start * (start + 1) // 2
    budget("harmonic_terms", len(U) * int(start[-1]), f"harmonic sums to degree {m_max}")
    acc = np.zeros(start[-1], dtype=complex)
    orders = np.arange(m_max, dtype=np.float64)
    rows = max(1, _PAIR_ENTRIES // (m_max + 1))
    for i0 in range(0, len(U), rows):
        X = U[i0 : i0 + rows]
        z, xy = X[:, 2], X[:, 0] + 1j * X[:, 1]
        prev = np.zeros((m_max + 1, len(X)), dtype=complex)
        cur = np.zeros_like(prev)
        tmp = np.empty_like(prev)
        cur[0] = _ORDER_SCALE / math.sqrt(4.0 * math.pi) * weight[i0 : i0 + rows]
        acc[0] += cur[0].sum()
        for m in range(1, m_max + 1):
            mu = orders[:m]
            den = m * m - mu * mu
            a = np.sqrt((4.0 * m * m - 1.0) / den)[:, None]
            b = np.sqrt((2.0 * m + 1.0) * (m - 1.0 - mu) * (m - 1.0 + mu) / ((2.0 * m - 3.0) * den))[:, None]
            # degree m into the buffer of degree m - 2
            np.multiply(cur[:m], z, out=tmp[:m])
            tmp[:m] *= a
            prev[:m] *= b
            np.subtract(tmp[:m], prev[:m], out=prev[:m])
            np.multiply(cur[m - 1], xy, out=prev[m])
            prev[m] *= -math.sqrt((2 * m + 1) / (2.0 * m))
            prev, cur = cur, prev
            acc[start[m] : start[m + 1]] += cur[: m + 1].sum(axis=1)
    acc /= _ORDER_SCALE
    if orb is not None:  # order mu of degree m sits at start[m] + mu
        m = np.repeat(np.arange(m_max + 1), np.arange(1, m_max + 2))
        acc = np.where((m % 2 == 0) & ((np.arange(len(acc)) - start[m]) % 4 == 0), acc.real, 0.0)
    return acc, start


def _assoc_legendre_rows(deg: int, z: np.ndarray, s: np.ndarray):
    """Yield the fully normalized P~_deg^mu(z) for mu = 0..deg, one (N,)
    row at a time, so that a caller holds a few arrays of N floats.

    Normalization sqrt((2 deg + 1)/(4 pi) * (deg-mu)!/(deg+mu)!) is baked
    into the recurrences so every intermediate stays O(1) times
    _ORDER_SCALE, which is divided out of each row.  The scale keeps the
    sectoral values of points near s = 1/e out of the subnormal range up
    to MAX_DEGREE; being a power of two it changes no digit elsewhere.
    The degree steps of one order run in place on three buffers.
    """
    pmm = np.full(len(z), _ORDER_SCALE * math.sqrt(1.0 / (4.0 * math.pi)))
    p_prev, p_cur, tmp = np.empty((3, len(z)))
    for mu in range(deg + 1):
        if mu > 0:
            pmm = -math.sqrt((2 * mu + 1) / (2.0 * mu)) * s * pmm
        if mu == deg:
            yield pmm / _ORDER_SCALE
            return
        p_prev[:] = pmm
        np.multiply(z, math.sqrt(2 * mu + 3.0), out=p_cur)
        p_cur *= pmm
        for nu in range(mu + 2, deg + 1):  # p_cur <- a z p_cur - b p_prev
            a = math.sqrt((4.0 * nu * nu - 1.0) / (nu * nu - mu * mu))
            b = math.sqrt(
                (2.0 * nu + 1.0) * (nu - 1.0 - mu) * (nu - 1.0 + mu) / ((2.0 * nu - 3.0) * (nu * nu - mu * mu))
            )
            np.multiply(z, a, out=tmp)
            tmp *= p_cur
            p_prev *= b
            tmp -= p_prev
            p_prev, p_cur, tmp = p_cur, tmp, p_prev
        yield p_cur / _ORDER_SCALE


def _harmonic_rows(deg: int, points: np.ndarray):
    """Yield the real orthonormal spherical harmonics of degree `deg` at
    the given points, one (N,) row at a time as the order recurrence
    reaches it.

    Rows come in the order [mu=0, cos(1), sin(1), cos(2), sin(2), ...];
    orthonormal against the plain (un-normalized) area measure, so
    sum_j Y_j(x)^2 = (2*deg+1)/(4*pi) pointwise.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    s = np.hypot(x, y)
    cphi = np.divide(x, s, out=np.ones_like(s), where=s > 0)
    sphi = np.divide(y, s, out=np.zeros_like(s), where=s > 0)
    legendre = _assoc_legendre_rows(deg, z, s)
    yield next(legendre)
    cos_m = np.ones_like(cphi)
    sin_m = np.zeros_like(sphi)
    root2 = math.sqrt(2.0)
    for ptilde in legendre:
        cos_m, sin_m = cos_m * cphi - sin_m * sphi, sin_m * cphi + cos_m * sphi
        ptilde *= root2
        yield ptilde * cos_m
        yield ptilde * sin_m


@dataclass
class WeylSumTable:
    """Harmonic sums of one degree over a point set."""

    values: np.ndarray  # (2*degree + 1,)

    def aggregate(self) -> float:
        """Basis-independent rotation invariant sum_j W_j^2."""
        return float(np.dot(self.values, self.values))


def _resolve_points(n: int | None, points: UnitPointSet | None) -> UnitPointSet:
    if points is not None:
        if n is not None:
            raise DomainError("give either n or an explicit point set, not both")
        return points
    if n is None:
        raise DomainError("need either n or an explicit point set")
    pts = unit_shell(n)
    if pts.size == 0:
        raise DomainError(f"n = {n} has no lattice points")
    return pts


def weyl_sums(
    n: int | None,
    degree: int,
    normalized: bool = False,
    points: UnitPointSet | None = None,
) -> WeylSumTable:
    """Sums of an orthonormal degree-`degree` harmonic basis over a shell.

    Odd degrees vanish for lattice shells (antipodal symmetry); the
    aggregate sum of squares does not depend on the basis choice.  Every
    point is summed, with no use of the shell's symmetry, so these sums
    stay an independent check of `_harmonic_sums`; N (degree + 1)(degree
    + 2)/2 order terms past the "harmonic_terms" budget of
    `errors.BUDGETS` are refused before the basis is built.  Each row of
    the basis is summed as the order recurrence yields it, so the
    recurrence runs once and a call holds a few arrays of N floats.
    """
    if degree < 1 or degree > MAX_DEGREE:
        raise DomainError(f"degree must lie in [1, {MAX_DEGREE}]")
    pts = _resolve_points(n, points)
    if normalized and pts.size == 0:
        raise DomainError("need at least one point")
    budget("harmonic_terms", pts.size * (degree + 1) * (degree + 2) // 2, f"harmonic basis of degree {degree}")
    vals = np.array([row.sum() for row in _harmonic_rows(degree, pts.points)])
    if normalized:
        vals = vals / pts.size
    return WeylSumTable(vals)


@dataclass
class SeriesResult:
    """Truncated variance series with truncation diagnostics.

    `last_term` is the final term's magnitude; `tail_estimate` fits the
    observed ~ m^-2 decay over the last terms and extrapolates the tail
    (with a factor-2 margin), a truncation indicator for an oscillating
    series whose single last term may sit at a zero.  It is an indicator,
    not a bound: while m_max is below about sqrt(N) the terms have not
    reached their m^-2 decay and the true remainder can exceed it many
    times over.
    """

    value: float
    last_term: float
    tail_estimate: float
    m_max: int


def variance_series(
    n: int | None,
    spec: AnnulusSpec,
    m_max: int,
    points: UnitPointSet | None = None,
) -> SeriesResult:
    """Closed-form count variance over random centers, truncated at m_max.

    V = sum_{m=1..m_max} h(m)^2/(4 pi) * (2m+1)/(4 pi) * sum_{x,y} P_m(x.y).
    The pair sums come from the harmonic sums (`_harmonic_sums`, which
    refuses above MAX_DEGREE and past its budget before allocating).  Terms
    are nonnegative, so partial sums increase toward the Monte Carlo
    variance of the annulus count over uniform centers.  The returned
    `tail_estimate` indicates the truncation error but does not bound it
    while m_max is below about sqrt(N), so |series - Monte Carlo| can
    exceed it there on correct code.
    """
    if m_max < 1:
        raise DomainError("m_max must be positive")
    pts = _resolve_points(n, points)
    sums = _pair_legendre_sums(pts, m_max)
    h = zonal_coeffs(spec, m_max)
    m = np.arange(m_max + 1)
    terms = (h * h / (4.0 * math.pi)) * ((2 * m + 1) / (4.0 * math.pi)) * sums
    terms[0] = 0.0
    value = float(terms[1:].sum())
    last = abs(float(terms[m_max]))
    w = max(1, min(100, m_max // 2))
    window = np.abs(terms[m_max - w + 1 :])
    scale = (np.arange(m_max - w + 1, m_max + 1) ** 2 * window).mean()
    tail = 2.0 * scale / m_max
    return SeriesResult(value, last, tail, m_max)


def discrepancy_bound(
    n: int | None, m_max: int, points: UnitPointSet | None = None
) -> float:
    """Discrepancy bound shape 1/(M+1) + sum_nu (1/nu) sum_j |W_j| / N.

    W_j are the sums of the real basis of `_harmonic_rows`, read off
    the complex sums of `_harmonic_sums`: |W_0|, then sqrt(2) |Re W_mu| and
    sqrt(2) |Im W_mu|.  The unspecified absolute constant in front is not
    included, so treat the value as a shape to compare against, not a
    certified bound.
    """
    if not 1 <= m_max <= MAX_DEGREE:
        raise DomainError(f"m_max must lie in [1, {MAX_DEGREE}]")
    pts = _resolve_points(n, points)
    if pts.size == 0:
        raise DomainError("need at least one point")
    W, start = _harmonic_sums(pts, m_max)
    mags = math.sqrt(2.0) * (np.abs(W.real) + np.abs(W.imag))
    first = start[1:-1]  # order 0 of degrees 1..m_max
    mags[first] = np.abs(W[first])
    per_degree = np.add.reduceat(mags, first) / np.arange(1, m_max + 1)
    return 1.0 / (m_max + 1) + float(per_degree.sum()) / pts.size


def cap_discrepancy_estimate(pts: UnitPointSet, center_samples: int, seed: int) -> float:
    """Max over sampled caps of |count/N - area|: a lower bound on the
    spherical cap discrepancy (closed caps, so each sampled value is a
    true cap discrepancy).  The caps have 32 chord radii, geometric from
    2/sqrt(N) to 2.

    Each center is dotted with all N points, and a count predicted to
    pass the "center_products" budget of `errors.BUDGETS` is refused
    before any center is drawn; a center costs at least _ESTIMATE_FLOOR
    products.
    """
    if center_samples < 100:
        raise DomainError("need at least 100 sampled centers")
    N = pts.size
    if N == 0:
        raise DomainError("need at least one point")
    budget("center_products", center_samples * max(N, _ESTIMATE_FLOOR), f"{center_samples} random centers")
    rng = _rng(seed)
    radii = np.geomspace(2.0 / math.sqrt(N), 2.0, 32)
    thresholds = np.sort(1.0 - radii**2 / 2.0)
    areas = (2.0 - 2.0 * thresholds) / 4.0  # cap area for each threshold
    best = 0.0
    chunk = max(1, (1 << 21) // N)
    remaining = center_samples
    while remaining:
        k = min(chunk, remaining)
        remaining -= k
        centers = _random_units(rng, k)
        dots = np.sort(centers @ pts.points.T, axis=1)
        for row in dots:
            counts = N - np.searchsorted(row, thresholds, side="left")
            best = max(best, float(np.abs(counts / N - areas).max()))
    return best
