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

The pair sums sum_{x,y} P_m(x.y) of a whole lattice shell are read from
its exact inner-product histogram (the pair table, built by the
orbit-reduced Gram kernel) as sum_t c(t) P_m(t/n).  Any other set runs
the Legendre recurrence on the blocks of `spatial._pair_blocks`, the one
pair kernel of a point set, over the upper block triangle of its Gram
matrix.  The basis sums in `weyl_sums` never use either, so they stay an
independent check of the addition theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import enumerate_points, pair_table
from .spatial import AnnulusSpec, UnitPointSet, _is_whole_shell, _pair_blocks, _random_units, project

MAX_DEGREE = 2000


def legendre_p(m: int, t):
    """Legendre polynomial P_m via the three-term recurrence; P_m(1) = 1."""
    if m < 0:
        raise DomainError("degree must be nonnegative")
    arr = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0):
        raise DomainError("argument must lie in [-1, 1]")
    p_prev = np.ones_like(arr)
    if m == 0:
        return p_prev if arr.ndim else float(p_prev)
    p_cur = arr.copy()
    for k in range(2, m + 1):
        p_prev, p_cur = p_cur, ((2 * k - 1) * arr * p_cur - (k - 1) * p_prev) / k
    return p_cur if arr.ndim else float(p_cur)


def _legendre_column(m_max: int, t: float) -> np.ndarray:
    out = np.empty(m_max + 1)
    out[0] = 1.0
    if m_max >= 1:
        out[1] = t
    for k in range(2, m_max + 1):
        out[k] = ((2 * k - 1) * t * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


@dataclass
class ZonalCoefficients:
    """Legendre coefficients h(m) of an annulus indicator.

    h(m) = 2*pi * integral of P_m over the indicator's support in
    t = cos(angle), evaluated through the antiderivative
    (P_{m+1} - P_{m-1}) / (2m+1); h(0) = 4*pi*area.
    """

    spec: AnnulusSpec
    coeffs: np.ndarray

    def parseval_partial(self) -> np.ndarray:
        """Cumulative sums of (2m+1)/(4 pi) h(m)^2; the limit is 4*pi*area."""
        m = np.arange(len(self.coeffs))
        return np.cumsum((2 * m + 1) / (4 * math.pi) * self.coeffs**2)


def zonal_coeffs(spec: AnnulusSpec, m_max: int) -> ZonalCoefficients:
    if m_max < 0:
        raise DomainError("m_max must be nonnegative")
    t_hi = 1.0 - spec.rho1**2 / 2.0
    t_lo = 1.0 - spec.rho2**2 / 2.0
    col_hi = _legendre_column(m_max + 1, t_hi)
    col_lo = _legendre_column(m_max + 1, t_lo)
    h = np.empty(m_max + 1)
    h[0] = 2.0 * math.pi * (t_hi - t_lo)
    for m in range(1, m_max + 1):
        anti_hi = col_hi[m + 1] - col_hi[m - 1]
        anti_lo = col_lo[m + 1] - col_lo[m - 1]
        h[m] = 2.0 * math.pi * (anti_hi - anti_lo) / (2 * m + 1)
    return ZonalCoefficients(spec, h)


def zonal_csv(zc: ZonalCoefficients) -> str:
    lines = ["m,h"]
    for m, h in enumerate(zc.coeffs.tolist()):
        lines.append("%d,%.17g" % (m, h))
    return "\n".join(lines) + "\n"


def _pair_legendre_sums(pts: UnitPointSet, m_max: int) -> np.ndarray:
    """sum over all ordered pairs (diagonal included) of P_m(x.y), m <= m_max."""
    if not _is_whole_shell(pts):
        return _block_legendre_sums(pts.points, m_max)
    tbl = pair_table(pts.source_n)
    x = tbl.t / float(tbl.n)
    c = tbl.count.astype(np.float64)
    sums = np.empty(m_max + 1)
    p_prev, p_cur = np.ones_like(x), x
    sums[0] = c.sum()
    for m in range(1, m_max + 1):
        if m > 1:
            p_prev, p_cur = p_cur, ((2 * m - 1) * x * p_cur - (m - 1) * p_prev) / m
        sums[m] = c @ p_cur
    return sums


def _block_legendre_sums(U: np.ndarray, m_max: int) -> np.ndarray:
    """The pair sums of any point set, from the pair kernel's blocks.

    Each block runs the recurrence in place and accumulates every degree
    through a BLAS matrix-vector product with the kernel's column weights.
    """
    N = len(U)
    sums = np.zeros(m_max + 1)
    sums[0] = float(N) * N
    if m_max == 0:
        return sums
    for _, dots, w in _pair_blocks(U):
        np.clip(dots, -1.0, 1.0, out=dots)
        p_prev, p_cur, tmp = np.ones_like(dots), dots.copy(), np.empty_like(dots)
        sums[1] += (p_cur @ w).sum()
        for m in range(2, m_max + 1):
            # P_m = ((2m-1)/m) x P_{m-1} - ((m-1)/m) P_{m-2}, into P_{m-2}'s buffer
            np.multiply(dots, p_cur, out=tmp)
            tmp *= (2 * m - 1) / m
            p_prev *= (m - 1) / m
            np.subtract(tmp, p_prev, out=p_prev)
            p_prev, p_cur = p_cur, p_prev
            sums[m] += (p_cur @ w).sum()
    return sums


def _normalized_assoc_legendre(deg: int, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fully normalized P~_deg^mu(z) for mu = 0..deg, shape (deg+1, N).

    Normalization sqrt((2 deg + 1)/(4 pi) * (deg-mu)!/(deg+mu)!) is baked
    into the recurrences so every intermediate stays O(1).
    """
    out = np.empty((deg + 1, len(z)))
    pmm = np.full(len(z), math.sqrt(1.0 / (4.0 * math.pi)))
    for mu in range(deg + 1):
        if mu > 0:
            pmm = -math.sqrt((2 * mu + 1) / (2.0 * mu)) * s * pmm
        if mu == deg:
            out[mu] = pmm
            break
        p_prev = pmm
        p_cur = math.sqrt(2 * mu + 3.0) * z * pmm
        for nu in range(mu + 2, deg + 1):
            a = math.sqrt((4.0 * nu * nu - 1.0) / (nu * nu - mu * mu))
            b = math.sqrt(
                (2.0 * nu + 1.0)
                * (nu - 1.0 - mu)
                * (nu - 1.0 + mu)
                / ((2.0 * nu - 3.0) * (nu * nu - mu * mu))
            )
            p_prev, p_cur = p_cur, a * z * p_cur - b * p_prev
        out[mu] = p_cur
    return out


def real_harmonic_basis(deg: int, points: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonics of one degree at given points.

    Returns shape (2*deg+1, N), rows ordered [mu=0, cos(1), sin(1),
    cos(2), sin(2), ...]; orthonormal against the plain (un-normalized)
    area measure, so sum_j Y_j(x)^2 = (2*deg+1)/(4*pi) pointwise.
    """
    if deg < 0 or deg > MAX_DEGREE:
        raise DomainError(f"degree must lie in [0, {MAX_DEGREE}]")
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    s = np.hypot(x, y)
    safe = np.where(s > 0, s, 1.0)
    cphi = np.where(s > 0, x / safe, 1.0)
    sphi = np.where(s > 0, y / safe, 0.0)
    ptilde = _normalized_assoc_legendre(deg, z, s)
    out = np.empty((2 * deg + 1, len(points)))
    out[0] = ptilde[0]
    cos_m = np.ones_like(cphi)
    sin_m = np.zeros_like(sphi)
    root2 = math.sqrt(2.0)
    for mu in range(1, deg + 1):
        cos_m, sin_m = cos_m * cphi - sin_m * sphi, sin_m * cphi + cos_m * sphi
        out[2 * mu - 1] = root2 * ptilde[mu] * cos_m
        out[2 * mu] = root2 * ptilde[mu] * sin_m
    return out


@dataclass
class WeylSumTable:
    """Harmonic sums of one degree over a point set."""

    n: int | None
    degree: int
    values: np.ndarray  # (2*degree + 1,)
    normalized: bool

    def aggregate(self) -> float:
        """Basis-independent rotation invariant sum_j W_j^2."""
        return float(np.dot(self.values, self.values))


def _resolve_points(n: int | None, points: UnitPointSet | None) -> UnitPointSet:
    if points is not None:
        return points
    if n is None:
        raise DomainError("need either n or an explicit point set")
    pts = project(enumerate_points(n))
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
    aggregate sum of squares does not depend on the basis choice.
    """
    if degree < 1 or degree > MAX_DEGREE:
        raise DomainError(f"degree must lie in [1, {MAX_DEGREE}]")
    pts = _resolve_points(n, points)
    basis = real_harmonic_basis(degree, pts.points)
    vals = basis.sum(axis=1)
    if normalized:
        vals = vals / pts.size
    return WeylSumTable(pts.source_n, degree, vals, normalized)


def weyl_aggregate_direct(
    degree: int, pts: UnitPointSet
) -> float:
    """Aggregate via the addition theorem: (2d+1)/(4 pi) sum_{x,y} P_d."""
    sums = _pair_legendre_sums(pts, degree)
    return (2 * degree + 1) / (4.0 * math.pi) * float(sums[degree])


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
    Terms are nonnegative, so partial sums increase toward the Monte
    Carlo variance of count_in over uniform centers.  The returned
    `tail_estimate` indicates the truncation error but does not bound it
    while m_max is below about sqrt(N), so |series - Monte Carlo| can
    exceed it there on correct code.
    """
    if m_max < 1:
        raise DomainError("m_max must be at least 1")
    pts = _resolve_points(n, points)
    h = zonal_coeffs(spec, m_max).coeffs
    sums = _pair_legendre_sums(pts, m_max)
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

    Uses normalized harmonic sums; the unspecified absolute constant in
    front is not included, so treat the value as a shape to compare
    against, not a certified bound.
    """
    if m_max < 1:
        raise DomainError("m_max must be at least 1")
    pts = _resolve_points(n, points)
    total = 1.0 / (m_max + 1)
    for nu in range(1, m_max + 1):
        tbl = weyl_sums(None, nu, normalized=True, points=pts)
        total += float(np.abs(tbl.values).sum()) / nu
    return total


def cap_discrepancy_estimate(
    pts: UnitPointSet, center_samples: int, radius_grid, seed: int
) -> float:
    """Max over sampled caps of |count/N - area|: a lower bound on the
    spherical cap discrepancy (closed caps, so each sampled value is a
    true cap discrepancy)."""
    if center_samples < 100:
        raise DomainError("need at least 100 sampled centers")
    radii = np.asarray(radius_grid, dtype=np.float64)
    if radii.ndim != 1 or len(radii) == 0 or radii.min() <= 0 or radii.max() > 2:
        raise DomainError("radius grid must contain chord radii in (0, 2]")
    N = pts.size
    rng = np.random.Generator(np.random.Philox(seed))
    thresholds = np.sort(1.0 - radii**2 / 2.0)
    areas = (2.0 - 2.0 * thresholds) / 4.0  # cap area for each threshold
    best = 0.0
    chunk = max(1, (1 << 21) // max(N, 1))
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
