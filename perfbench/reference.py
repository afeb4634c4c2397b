"""Reference computations made apart from threesq.

Nothing here imports the package under test: each function recomputes a
quantity from its definition (integer points by brute search, inner
products by integer matrix products, sums of two squares by marking
a^2 + b^2), so the checks compare two independent paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _isqrt_array(r: np.ndarray) -> np.ndarray:
    s = np.sqrt(r.astype(np.float64)).astype(np.int64)
    s = np.where(s * s > r, s - 1, s)
    return np.where((s + 1) * (s + 1) <= r, s + 1, s)


def shell_points(n: int) -> np.ndarray:
    """Every integer x with |x|^2 = n, as a lexicographically sorted (N, 3) array."""
    rows = []
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        rem = n - a * a
        hi = math.isqrt(rem)
        b = np.arange(-hi, hi + 1, dtype=np.int64)
        c2 = rem - b * b
        c = _isqrt_array(c2)
        ok = c * c == c2
        b, c = b[ok], c[ok]
        both = np.concatenate([b, b])
        zs = np.concatenate([-c, c])
        keep = np.concatenate([c > 0, np.ones(len(c), dtype=bool)])
        rows.append(np.column_stack([np.full(keep.sum(), a), both[keep], zs[keep]]))
    pts = np.concatenate(rows) if rows else np.zeros((0, 3), dtype=np.int64)
    return pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]


def shell_counts(lo: int, hi: int) -> np.ndarray:
    """Point counts r3(n) for n = lo..hi-1, by convolving r2 with the squares."""
    r = math.isqrt(hi - 1)
    a = np.arange(-r, r + 1, dtype=np.int64)
    s = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
    r2 = np.bincount(s[s < hi], minlength=hi)
    r3 = np.zeros(hi - lo, dtype=np.int64)
    for x in range(-r, r + 1):
        x2 = x * x
        if x2 < hi:
            start = max(lo, x2)
            r3[start - lo :] += r2[start - x2 : hi - x2]
    return r3


@dataclass
class ShellReference:
    """Inner-product statistics of one shell, from the integer Gram matrix."""

    n: int
    points: np.ndarray  # (N, 3) int64, sorted
    hist: np.ndarray  # hist[t + n] = ordered pairs with x.y = t
    nn_dot: np.ndarray  # per point, the largest x.y over the other points

    @property
    def size(self) -> int:
        return len(self.points)

    def ts(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, count) over the inner products that occur."""
        t = np.flatnonzero(self.hist)
        return t - self.n, self.hist[t]


def shell_reference(n: int) -> ShellReference:
    P = shell_points(n)
    N = len(P)
    hist = np.zeros(2 * n + 1, dtype=np.int64)
    nn_dot = np.empty(N, dtype=np.int64)
    for i0 in range(0, N, 256):
        g = P[i0 : i0 + 256] @ P.T
        hist += np.bincount((g + n).ravel(), minlength=2 * n + 1)
        rows = np.arange(len(g))
        g[rows, i0 + rows] = -n - 1  # points are distinct: only the diagonal has x.y = n
        nn_dot[i0 : i0 + len(g)] = g.max(axis=1)
    return ShellReference(n, P, hist, nn_dot)


def energy_from_hist(ref: ShellReference, s: float) -> float:
    t, c = ref.ts()
    far = t < ref.n
    d2 = 2.0 * (ref.n - t[far]) / ref.n
    return math.fsum((c[far] * d2 ** (-s / 2.0)).tolist())


def spacing_summary(d2min: np.ndarray) -> tuple[float, float]:
    """(mean, KS distance to Exp(1)) of the rescaled spacings N d^2 / 4."""
    N = len(d2min)
    x = np.sort(N * d2min / 4.0)
    cdf = 1.0 - np.exp(-x)
    i = np.arange(1, N + 1)
    ks = max(float(np.max(i / N - cdf)), float(np.max(cdf - (i - 1) / N)))
    return float(x.mean()), ks


def legendre_sum(ref: ShellReference, degree: int) -> float:
    """sum over ordered pairs of P_degree(x.y / n), through the histogram."""
    t, c = ref.ts()
    coef = np.zeros(degree + 1)
    coef[degree] = 1.0
    return math.fsum((c * np.polynomial.legendre.legval(t / ref.n, coef)).tolist())


GRID_STEP = 0.01


def covering_bracket(unit: np.ndarray, step: float = GRID_STEP) -> tuple[float, float]:
    """Interval holding the covering radius of a unit-vector set.

    Queries a latitude-longitude grid with both angular steps at most
    `step`: every point of the sphere is within geodesic (so also chord)
    distance `step` of a node, so the true radius lies in
    [grid maximum, grid maximum + step].
    """
    from scipy.spatial import cKDTree

    k = math.ceil(math.pi / step)
    m = math.ceil(2.0 * math.pi / step)
    theta = (np.arange(k) + 0.5) * (math.pi / k)
    phi = np.arange(m) * (2.0 * math.pi / m)
    st = np.sin(theta)[:, None]
    grid = np.stack(
        [
            (st * np.cos(phi)[None, :]).ravel(),
            (st * np.sin(phi)[None, :]).ravel(),
            np.repeat(np.cos(theta), m),
        ],
        axis=1,
    )
    d, _ = cKDTree(unit).query(grid, k=1, workers=1)
    lo = float(d.max())
    return lo, lo + step


def sums_of_two_squares(lo: int, hi: int) -> np.ndarray:
    """Flags for lo..hi-1: True where the integer is a^2 + b^2."""
    flags = np.zeros(hi - lo, dtype=bool)
    for a in range(math.isqrt(hi - 1) + 1):
        b_lo = math.isqrt(max(lo - a * a - 1, 0)) + 1 if lo - a * a > 0 else 0
        b_hi = math.isqrt(hi - 1 - a * a)
        if b_lo <= b_hi:
            b = np.arange(max(b_lo, a), b_hi + 1, dtype=np.int64)
            flags[a * a + b * b - lo] = True
    return flags


def largest_gap(y: int) -> int:
    """Largest gap between consecutive sums of two squares in [Y, 2Y)."""
    members = np.flatnonzero(sums_of_two_squares(y, 2 * y))
    return int(np.diff(members).max()) if len(members) > 1 else 0


def distance_to_two_squares(x: int) -> int:
    """Smallest d >= 0 with x - d or x + d a sum of two squares."""
    span = 64
    while True:
        lo = max(0, x - span)
        flags = sums_of_two_squares(lo, x + span + 1)
        hits = np.flatnonzero(flags) + lo
        if len(hits):
            return int(np.abs(hits - x).min())
        span *= 2


def fundamental_q(n: int) -> int:
    """|d| for the discriminant d of Q(sqrt(-n)), n squarefree."""
    return n if n % 4 == 3 else 4 * n


def units(q: int) -> int:
    return 6 if q == 3 else 4 if q == 4 else 2


def pair_energy(unit: np.ndarray, s: float) -> tuple[float, float]:
    """Riesz s-energy over ordered pairs, from direct coordinate differences,
    and the rounding allowance for a path that forms |x|^2 + |y|^2 - 2 x.y.

    That form loses about 8 ulp of d^2 = O(1) for every pair, which moves
    d^-s by (s/2) d^-(s+2) * 8 eps: negligible, except for the rare pair
    closer than about 1e-4, whose term it can move by more than 1e-9 of
    the total."""
    parts, rounding = [], []
    for i0 in range(0, len(unit), 256):
        diff = unit[i0 : i0 + 256, None, :] - unit[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        rows = np.arange(len(d2))
        d2[rows, i0 + rows] = np.inf
        parts.append(float((d2 ** (-s / 2.0)).sum()))
        rounding.append(float((d2 ** (-(s + 2.0) / 2.0)).sum()))
    return math.fsum(parts), 4.0 * s * np.finfo(float).eps * math.fsum(rounding)


def ripley_pairs(unit: np.ndarray, r: float) -> int:
    """Ordered pairs at chord distance strictly below r, through a kd-tree."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(unit).query_pairs(r, output_type="ndarray")
    diff = unit[pairs[:, 0]] - unit[pairs[:, 1]]
    return 2 * int(((diff * diff).sum(axis=1) < r * r).sum())


def nn_sq_distances(unit: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree

    d, _ = cKDTree(unit).query(unit, k=2, workers=1)
    return d[:, 1] ** 2


def cap_angle(sigma: float) -> float:
    """Angular radius of a cap of normalized area sigma: (1 - cos a) / 2 = sigma."""
    return math.acos(1.0 - 2.0 * sigma)


def lens_area(alpha: float, gamma: np.ndarray) -> np.ndarray:
    """Normalized area of the intersection of two caps of angular radius alpha
    whose centers are gamma apart (alpha < pi/2)."""
    g = np.asarray(gamma, dtype=np.float64)
    out = np.zeros_like(g)
    ca, sa = math.cos(alpha), math.sin(alpha)
    full = g <= 1e-15
    out[full] = (1.0 - ca) / 2.0
    lens = ~full & (g < 2.0 * alpha)
    d = g[lens]
    a1 = np.arccos(np.clip((np.cos(d) - ca * ca) / (sa * sa), -1.0, 1.0))
    a2 = np.arccos(np.clip(ca * (1.0 - np.cos(d)) / (np.sin(d) * sa), -1.0, 1.0))
    out[lens] = 2.0 * (math.pi - a1 - 2.0 * ca * a2) / (4.0 * math.pi)
    return out


def exact_cap_variance(sigma: float, dots: np.ndarray, counts: np.ndarray, N: int) -> float:
    """Variance of the cap count over uniform random centers, exactly:
    sum over ordered pairs of the lens area at their angle, minus (N sigma)^2.
    `dots` are unit-sphere inner products, `counts` their multiplicities."""
    alpha = cap_angle(sigma)
    second = math.fsum((counts * lens_area(alpha, np.arccos(np.clip(dots, -1.0, 1.0)))).tolist())
    return second - (N * sigma) ** 2


def zonal_coefficients(sigma: float, m_max: int) -> np.ndarray:
    """h(m) = 2 pi * integral of P_m over [cos alpha, 1], by Legendre integration."""
    lo = math.cos(cap_angle(sigma))
    h = np.empty(m_max + 1)
    for m in range(m_max + 1):
        coef = np.zeros(m + 1)
        coef[m] = 1.0
        anti = np.polynomial.legendre.legint(coef)
        h[m] = 2.0 * math.pi * (np.polynomial.legendre.legval(1.0, anti) - np.polynomial.legendre.legval(lo, anti))
    return h


def truncated_series(sigma: float, legendre_sums: np.ndarray) -> float:
    """sum_{m=1..M} h(m)^2/(4 pi) (2m+1)/(4 pi) S_m, given S_0..S_M."""
    m_max = len(legendre_sums) - 1
    h = zonal_coefficients(sigma, m_max)
    m = np.arange(m_max + 1)
    terms = h * h / (4.0 * math.pi) * (2 * m + 1) / (4.0 * math.pi) * legendre_sums
    return math.fsum(terms[1:].tolist())


def legendre_sums_hist(ref: ShellReference, m_max: int) -> np.ndarray:
    """S_m = sum over ordered pairs of P_m(x.y/n), m = 0..m_max, from the histogram."""
    t, c = ref.ts()
    x = t / ref.n
    out = np.empty(m_max + 1)
    p_prev, p_cur = np.ones_like(x), x.copy()
    out[0] = float(c.sum())
    for m in range(1, m_max + 1):
        if m > 1:
            p_prev, p_cur = p_cur, ((2 * m - 1) * x * p_cur - (m - 1) * p_prev) / m
        out[m] = math.fsum((c * p_cur).tolist())
    return out


def legendre_sums_harmonics(unit: np.ndarray, m_max: int) -> np.ndarray:
    """S_m through the addition theorem: (4 pi / (2m+1)) sum_k |sum_x Y_m^k(x)|^2,
    with scipy's complex spherical harmonics (no pair loop)."""
    from scipy.special import sph_harm_y

    theta = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    phi = np.arctan2(unit[:, 1], unit[:, 0])
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        k = np.arange(-m, m + 1)[:, None]
        w = sph_harm_y(m, k, theta[None, :], phi[None, :]).sum(axis=1)
        out[m] = 4.0 * math.pi / (2 * m + 1) * float(np.sum(np.abs(w) ** 2))
    return out


def close_pairs_dots(unit: np.ndarray, chord: float) -> np.ndarray:
    """Inner products of the unordered pairs closer than `chord`."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(unit).query_pairs(chord, output_type="ndarray")
    return np.einsum("ij,ij->i", unit[pairs[:, 0]], unit[pairs[:, 1]])
