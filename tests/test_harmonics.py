import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threesq import harmonics, lattice, spatial
from threesq.errors import DomainError


# ---------------------------------------------------------------- oracles

def legendre_exact(m: int, t: Fraction) -> Fraction:
    """Three-term recurrence in exact rational arithmetic."""
    p_prev, p_cur = Fraction(1), t
    if m == 0:
        return p_prev
    for k in range(2, m + 1):
        p_prev, p_cur = p_cur, ((2 * k - 1) * t * p_cur - (k - 1) * p_prev) / k
    return p_cur


def legendre(m: int, t):
    """P_m(t), the last value of `harmonics._legendre_seq`."""
    *_, p = harmonics._legendre_seq(m, t)
    return p


def weyl_aggregate(degree: int, pts) -> float:
    """The degree-d aggregate sum_j W_j^2 without the real basis, through
    the addition theorem: (2d+1)/(4 pi) S_d, S_d from
    `harmonics._pair_legendre_sums` (complex harmonic sums, over three
    cyclic images of each orbit's first point on a whole shell, which run
    no code of `weyl_sums`)."""
    return (2 * degree + 1) / (4.0 * math.pi) * float(harmonics._pair_legendre_sums(pts, degree)[degree])


def real_basis(deg: int, points: np.ndarray) -> np.ndarray:
    """The rows of the real harmonic basis of `weyl_sums`, stacked (2 deg
    + 1, N)."""
    return np.array(list(harmonics._harmonic_rows(deg, points)))


def table_legendre_sums(n: int, m_max: int) -> np.ndarray:
    """S_m = sum_t c(t) P_m(t/n) over the exact inner-product histogram of
    a whole shell (`lattice.pair_table`), m <= m_max: the pairs' side of
    the addition theorem, which sums no harmonic."""
    tbl = lattice.pair_table(n)
    c = tbl.count.astype(np.float64)
    return np.array([math.fsum((c * p).tolist()) for p in harmonics._legendre_seq(m_max, tbl.t / float(n))])


def rotation(alpha: float, beta: float) -> np.ndarray:
    rz = np.array(
        [
            [math.cos(alpha), -math.sin(alpha), 0],
            [math.sin(alpha), math.cos(alpha), 0],
            [0, 0, 1],
        ]
    )
    rx = np.array(
        [
            [1, 0, 0],
            [0, math.cos(beta), -math.sin(beta)],
            [0, math.sin(beta), math.cos(beta)],
        ]
    )
    return rz @ rx


# ---------------------------------------------------------------- legendre

def test_legendre_low_degrees():
    assert legendre(0, 0.77) == 1.0
    assert legendre(1, 0.5) == 0.5
    assert legendre(2, 0.5) == pytest.approx(0.5 * (3 * 0.25 - 1))


def test_legendre_against_exact_recurrence():
    # the stated reference is a high-precision recomputation; exact
    # rationals are sharper than any finite precision
    val = legendre(10, 0.3)
    exact = legendre_exact(10, Fraction(3, 10))
    assert abs(val - float(exact)) < 1e-12
    for m in (3, 7, 25):
        for t in (-0.9, -0.25, 0.1, 0.6):
            exact = legendre_exact(m, Fraction(t).limit_denominator(10**6))
            approx = legendre(m, float(Fraction(t).limit_denominator(10**6)))
            assert abs(approx - float(exact)) < 1e-11


def test_legendre_at_one_exact():
    for m in range(0, 60):
        assert legendre(m, 1.0) == 1.0


# ------------------------------------------------------------ zonal coeffs

def test_zonal_full_sphere():
    zc = harmonics.zonal_coeffs(spatial.AnnulusSpec(0, 2.0), 12)
    assert zc[0] == pytest.approx(4 * math.pi)
    assert np.abs(zc[1:]).max() == 0.0


def test_zonal_hemisphere_degree_one():
    # h(1) = 2 pi * integral of t over [0, 1] = pi
    zc = harmonics.zonal_coeffs(spatial.AnnulusSpec(0.0, math.sqrt(2)), 3)
    assert zc[1] == pytest.approx(math.pi)


def test_zonal_h0_is_area():
    for spec in (spatial.AnnulusSpec(0.0, 0.7), spatial.AnnulusSpec(0.3, 1.1)):
        zc = harmonics.zonal_coeffs(spec, 2)
        assert zc[0] == pytest.approx(4 * math.pi * spec.area)


def test_zonal_parseval_monotone_bounded():
    spec = spatial.AnnulusSpec.cap_of_area(0.2)
    zc = harmonics.zonal_coeffs(spec, 800)
    m = np.arange(len(zc))
    partial = np.cumsum((2 * m + 1) / (4 * math.pi) * zc**2)
    assert (np.diff(partial) >= -1e-15).all()
    limit = 4 * math.pi * spec.area
    assert partial[-1] <= limit + 1e-9
    assert partial[-1] >= 0.95 * limit  # most of the mass by m = 800


# ---------------------------------------------------------------- weyl sums

def test_weyl_odd_degrees_vanish():
    for n in (1, 5, 30):
        for deg in (1, 3, 5):
            tbl = harmonics.weyl_sums(n, deg)
            N = spatial.unit_shell(n).size
            assert np.abs(tbl.values).max() < 1e-10 * N


def test_weyl_octahedron_degree_two():
    # hand value over the 36 pairs: 6*(P2(1) + 4 P2(0) + P2(-1)) = 0
    tbl = harmonics.weyl_sums(1, 2)
    assert tbl.aggregate() == pytest.approx(0.0, abs=1e-20)
    assert weyl_aggregate(2, spatial.unit_shell(1)) == pytest.approx(0.0, abs=1e-10)


def test_weyl_aggregate_matches_addition_theorem(shell5):
    for deg in (2, 4, 6):
        tbl = harmonics.weyl_sums(None, deg, points=shell5)
        direct = weyl_aggregate(deg, shell5)
        assert tbl.aggregate() == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_weyl_aggregate_basis_independent(shell5):
    rotated = spatial.UnitPointSet(shell5.points @ rotation(0.83, 0.41).T)
    for deg in (2, 4, 8):
        a = harmonics.weyl_sums(None, deg, points=shell5).aggregate()
        b = harmonics.weyl_sums(None, deg, points=rotated).aggregate()
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_weyl_normalized_scaling(shell5):
    plain = harmonics.weyl_sums(None, 4, points=shell5)
    norm = harmonics.weyl_sums(None, 4, normalized=True, points=shell5)
    assert np.allclose(norm.values * shell5.size, plain.values)


def test_weyl_sums_hold_one_chunk_of_basis():
    # 2^16 points at degree 20 make a basis of 41 rows, 21 MB built at
    # once; summed one row at a time as the recurrence yields it, the sums
    # hold a few arrays of the 2^16 points
    pts = spatial.binomial_sample(1 << 16, 4)
    whole = real_basis(20, pts.points).sum(axis=1)
    tracemalloc.start()
    try:
        rows = harmonics.weyl_sums(None, 20, points=pts).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    # the same rows, each summed alone
    assert np.array_equal(rows, whole)


def test_weyl_rejects_empty_shell():
    with pytest.raises(DomainError):
        harmonics.weyl_sums(7, 2)


@pytest.mark.parametrize(
    "stat",
    [
        lambda n, pts: harmonics.weyl_sums(n, 2, points=pts),
        lambda n, pts: harmonics.variance_series(n, spatial.AnnulusSpec(0.0, 0.5), 4, points=pts),
        lambda n, pts: harmonics.discrepancy_bound(n, 5, points=pts),
    ],
    ids=["weyl_sums", "variance_series", "discrepancy_bound"],
)
def test_shell_statistics_refuse_n_with_a_point_set(stat, shell5):
    # a shell number beside an explicit set would be dropped unread; n = 5
    # is refused even with the points of its own shell
    for n in (5, 7):
        with pytest.raises(DomainError, match="not both"):
            stat(n, shell5)


@pytest.mark.parametrize(
    "stat",
    [
        lambda pts: harmonics.discrepancy_bound(None, 5, points=pts),
        lambda pts: harmonics.cap_discrepancy_estimate(pts, 100, 1),
        lambda pts: harmonics.weyl_sums(None, 2, normalized=True, points=pts),
    ],
    ids=["discrepancy_bound", "cap_discrepancy_estimate", "normalized_weyl_sums"],
)
def test_normalized_statistics_refuse_an_empty_set(stat):
    # each divides by N: no 0/0, no NaN and no ZeroDivisionError
    with pytest.raises(DomainError, match="at least one point"):
        stat(spatial.UnitPointSet(np.zeros((0, 3))))


def test_harmonic_basis_pointwise_identity():
    pts = spatial.binomial_sample(40, 3)
    for deg in (1, 2, 5, 9):
        basis = real_basis(deg, pts.points)
        target = (2 * deg + 1) / (4 * math.pi)
        assert np.allclose((basis**2).sum(axis=0), target, rtol=1e-11)


def test_harmonic_basis_identity_at_max_degree():
    # z = -0.909, s = 0.416 near 1/e: unscaled, the sectoral values of this
    # point pass through the subnormal range before degree 2000
    pts = spatial.binomial_sample(1, 3)
    deg = harmonics.MAX_DEGREE
    basis = real_basis(deg, pts.points)
    assert float((basis**2).sum()) == pytest.approx((2 * deg + 1) / (4 * math.pi), rel=1e-10)


# ------------------------------------------------------------ variance series

def test_variance_series_full_sphere():
    res = harmonics.variance_series(1, spatial.AnnulusSpec(0, 2.0), 40)
    assert res.value == 0.0


def test_variance_series_single_point_closed_form():
    # one point: V = sigma (1 - sigma) exactly
    single = spatial.UnitPointSet(np.array([[0.0, 0.0, 1.0]]))
    for sigma in (0.05, 0.3):
        spec = spatial.AnnulusSpec.cap_of_area(sigma)
        res = harmonics.variance_series(None, spec, 600, points=single)
        exact = sigma * (1 - sigma)
        assert abs(res.value - exact) <= res.tail_estimate
        assert res.value <= exact + 1e-12  # nonnegative terms: monotone from below


def test_variance_series_antipodal_closed_form(antipodal_pair):
    # two antipodal points, cap with rho^2 < 2: V = 2 sigma (1 - 2 sigma)
    for sigma in (0.1, 0.3):
        spec = spatial.AnnulusSpec.cap_of_area(sigma)
        res = harmonics.variance_series(None, spec, 600, points=antipodal_pair)
        exact = 2 * sigma * (1 - 2 * sigma)
        assert abs(res.value - exact) <= res.tail_estimate


def test_variance_series_monotone_in_m(shell5):
    spec = spatial.AnnulusSpec.cap_of_area(0.2)
    values = [
        harmonics.variance_series(None, spec, m, points=shell5).value
        for m in (10, 40, 160, 640)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_variance_series_matches_monte_carlo(shell5):
    spec = spatial.AnnulusSpec.cap_of_area(0.25)
    series = harmonics.variance_series(None, spec, 500, points=shell5)
    mc = spatial.number_variance(shell5, spec, 200_000, seed=77)
    assert abs(series.value - mc.variance) <= series.tail_estimate + 3 * mc.variance_stderr


def test_variance_series_annulus_aspects(shell5):
    # annuli of several aspect ratios against Monte Carlo
    for ratio in (1.1, 2.0, 10.0):
        rho1 = 0.25
        spec = spatial.AnnulusSpec(rho1, min(2.0, rho1 * ratio))
        series = harmonics.variance_series(None, spec, 500, points=shell5)
        mc = spatial.number_variance(shell5, spec, 150_000, seed=int(10 * ratio))
        assert abs(series.value - mc.variance) <= series.tail_estimate + 3 * mc.variance_stderr


# ------------------------------------------------------ float-set pair sums

@st.composite
def float_point_sets(draw):
    """Binomial samples with poles, antipodes and duplicates planted."""
    N = draw(st.integers(1, 80))
    P = spatial.binomial_sample(N, draw(st.integers(0, 2**31 - 1))).points.copy()
    kinds = st.sampled_from(["north", "south", "antipode", "duplicate"])
    index = st.integers(0, N - 1)
    for kind, i, j in draw(st.lists(st.tuples(kinds, index, index), max_size=6)):
        if kind == "north":
            P[i] = [0.0, 0.0, 1.0]
        elif kind == "south":
            P[i] = [0.0, 0.0, -1.0]
        elif kind == "antipode":
            P[i] = -P[j]
        else:
            P[i] = P[j]
    return spatial.UnitPointSet(P)


@settings(max_examples=100, deadline=None)
@given(float_point_sets(), st.integers(1, 60), st.data())
def test_pair_legendre_sums_match_full_matrix(pts, m_max, data):
    # chunks of `rows` points, the last one ragged unless rows divides N
    N = pts.size
    rows = data.draw(st.integers(1, N))
    dots = np.clip(pts.points @ pts.points.T, -1.0, 1.0)
    full = [math.fsum(p.ravel()) for p in harmonics._legendre_seq(m_max, dots)]
    with mock.patch.object(harmonics, "_PAIR_ENTRIES", rows * (m_max + 1)):
        sums = harmonics._pair_legendre_sums(pts, m_max)
    np.testing.assert_allclose(sums, full, rtol=1e-12, atol=1e-12 * N * N)
    # sums of squares, so every variance_series term on a float set is >= 0
    assert (sums >= 0).all()


def test_pair_legendre_sums_pinned_cases(octahedron):
    bare = spatial.UnitPointSet(octahedron.points)
    assert spatial._orbits(bare) is None
    assert abs(harmonics._pair_legendre_sums(bare, 2)[2]) <= 1e-10 * 36
    # one point: S_m = P_m(1) = 1 at every degree.  At the poles the degree
    # step's rounding grows like m^2 eps (9e-11 at m = 2000).  The point at
    # z = -0.91 (s = 0.42, near 1/e) is where unscaled sectoral values of
    # degree 2000 fall into the subnormal range (an error of 9e-6).
    for P in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], spatial.binomial_sample(1, 3).points[0]):
        sums = harmonics._pair_legendre_sums(spatial.UnitPointSet(np.array([P])), harmonics.MAX_DEGREE)
        np.testing.assert_allclose(sums[:61], 1.0, rtol=1e-12)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-10)


def test_float_route_refuses_degrees_past_max_before_allocating():
    pts = spatial.binomial_sample(3, 0)
    spec = spatial.AnnulusSpec.cap_of_area(0.1)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            harmonics.variance_series(None, spec, harmonics.MAX_DEGREE + 1, points=pts)
        with pytest.raises(DomainError):
            harmonics._pair_legendre_sums(pts, harmonics.MAX_DEGREE + 1)
        with pytest.raises(DomainError):
            harmonics.discrepancy_bound(None, harmonics.MAX_DEGREE + 1, points=pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the order sums alone would take 32 MB


def test_shell_route_refuses_degrees_past_cap_before_allocating():
    # a whole shell takes the same harmonic sums, so the same MAX_DEGREE
    spec = spatial.AnnulusSpec.cap_of_area(0.1)
    shell = spatial.unit_shell(5)
    assert harmonics.variance_series(None, spec, harmonics.MAX_DEGREE, points=shell).value > 0
    tracemalloc.start()
    try:
        for m_max in (harmonics.MAX_DEGREE + 1, 10**8):
            with pytest.raises(DomainError, match=str(harmonics.MAX_DEGREE)):
                harmonics.variance_series(None, spec, m_max, points=shell)
            with pytest.raises(DomainError, match=str(harmonics.MAX_DEGREE)):
                harmonics.discrepancy_bound(None, m_max, points=shell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# tiny shells whose orbits lie on the axes and diagonals, n = 27 with the
# orbit (3, 3, 3) of weight 8/3 a row, 4^a m, p^2 | n, p^3 | n, and the
# shell of the series' exact check
@example(1, 40)
@example(2, 40)
@example(3, 40)
@example(9, 40)
@example(25, 40)
@example(27, 40)
@example(4**3 * 101, 40)
@example(49 * 11, 40)
@example(27 * 7, 40)
@example(100_057, 60)
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200_000).filter(lattice.three_squares_representable), st.integers(1, 40))
def test_shell_sums_on_z_orbits_match_pair_table(n, m_max):
    pts = spatial.unit_shell(n)
    assert spatial._orbits(pts) is not None
    ours = harmonics._pair_legendre_sums(pts, m_max)
    np.testing.assert_allclose(ours, table_legendre_sums(n, m_max), rtol=0, atol=1e-13 * pts.size**2)


@pytest.mark.parametrize("n", [5, 101, 1009, 100_057])
def test_weyl_sums_of_a_shell_vanish_off_the_z_orbit_orders(n):
    # the independent side of the reduction: summed over every point, a
    # whole shell's real basis sums vanish but at mu = 0 and cos(4 k phi)
    # of even degrees, to rounding that grows like m^2 eps N
    pts = spatial.unit_shell(n)
    for deg in range(1, 61):
        vals = harmonics.weyl_sums(None, deg, points=pts).values
        keep = np.zeros(2 * deg + 1, dtype=bool)
        if deg % 2 == 0:
            keep[0] = True
            keep[7::8] = True  # the row of cos(mu phi) is 2 mu - 1
        assert np.abs(vals[~keep]).max(initial=0.0) <= deg * deg * np.finfo(float).eps * pts.size, (n, deg)


# ----------------------------------------------------- routes and the table

@pytest.mark.parametrize("n", [5, 101, 1009])
def test_table_routes_match_generic_path(n):
    # a whole shell sums its harmonics over three cyclic images of each
    # orbit's first point (the route that took over from its pair table),
    # its bare copy over every point: the Weyl aggregates, which the
    # whole-shell harness of test_spatial does not compare, and the
    # variance series agree
    pts = spatial.unit_shell(n)
    bare = spatial.UnitPointSet(pts.points)
    assert spatial._orbits(pts) is not None and spatial._orbits(bare) is None
    for deg in (4, 6):
        assert weyl_aggregate(deg, pts) == pytest.approx(weyl_aggregate(deg, bare), rel=1e-9), deg
    for sigma in (0.01, 0.2):
        spec = spatial.AnnulusSpec.cap_of_area(sigma)
        assert harmonics.variance_series(None, spec, 40, points=pts).value == pytest.approx(
            harmonics.variance_series(None, spec, 40, points=bare).value, rel=1e-9
        )


def test_partial_shell_takes_generic_path():
    # a subset built by hand carries no orbit record: no whole-shell route
    ls = lattice.enumerate_points(101)
    part = spatial.project(lattice.LatticeSet(101, ls.points[1:]))
    lattice.pair_table.cache_clear()
    assert spatial._orbits(part) is None
    bare = spatial.UnitPointSet(part.points)
    assert spatial.riesz_energy(part, 1.0) == spatial.riesz_energy(bare, 1.0)
    assert np.array_equal(
        spatial.nn_spacings(part).rescaled_values, spatial.nn_spacings(bare).rescaled_values
    )
    assert lattice.pair_table.cache_info().misses == 0  # no table for a partial shell

    # the whole shell: its spacings, energies and Ripley counts build no
    # table either, since they walk its orbits
    whole = spatial.unit_shell(101)
    assert spatial._orbits(whole) is not None
    spatial.nn_spacings(whole)
    spatial.riesz_energy(whole, 1.0)
    spatial.riesz_energy(whole, 0.5)
    spatial.ripley_k(whole, 1.0)
    assert lattice.pair_table.cache_info().misses == 0


# ---------------------------------------------------------------- discrepancy

def test_discrepancy_bound_shape(shell5):
    val = harmonics.discrepancy_bound(None, 20, points=shell5)
    assert 0 < val < 10


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        float_point_sets(),
        st.integers(1, 2000).filter(lattice.three_squares_representable).map(spatial.unit_shell),
    ),
    st.integers(1, 60),
)
def test_discrepancy_bound_matches_real_basis_sums(pts, m_max):
    # the bound from the real basis, one order-outer degree at a time
    oracle = 1.0 / (m_max + 1) + sum(
        float(np.abs(harmonics.weyl_sums(None, nu, normalized=True, points=pts).values).sum()) / nu
        for nu in range(1, m_max + 1)
    )
    assert harmonics.discrepancy_bound(None, m_max, points=pts) == pytest.approx(oracle, rel=1e-12)


def test_discrepancy_estimate_octahedron(octahedron):
    # the caps' chord radii are 32, geometric from 2/sqrt(6) to 2; the second
    # largest below the vertex spacing sqrt(2), r = 1.374, caps one vertex on
    # area r^2/4 = 0.472 when the center lies within 1 - r^2/2 = 0.057 of
    # the vertex's axis in both other coordinates, as about 18 of 3000
    # random centers do
    radii = np.geomspace(2 / math.sqrt(6), 2.0, 32)
    r = radii[radii < math.sqrt(2)][-2]
    est = harmonics.cap_discrepancy_estimate(octahedron, 3000, seed=4)
    assert est >= r * r / 4 - 1 / 6 - 1e-12
    assert est <= 1.0


def test_discrepancy_estimate_refuses_negative_seed(octahedron):
    with pytest.raises(DomainError, match="non-negative"):
        harmonics.cap_discrepancy_estimate(octahedron, 100, seed=-1)


def test_discrepancy_estimate_binomial_scale():
    pts = spatial.binomial_sample(10_000, 21)
    est = harmonics.cap_discrepancy_estimate(pts, 500, seed=5)
    assert 1e-3 <= est <= 0.2  # N^(-1/2) polylog band


def test_discrepancy_estimate_below_bound_shape(shell5):
    bound = harmonics.discrepancy_bound(None, 30, points=shell5)
    est = harmonics.cap_discrepancy_estimate(shell5, 1000, seed=6)
    assert est <= bound
