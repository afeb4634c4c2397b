import math
from fractions import Fraction

import numpy as np
import pytest

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
    assert harmonics.legendre_p(0, 0.77) == 1.0
    assert harmonics.legendre_p(1, 0.5) == 0.5
    assert harmonics.legendre_p(2, 0.5) == pytest.approx(0.5 * (3 * 0.25 - 1))


def test_legendre_against_exact_recurrence():
    # the stated reference is a high-precision recomputation; exact
    # rationals are sharper than any finite precision
    val = harmonics.legendre_p(10, 0.3)
    exact = legendre_exact(10, Fraction(3, 10))
    assert abs(val - float(exact)) < 1e-12
    for m in (3, 7, 25):
        for t in (-0.9, -0.25, 0.1, 0.6):
            exact = legendre_exact(m, Fraction(t).limit_denominator(10**6))
            approx = harmonics.legendre_p(m, float(Fraction(t).limit_denominator(10**6)))
            assert abs(approx - float(exact)) < 1e-11


def test_legendre_at_one_exact():
    for m in range(0, 60):
        assert harmonics.legendre_p(m, 1.0) == 1.0


def test_legendre_rejects_out_of_range():
    with pytest.raises(DomainError):
        harmonics.legendre_p(3, 1.5)


# ------------------------------------------------------------ zonal coeffs

def test_zonal_full_sphere():
    zc = harmonics.zonal_coeffs(spatial.AnnulusSpec(0, 2.0), 12)
    assert zc.coeffs[0] == pytest.approx(4 * math.pi)
    assert np.abs(zc.coeffs[1:]).max() == 0.0


def test_zonal_hemisphere_degree_one():
    # h(1) = 2 pi * integral of t over [0, 1] = pi
    zc = harmonics.zonal_coeffs(spatial.AnnulusSpec.cap(math.sqrt(2)), 3)
    assert zc.coeffs[1] == pytest.approx(math.pi)


def test_zonal_h0_is_area():
    for spec in (spatial.AnnulusSpec.cap(0.7), spatial.AnnulusSpec(0.3, 1.1)):
        zc = harmonics.zonal_coeffs(spec, 2)
        assert zc.coeffs[0] == pytest.approx(4 * math.pi * spec.area)


def test_zonal_parseval_monotone_bounded():
    spec = spatial.AnnulusSpec.cap_of_area(0.2)
    zc = harmonics.zonal_coeffs(spec, 800)
    partial = zc.parseval_partial()
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
    assert harmonics.weyl_aggregate_direct(2, spatial.unit_shell(1)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_weyl_aggregate_matches_addition_theorem(shell5):
    for deg in (2, 4, 6):
        tbl = harmonics.weyl_sums(None, deg, points=shell5)
        direct = harmonics.weyl_aggregate_direct(deg, shell5)
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


def test_weyl_rejects_empty_shell():
    with pytest.raises(DomainError):
        harmonics.weyl_sums(7, 2)


def test_harmonic_basis_pointwise_identity():
    pts = spatial.binomial_sample(40, 3)
    for deg in (1, 2, 5, 9):
        basis = harmonics.real_harmonic_basis(deg, pts.points)
        target = (2 * deg + 1) / (4 * math.pi)
        assert np.allclose((basis**2).sum(axis=0), target, rtol=1e-11)


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


# ------------------------------------------------------ pair-table routes

@pytest.mark.parametrize("n", [5, 101, 1009])
def test_table_routes_match_generic_path(n):
    # a whole shell reads its pair sums from the pair table; the same
    # points without their integer source take the float kernels
    pts = spatial.unit_shell(n)
    bare = spatial.UnitPointSet(pts.points)
    keeps_n = spatial.UnitPointSet(pts.points, n)  # truncation needs n
    assert spatial._is_whole_shell(pts)
    assert not spatial._is_whole_shell(bare) and not spatial._is_whole_shell(keeps_n)

    def close(a, b):
        return a == pytest.approx(b, rel=1e-9)

    for sigma in (0.01, 0.2):
        spec = spatial.AnnulusSpec.cap_of_area(sigma)
        assert close(
            harmonics.variance_series(None, spec, 40, points=pts).value,
            harmonics.variance_series(None, spec, 40, points=bare).value,
        )
    for deg in (4, 6):
        assert close(
            harmonics.weyl_aggregate_direct(deg, pts),
            harmonics.weyl_aggregate_direct(deg, bare),
        )
    for s in (0.5, 1.0, 1.5):
        assert close(spatial.riesz_energy(pts, s), spatial.riesz_energy(bare, s))
        for rho in (0.1, 0.5):
            assert close(
                spatial.truncated_energy(pts, s, rho),
                spatial.truncated_energy(keeps_n, s, rho),
            )
    table = spatial.nn_spacings(pts)
    generic = spatial.nn_spacings(bare)
    assert np.allclose(table.rescaled_values, generic.rescaled_values, rtol=1e-9, atol=0)
    assert close(table.ks_distance_to_exp, generic.ks_distance_to_exp)


def test_partial_shell_takes_generic_path():
    # a subset that still remembers its source is not a whole shell
    ls = lattice.enumerate_points(101)
    part = spatial.project(lattice.LatticeSet(101, ls.points[1:], ls.primitive[1:]))
    lattice.pair_table.cache_clear()
    assert not spatial._is_whole_shell(part)
    bare = spatial.UnitPointSet(part.points)
    assert spatial.riesz_energy(part, 1.0) == spatial.riesz_energy(bare, 1.0)
    assert np.array_equal(
        spatial.nn_spacings(part).rescaled_values, spatial.nn_spacings(bare).rescaled_values
    )
    assert lattice.pair_table.cache_info().misses == 0  # no table for a partial shell

    # the whole shell: its spacings build no table, its energies one, once
    whole = spatial.unit_shell(101)
    assert spatial._is_whole_shell(whole)
    spatial.nn_spacings(whole)
    assert lattice.pair_table.cache_info().misses == 0
    spatial.riesz_energy(whole, 1.0)
    assert lattice.pair_table.cache_info().misses == 1
    spatial.riesz_energy(whole, 0.5)
    spatial.nn_spacings(whole)
    assert lattice.pair_table.cache_info().misses == 1


# ---------------------------------------------------------------- discrepancy

def test_discrepancy_bound_shape(shell5):
    val = harmonics.discrepancy_bound(None, 20, points=shell5)
    assert 0 < val < 10


def test_discrepancy_estimate_octahedron(octahedron):
    grid = np.geomspace(0.05, 2.0, 64)
    est = harmonics.cap_discrepancy_estimate(octahedron, 3000, grid, seed=4)
    # a small cap near a vertex captures 1/6 of the points on ~0 area
    assert est >= 1 / 6 - 0.05
    assert est <= 1.0


def test_discrepancy_estimate_binomial_scale():
    pts = spatial.binomial_sample(10_000, 21)
    grid = np.geomspace(0.02, 2.0, 32)
    est = harmonics.cap_discrepancy_estimate(pts, 500, grid, seed=5)
    assert 1e-3 <= est <= 0.2  # N^(-1/2) polylog band


def test_discrepancy_estimate_below_bound_shape(shell5):
    bound = harmonics.discrepancy_bound(None, 30, points=shell5)
    grid = np.geomspace(0.05, 2.0, 32)
    est = harmonics.cap_discrepancy_estimate(shell5, 1000, grid, seed=6)
    assert est <= bound
