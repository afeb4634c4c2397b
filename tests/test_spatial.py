import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from threesq import harmonics, lattice, spatial
from threesq.errors import DomainError, DuplicatePointError


# ------------------------------------------------------------------- types

def test_unit_point_set_rejects_off_sphere():
    with pytest.raises(DomainError):
        spatial.UnitPointSet(np.array([[0.0, 0.0, 1.1]]))


def test_annulus_area():
    spec = spatial.AnnulusSpec(0.5, 1.5)
    assert spec.area == (1.5**2 - 0.5**2) / 4
    assert spatial.AnnulusSpec.cap(2.0).area == 1.0
    assert spatial.AnnulusSpec.cap_of_area(0.25).rho2 == pytest.approx(1.0)
    with pytest.raises(DomainError):
        spatial.AnnulusSpec(1.0, 0.5)


def test_projection_carries_source(shell5):
    assert shell5.source_n == 5
    assert shell5.int_points is not None
    assert np.allclose(np.linalg.norm(shell5.points, axis=1), 1.0)


# ------------------------------------------------------------------ energy

def test_riesz_energy_antipodal(antipodal_pair):
    assert spatial.riesz_energy(antipodal_pair, 1.0) == pytest.approx(1.0)


def test_riesz_energy_octahedron(octahedron):
    # hand sum: each of 6 points sees 4 neighbours at sqrt(2) and one at 2
    expected = 6 * (4 / math.sqrt(2) + 0.5)
    assert spatial.riesz_energy(octahedron, 1.0) == pytest.approx(expected, rel=1e-12)


def test_uniform_energy_integral():
    assert spatial.uniform_energy_integral(1.0) == 1.0
    assert spatial.uniform_energy_integral(0.5) == pytest.approx(2**0.5 / 1.5)


def test_riesz_energy_duplicate_detection():
    pts = spatial.UnitPointSet(np.array([[0, 0, 1.0], [0, 0, 1.0], [1.0, 0, 0]]))
    with pytest.raises(DuplicatePointError) as err:
        spatial.riesz_energy(pts, 1.0)
    assert set(err.value.indices) == {0, 1}


def test_truncated_energy_octahedron(octahedron):
    # n = 1 puts the cutoff at 1, below both 1/sqrt(2) and 1/2 potentials
    full = spatial.riesz_energy(octahedron, 1.0)
    for rho in (0.1, 0.3, 0.5):
        assert spatial.truncated_energy(octahedron, 1.0, rho) == pytest.approx(full)
    # cap 1 also bounds every term by 1
    assert spatial.truncated_energy(octahedron, 1.0, 0.5) <= 6 * 5


def test_truncated_energy_caps_close_pairs(shell5):
    full = spatial.riesz_energy(shell5, 1.0)
    trunc = spatial.truncated_energy(shell5, 1.0, 0.5)
    assert trunc <= full


# ------------------------------------------------------------------- ripley

def test_ripley_octahedron(octahedron):
    assert spatial.ripley_k(octahedron, 1.5) == 24
    assert spatial.ripley_k(octahedron, 1.0) == 0


def test_ripley_matches_band_count(shell5):
    r = math.sqrt(3 / 5)
    assert spatial.ripley_k(shell5, r) == 72
    assert lattice.pairs_in_band(5, 0, r * r * 5) == 72


def test_ripley_exactness_at_shell_boundaries():
    # r^2 n landing exactly on an even shell must exclude it (strict <);
    # both paths resolve the threshold as the exact rational r^2 * n
    pts = spatial.unit_shell(9)
    for h in (1, 2, 3, 5):
        r = math.sqrt(2 * h / 9)
        k = spatial.ripley_k(pts, r)
        assert k == lattice.pairs_in_band(9, 0, Fraction(r) ** 2 * 9)
    # an exactly-representable radius with r^2 n an integer shell value
    assert spatial.ripley_k(pts, 2.0) == lattice.pairs_in_band(9, 0, Fraction(4) * 9)


def test_ripley_agreement_random_shells():
    rng = np.random.Generator(np.random.Philox(5))
    count = 0
    n = 1
    while count < 12:
        n += int(rng.integers(1, 500))
        if not lattice.three_squares_representable(n):
            continue
        pts = spatial.unit_shell(n)
        if pts.size < 2:
            continue
        r = float(rng.uniform(0.05, 2.0))
        assert spatial.ripley_k(pts, r) == lattice.pairs_in_band(n, 0, Fraction(r) ** 2 * n)
        count += 1


def test_ripley_baseline_value():
    assert spatial.ripley_baseline(10, 0.5) == pytest.approx(10 * 9 * 0.25 / 4 * 1)
    assert spatial.ripley_baseline(6, 2.0) == pytest.approx(30.0)


def _signed_perms(v):
    return np.array(
        sorted(
            {
                tuple(s * x for s, x in zip(signs, p))
                for p in itertools.permutations(v)
                for signs in itertools.product((1, -1), repeat=3)
            }
        ),
        dtype=np.int64,
    )


@pytest.mark.parametrize(
    "v", [(1 << 26, 0, 0), (1 << 25, 1 << 25, 0), ((1 << 26) + 1, (1 << 26) + 3, 5)]
)
def test_ripley_int64_route_above_float_safe(v):
    # n = 2^52, 2^51 and about 2^53: past _FLOAT_SAFE the Gram blocks stay
    # in int64; float64 would round the last orbit's Gram entries
    P = _signed_perms(v)
    n = sum(x * x for x in v)
    assert n > lattice._FLOAT_SAFE
    pts = spatial.project(lattice.LatticeSet(n, P, np.zeros(len(P), dtype=bool)))
    ints = [tuple(int(x) for x in p) for p in P]
    d2 = [sum((x - y) ** 2 for x, y in zip(p, q)) for p in ints for q in ints]
    # 1.0 and 2.0 land exactly on distance shells (d^2 = n, d^2 = 4n), and
    # sqrt(d^2 / n) rounds to either side of the smallest shells
    near = [math.sqrt(d / n) for d in sorted(set(d2) - {0})[:4]]
    for r in [0.5, 1.0, 1.2, math.sqrt(2), 1.5, 1.8, 2.0, *near]:
        lim = Fraction(r) ** 2 * n
        assert spatial.ripley_k(pts, r) == sum(1 for d in d2 if 0 < d < lim), r


# ------------------------------------------------------------------ spacings

def test_spacings_octahedron(octahedron):
    rep = spatial.nn_spacings(octahedron)
    assert np.allclose(rep.rescaled_values, 3.0)
    assert rep.mean == pytest.approx(3.0)


def test_spacings_antipodal(antipodal_pair):
    rep = spatial.nn_spacings(antipodal_pair)
    assert np.allclose(rep.rescaled_values, 2.0)


def test_spacings_binomial_mean_near_one():
    # E[N d^2 / 4] = 1 exactly for the binomial process
    rep = spatial.nn_spacings(spatial.binomial_sample(4000, 31))
    assert rep.mean == pytest.approx(1.0, abs=0.1)
    assert rep.ks_distance_to_exp < 0.05


def test_spacings_respect_packing_bound():
    # sum d_j^2 <= 16, so the rescaled mean is at most 4, for any set
    for seed in range(5):
        rep = spatial.nn_spacings(spatial.binomial_sample(50, seed))
        assert rep.mean <= 4.0 + 1e-9


# -------------------------------------------------------------- pair kernel

@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 3, 7, 50])
def test_pair_kernel_matches_full_matrix(monkeypatch, N, rows):
    # blocks of `rows` rows, the last one ragged unless rows divides N
    monkeypatch.setattr(spatial, "_PAIR_ENTRIES", rows * N)
    P = spatial.binomial_sample(N, 10 * N + rows).points
    pts = spatial.UnitPointSet(P, source_n=2)  # n = 2 sets the energy cap
    diff = P[:, None, :] - P[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    off = ~np.eye(N, dtype=bool)
    for s in (0.5, 1.0, 1.5):
        terms = d2[off] ** (-s / 2)
        assert spatial.riesz_energy(pts, s) == pytest.approx(math.fsum(terms), rel=1e-12)
        for rho in (0.25, 0.5):
            capped = np.minimum(terms, 2.0 ** (s * rho))
            assert spatial.truncated_energy(pts, s, rho) == pytest.approx(
                math.fsum(capped), rel=1e-12
            )
    for r in (0.1, 0.5, 1.0, 1.5, 2.0):
        assert spatial.ripley_k(pts, r) == int((d2[off] < r * r).sum())
    # the kernel's |x|^2 + |y|^2 - 2x.y is within about 2e-15 of d^2
    nn = np.where(off, d2, np.inf).min(axis=1)
    np.testing.assert_allclose(
        spatial.nn_spacings(pts).rescaled_values, N * nn / 4, rtol=1e-12, atol=N * 4e-15 / 4
    )
    m_max = 12
    dots = np.clip(P @ P.T, -1.0, 1.0)
    full = [math.fsum(harmonics.legendre_p(m, dots).ravel()) for m in range(m_max + 1)]
    np.testing.assert_allclose(
        harmonics._pair_legendre_sums(pts, m_max), full, rtol=1e-12, atol=1e-12 * N * N
    )

    # a duplicate across the first and last blocks, and one inside a late block
    for i in {0, N - 2}:
        dup = P.copy()
        dup[-1] = dup[i]
        dup_pts = spatial.UnitPointSet(dup, source_n=2)
        for energy in (spatial.riesz_energy, lambda p, s: spatial.truncated_energy(p, s, 0.5)):
            with pytest.raises(DuplicatePointError) as err:
                energy(dup_pts, 1.0)
            assert set(err.value.indices) == {i, N - 1}


def test_close_pair_keeps_its_digits():
    # one pair planted 2.2e-5 apart in a binomial sample: the Gram form
    # |x|^2 + |y|^2 - 2x.y would carry an absolute error near 1e-16 on its
    # d^2 = 4.8e-10, so both statistics must take it from differences
    P = spatial.binomial_sample(500, 77).points.copy()
    tangent = np.cross(P[0], [0.0, 0.0, 1.0])
    tangent /= np.linalg.norm(tangent)
    q = P[0] + 2.2e-5 * tangent
    P[1] = q / np.linalg.norm(q)
    pts = spatial.UnitPointSet(P)
    diff = P[:, None, :] - P[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    off = ~np.eye(len(P), dtype=bool)
    assert d2[0, 1] == pytest.approx(4.84e-10, rel=1e-3)
    for s in (0.5, 1.0, 1.5):
        expect = math.fsum(d2[off] ** (-s / 2))
        assert spatial.riesz_energy(pts, s) == pytest.approx(expect, rel=1e-12)
    nn = np.where(off, d2, np.inf).min(axis=1)
    np.testing.assert_allclose(
        spatial.nn_spacings(pts).rescaled_values, len(P) * nn / 4, rtol=1e-12, atol=0
    )


# ------------------------------------------------------------ covering radius

def test_covering_radius_octahedron(octahedron):
    assert spatial.covering_radius(octahedron) == pytest.approx(
        math.sqrt(2 - 2 / math.sqrt(3)), abs=1e-12
    )


def test_covering_radius_cube(cube):
    # farthest point of a face, e.g. (1,0,0) against (1,1,1)/sqrt(3)
    assert spatial.covering_radius(cube) == pytest.approx(
        math.sqrt(2 - 2 / math.sqrt(3)), abs=1e-12
    )


def test_covering_radius_hemisphere_degeneracy():
    z = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1.0]])
    with pytest.raises(DomainError):
        spatial.covering_radius(spatial.UnitPointSet(z))


def test_covering_radius_area_lower_bound():
    for seed in (1, 2, 3):
        pts = spatial.binomial_sample(300, seed)
        assert spatial.covering_radius(pts) >= 2 / math.sqrt(300)


def test_covering_radius_mesh_agrees(octahedron):
    exact = spatial.covering_radius(octahedron)
    est = spatial.covering_radius_mesh(octahedron, resolution=5e-3)
    assert 0 <= exact - est <= 5e-3


# ------------------------------------------------------------------ counting

def test_count_in_pinned(octahedron):
    e1 = np.array([1.0, 0.0, 0.0])
    assert spatial.count_in(octahedron, e1, spatial.AnnulusSpec.cap(2.0)) == 6
    assert spatial.count_in(octahedron, e1, spatial.AnnulusSpec.cap(1.0)) == 1
    assert spatial.count_in(octahedron, e1, spatial.AnnulusSpec(1.0, 1.5)) == 4


# ------------------------------------------------------------ number variance

def test_number_variance_full_sphere(octahedron):
    rep = spatial.number_variance(octahedron, spatial.AnnulusSpec(0, 2.0), 200, seed=1)
    assert rep.variance == 0.0
    assert rep.mean == 6.0


def test_number_variance_binomial_calibration():
    pts = spatial.binomial_sample(2000, 17)
    spec = spatial.AnnulusSpec.cap_of_area(1e-2)
    rep = spatial.number_variance(pts, spec, 40_000, seed=23)
    target = 2000 * 1e-2 * (1 - 1e-2)
    assert rep.variance == pytest.approx(target, rel=0.1)
    assert abs(rep.mean - rep.expected_mean) <= 5 * math.sqrt(rep.variance / rep.samples)


def test_number_variance_unbiased_over_seeds(shell5):
    spec = spatial.AnnulusSpec.cap_of_area(0.11)
    samples = 3000
    means, variances = [], []
    for seed in range(20):
        rep = spatial.number_variance(shell5, spec, samples, seed=seed)
        means.append(rep.mean)
        variances.append(rep.variance)
    grand = np.mean(means)
    se = math.sqrt(np.mean(variances) / (20 * samples))
    assert abs(grand - shell5.size * spec.area) <= 3 * se


def test_number_variance_determinism(shell5):
    spec = spatial.AnnulusSpec.cap(0.8)
    a = spatial.number_variance(shell5, spec, 500, seed=42)
    b = spatial.number_variance(shell5, spec, 500, seed=42)
    assert (a.mean, a.variance) == (b.mean, b.variance)


def test_number_variance_rejects_few_samples(shell5):
    with pytest.raises(DomainError):
        spatial.number_variance(shell5, spatial.AnnulusSpec.cap(0.5), 99, seed=0)


# ------------------------------------------------------------------ boxes

def test_box_moment_conserves_count(octahedron):
    sum_counts, sum_squares = spatial.box_moment(octahedron, 2)
    assert sum_counts == 6
    counts_ok = any(sum_squares == a * a + (6 - a) ** 2 for a in range(7))
    assert counts_ok


def test_box_moment_cauchy_schwarz():
    pts = spatial.binomial_sample(500, 9)
    for K in (2, 10, 97):
        sum_counts, sum_squares = spatial.box_moment(pts, K)
        assert sum_counts == 500
        assert sum_squares >= 500**2 / K


def test_equal_area_cells_have_equal_area():
    part = spatial.equal_area_cells(37)
    widths = np.diff(part.u_edges)
    areas = widths / 2 / part.sectors  # normalized area of one cell per band
    assert np.allclose(areas, 1 / 37)
    assert part.sectors.sum() == 37


def test_box_moment_close_pair_inequality():
    # occupancy second moment is bounded by the count of pairs closer than
    # any cell diameter, which the pair table evaluates exactly
    for n in (101, 1009, 4002):
        ls = lattice.enumerate_points(n)
        pts = spatial.project(ls)
        K = max(2, math.isqrt(n))
        part = spatial.equal_area_cells(K)
        _, sum_squares = spatial.box_moment(pts, K)
        d = part.diameter_bound()
        t_min = n * (1 - d * d / 2)
        tbl = lattice.pair_table(n)
        close_pairs = int(tbl.count[tbl.t >= t_min].sum())
        assert sum_squares <= close_pairs, n


# ----------------------------------------------------------------- binomial

def test_binomial_sample_deterministic():
    a = spatial.binomial_sample(100, 5)
    b = spatial.binomial_sample(100, 5)
    assert np.array_equal(a.points, b.points)


def test_binomial_sample_clt():
    pts = spatial.binomial_sample(100_000, 12)
    assert np.abs(pts.points.mean(axis=0)).max() <= 5 / math.sqrt(100_000)


def test_binomial_single_point():
    pts = spatial.binomial_sample(1, 3)
    assert pts.size == 1
    assert np.linalg.norm(pts.points[0]) == pytest.approx(1.0)


# ------------------------------------------------------------------ symmetry

def test_statistics_antipodal_invariance(shell5):
    flipped = shell5.antipodal()
    assert spatial.riesz_energy(shell5, 1.0) == spatial.riesz_energy(flipped, 1.0)
    assert spatial.ripley_k(shell5, 0.9) == spatial.ripley_k(flipped, 0.9)
    assert spatial.covering_radius(shell5) == pytest.approx(
        spatial.covering_radius(flipped), rel=1e-12
    )
    a = spatial.nn_spacings(shell5).rescaled_values
    b = spatial.nn_spacings(flipped).rescaled_values
    assert np.allclose(np.sort(a), np.sort(b))
