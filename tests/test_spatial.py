import collections
import itertools
import math
import tracemalloc
from unittest import mock
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threesq import arith, cli, harmonics, lattice, spatial
from threesq.errors import BUDGETS, DomainError, DuplicatePointError


# ------------------------------------------------------------------- types

def test_unit_point_set_rejects_off_sphere():
    with pytest.raises(DomainError):
        spatial.UnitPointSet(np.array([[0.0, 0.0, 1.1]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: spatial.UnitPointSet(np.array([[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]])),
        lambda: arith.dirichlet_l_one(1_000_003, math.nan),
        lambda: arith.dirichlet_l_one(1_000_003, math.inf),
        lambda: harmonics.cap_discrepancy_estimate(spatial.unit_shell(101), 100, [0.5, math.nan], 1),
    ],
    ids=["unit-point-set", "l-value-nan", "l-value-inf", "discrepancy-radii"],
)
def test_float_guards_refuse_nan(call):
    # NaN fails every comparison, so each guard asks that its input be valid
    with pytest.raises(DomainError):
        call()


def test_annulus_area():
    spec = spatial.AnnulusSpec(0.5, 1.5)
    assert spec.area == (1.5**2 - 0.5**2) / 4
    assert spatial.AnnulusSpec(0.0, 2.0).area == 1.0
    assert spatial.AnnulusSpec.cap_of_area(0.25).rho2 == pytest.approx(1.0)
    with pytest.raises(DomainError):
        spatial.AnnulusSpec(1.0, 0.5)


def test_projection_carries_source(shell5):
    # the one integer source: the enumerated shell, with its orbit record,
    # whose rows over sqrt(n) are the points row for row
    assert shell5.shell.n == 5 and shell5.shell.orbits is not None
    np.testing.assert_allclose(shell5.points * math.sqrt(5), shell5.shell.points, rtol=0, atol=1e-12)
    with pytest.raises(TypeError):
        spatial.UnitPointSet(shell5.points, 5, shell5.shell.points)


@pytest.mark.parametrize(
    "P",
    [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2, 3)), np.zeros((2, 2))],
    ids=["3x2", "2x2x3", "2x2"],
)
def test_unit_point_set_refuses_other_shapes(P):
    # a (3, 2) array once became two points at the north pole, a (2, 2, 3)
    # one four points, and a (2, 2) one raised ValueError from reshape
    with pytest.raises(DomainError, match="shape"):
        spatial.UnitPointSet(P)
    assert spatial.UnitPointSet(np.zeros((0, 3))).size == 0


@pytest.mark.parametrize(
    "case",
    [
        "no source n",
        "another shell",
        "one row off the shell",
        "point moved",
        "n past 2^50",
        "n = 0",
        "n = 5.0",
        "wrapped row",
        "not int64 (N, 3)",
    ],
)
def test_inconsistent_integer_source_is_refused(case):
    # a lattice set's rows all lie on its shell, n in [1, 2^50], or it is
    # refused at construction; no statistic checks them again.  The 24
    # points of n = 6 once passed a symmetry test as rows of n = 5, and
    # (2^32, 0, 1) squares to 1 in int64, so the bound on the coordinates
    # comes before the squares
    P = lattice.enumerate_points(5).points
    moved = P.copy()
    moved[0, 2] += 1  # within the coordinate bound, off the shell
    n, rows = {
        "no source n": (None, P),
        "another shell": (5, lattice.enumerate_points(6).points),
        "one row off the shell": (5, np.vstack([P[:-1], [[1, 2, 1]]])),
        "point moved": (5, moved),
        "n past 2^50": ((1 << 50) + 1, np.array([[1 << 25, 0, 1]])),
        "n = 0": (0, np.zeros((0, 3), dtype=np.int64)),
        "n = 5.0": (5.0, P),
        "wrapped row": (1, np.array([[1 << 32, 0, 1]])),
        "not int64 (N, 3)": (5, P.astype(np.float64)),
    }[case]
    with pytest.raises(DomainError):
        lattice.LatticeSet(n, rows)
    own = spatial.project(lattice.LatticeSet(5, P.copy()))
    assert spatial.riesz_energy(own, 1.0) == pytest.approx(spatial.riesz_energy(spatial.UnitPointSet(own.points), 1.0))
    assert spatial.ripley_k(own, 1.0) == 96
    assert spatial.project(lattice.LatticeSet(7, np.zeros((0, 3), dtype=np.int64))).size == 0
    assert lattice.LatticeSet(1 << 50, np.array([[1 << 25, 0, 0]])).size == 1


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=20_000), st.sampled_from([0.5, 1.0, 1.5]))
@example(1, 1.0)
@example(20_000, 1.5)
def test_shell_energy_matches_float_kernel(n, s):
    # the pair table's sum over t against the float pair kernel on the
    # same points stripped of their source
    assume(lattice.three_squares_representable(n))
    pts = spatial.unit_shell(n)
    bare = spatial.UnitPointSet(pts.points)
    assert spatial._orbits(pts) is not None and spatial._orbits(bare) is None
    assert spatial.riesz_energy(pts, s) == pytest.approx(spatial.riesz_energy(bare, s), rel=1e-9)


def table_energy(n, s):
    """Sum over t < n of c(t) d^(-s), with d^2 = 2(n - t)/n: the energy of
    a whole shell read from its exact inner-product histogram
    (`lattice.pair_table`), with no tile walk."""
    tbl = lattice.pair_table(n)
    d2 = 2.0 * (n - tbl.t[:-1]) / n
    return math.fsum((tbl.count[:-1] * d2 ** (-s / 2.0)).tolist())


# tiny shells whose orbits lie on the axes and diagonals, 4^a m, p^2 | n,
# and the shell of the benchmark's stretch of N = 2016
@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(4**3 * 101)
@example(49 * 11)
@example(100_057)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200_000).filter(lattice.three_squares_representable))
def test_orbit_row_energy_matches_pair_table(n):
    # one row per orbit against every point, weighted by the orbit size,
    # against the histogram's sum over t: the same exact d^2, summed in
    # another order
    pts = spatial.unit_shell(n)
    assert spatial._orbits(pts) is not None
    for s in (0.5, 1.0, 1.5):
        assert spatial.riesz_energy(pts, s) == pytest.approx(table_energy(n, s), rel=1e-14, abs=0), s


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


def test_ripley_counts_a_duplicate_point_as_a_pair():
    # six points of n = 5 and a copy of the first: the copy pairs with it
    # at distance 0, once each way, on the integer path and the float one
    P = lattice.enumerate_points(5).points[:6]
    P = np.vstack([P, P[:1]])
    for pts in (spatial.project(lattice.LatticeSet(5, P)), spatial.UnitPointSet(P / math.sqrt(5))):
        assert [spatial.ripley_k(pts, r) for r in (0.5, 1.0, 2.0)] == [2, 26, 42]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 9, 26, 101, 1009]), st.data())
def test_ripley_integer_set_with_repeated_rows_matches_its_float_copy(n, data):
    P = lattice.enumerate_points(n).points
    rows = data.draw(st.lists(st.integers(0, len(P) - 1), min_size=2, max_size=60))
    r = data.draw(st.floats(min_value=1e-3, max_value=2.0))
    # integer squared distances tie with r^2 n only near an integer, where
    # the float copy may round either way
    assume(abs(r * r * n - round(r * r * n)) > 1e-6)
    Q = P[rows]
    exact = spatial.project(lattice.LatticeSet(n, Q))
    float_copy = spatial.UnitPointSet(exact.points)
    assert spatial.ripley_k(exact, r) == spatial.ripley_k(float_copy, r)


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


def test_set_past_float_safe_is_not_enumerated():
    # n = 2^52: an octahedron of its shell is refused as a lattice set, and
    # the shell is refused before any enumeration; the same points as a
    # float set take the float kernels
    P = _signed_perms((1 << 26, 0, 0))
    with mock.patch.object(lattice, "_solve_rows", side_effect=AssertionError("enumerated")):
        with pytest.raises(DomainError):
            lattice.LatticeSet(1 << 52, P)
        with pytest.raises(DomainError, match="not enumerated"):
            spatial.unit_shell(1 << 52)
    pts = spatial.UnitPointSet(P / float(1 << 26))
    assert spatial.riesz_energy(pts, 1.0) == pytest.approx(6 * (4 / math.sqrt(2) + 1 / 2))
    assert np.allclose(spatial.nn_spacings(pts).rescaled_values, 3.0)


# ------------------------------------------------------------ symmetric sets

def test_set_with_repeated_rows_is_not_symmetric():
    # eight rows of n = 3, as many as its shell has, but seven copies of one
    # point: built by hand, it carries no orbit record, so every statistic
    # takes its bare copy's route, and the energy refuses the copies
    P = lattice.enumerate_points(3).points
    Q = P[[0, 0, 0, 0, 0, 0, 0, 3]]
    pts = spatial.project(lattice.LatticeSet(3, Q))
    bare = spatial.UnitPointSet(pts.points)
    assert len(Q) == len(P) and spatial._orbits(pts) is None
    for X in (pts, bare):
        with pytest.raises(DuplicatePointError):
            spatial.riesz_energy(X, 1.0)
    spacings = [spatial.nn_spacings(X).rescaled_values.tolist() for X in (pts, bare)]
    assert spacings[0] == spacings[1]
    assert spacings[0][-1] == pytest.approx(16 / 3)  # 8 * (8/3) / 4
    radii = (0.5, 1.7, 2.0)
    assert [spatial.ripley_k(pts, r) for r in radii] == [spatial.ripley_k(bare, r) for r in radii] == [42, 56, 56]
    spec = spatial.AnnulusSpec(0.0, 1.0)
    hists = [spatial._annulus_histogram(X, spec, 500, 4).tolist() for X in (pts, bare)]
    assert hists[0] == hists[1]


def seeded_orbit(seed):
    """n and the signed-permutation orbit of a seeded point whose entries
    lie in [2^23, 2^24), so n lies between 3 * 2^46 and 3 * 2^48, about
    2^49, where enumerating the shell would take weeks."""
    a, b, c = (int(x) for x in np.random.default_rng(seed).integers(1 << 23, 1 << 24, 3))
    return a * a + b * b + c * c, _signed_perms((a, b, c))


def outcome(stat, pts):
    """A statistic's value on a set, or the type of the DomainError it
    raises (a part of an orbit may lie in a hemisphere)."""
    try:
        return stat(pts)
    except DomainError as exc:
        return type(exc)


def assert_takes_general_routes(n, Q):
    """Project rows Q of the shell of n, built by hand, and check that the
    set carries no orbit record, enumerates and folds nothing, and takes
    its bare copy's routes, agreeing with it byte for byte, but for its
    Ripley count, which walks its exact integer rows on the z band with no
    orbit rows."""
    pts = spatial.project(lattice.LatticeSet(n, Q))
    bare = spatial.UnitPointSet(pts.points)
    spec = spatial.AnnulusSpec.cap_of_area(0.05)
    statistics = {
        "energy": lambda X: spatial.riesz_energy(X, 0.5),
        "covering": spatial.covering_radius,
        "spacings": lambda X: spatial.nn_spacings(X).rescaled_values,
        "counts": lambda X: spatial._annulus_histogram(X, spec, 300, 11),
        "bound": lambda X: harmonics.discrepancy_bound(None, 12, points=X),
    }
    fail = mock.Mock(side_effect=AssertionError("enumerated or folded"))
    with (
        mock.patch.object(spatial, "enumerate_points", fail),
        mock.patch.object(lattice, "enumerate_points", fail),
        mock.patch.object(lattice, "shell_orbits", fail),
        mock.patch.object(spatial, "_pair_plan", wraps=spatial._pair_plan) as plan,
    ):
        assert pts.shell.orbits is None and spatial._orbits(pts) is None
        for name, stat in statistics.items():
            got = [outcome(stat, X) for X in (pts, bare)]
            assert np.array_equal(got[0], got[1]), name
        for r in (0.1, 1.0, 2.0):
            assert spatial.ripley_k(pts, r) == ripley_full_width(pts, r), r
    assert plan.call_count and all(call.args[2] is None for call in plan.call_args_list)


def test_sets_built_without_unit_shell_take_the_general_routes():
    # rows that enumerate_points did not hand out carry no orbit record,
    # however symmetric they are: a slice and a copy of a shell, and a
    # union of its orbits
    ls = lattice.enumerate_points(101)
    orb = lattice.shell_orbits(ls.points)
    for Q in (ls.points[1:], ls.points.copy(), ls.points[np.isin(orb.index, [0, 2, 3])]):
        assert_takes_general_routes(101, Q)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orbit_near_2_49_is_tested_without_enumerating(seed):
    # a seeded orbit near 2^49, shuffled, and a part of it: neither
    # enumerates its shell, whose enumeration would take weeks, and each
    # takes the general routes
    n, P = seeded_orbit(seed)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(P)) < 0.7
    keep[:2], keep[-1] = True, False
    for Q in (P[rng.permutation(len(P))], P[keep]):
        assert_takes_general_routes(n, Q)


def shell_radii(n, N):
    """Ripley radii for a shell of n with N points, leaving out any whose
    r^2 n lies within 1e-6 of an integer, a distance shell the float
    route may put on either side."""
    return [r for r in (3 / math.sqrt(N), 0.77, 1.0, 1.33, 1.9) if abs(r * r * n - round(r * r * n)) > 1e-6]


# tiny shells whose orbits lie on the axes and diagonals, 4^a m and p^2 | n
@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(4**3 * 101)
@example(49 * 11)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200_000).filter(lattice.three_squares_representable))
def test_shell_routes_match_the_bare_copy(n):
    # every whole-shell route against the same points as a bare float set,
    # which takes the general ones: one pair row per orbit against the
    # upper triangle, one spacing query per orbit against every point, the
    # sector hull against the whole hull, folded centers against unfolded
    # ones, and harmonic sums over z-axis orbits against every point.
    # Counts agree exactly.  Energies and the covering radius agree to
    # 1e-12 relative, both sides' error being a few ulps per term; the
    # spacings, the series and the bound to 1e-9, where the bare side's
    # difference form and the harmonic sums the shell's symmetry zeroes
    # (rounding near m^2 eps N) enter
    pts = spatial.unit_shell(n)
    bare = spatial.UnitPointSet(pts.points)
    assert spatial._orbits(pts) is not None and spatial._orbits(bare) is None
    for r in shell_radii(n, pts.size):
        assert spatial.ripley_k(pts, r) == spatial.ripley_k(bare, r), r
    for s in (0.5, 1.0, 1.5):
        assert spatial.riesz_energy(pts, s) == pytest.approx(spatial.riesz_energy(bare, s), rel=1e-12), s
    shell, generic = spatial.nn_spacings(pts), spatial.nn_spacings(bare)
    np.testing.assert_allclose(shell.rescaled_values, generic.rescaled_values, rtol=1e-9, atol=0)
    assert shell.ks_distance_to_exp == pytest.approx(generic.ks_distance_to_exp, rel=1e-9)
    assert spatial.covering_radius(pts) == pytest.approx(spatial.covering_radius(bare), rel=1e-12)
    for spec in (spatial.AnnulusSpec.cap_of_area(0.01), spatial.AnnulusSpec.cap_of_area(0.2), spatial.AnnulusSpec(0.3, 0.9)):
        hists = [spatial._annulus_histogram(X, spec, 300, 11).tolist() for X in (pts, bare)]
        assert hists[0] == hists[1], spec
        series = [harmonics.variance_series(None, spec, 40, points=X).value for X in (pts, bare)]
        assert series[0] == pytest.approx(series[1], rel=1e-9), spec
    bounds = [harmonics.discrepancy_bound(None, 12, points=X) for X in (pts, bare)]
    assert bounds[0] == pytest.approx(bounds[1], rel=1e-9)


# the shell statistics of the CLI that test_shell_routes_match_the_bare_copy
# compares, and those with no whole-shell route, each with its reason
HARNESS_STATISTICS = {"energy", "ripley", "spacing", "covering", "variance", "discrepancy"}
NO_SHELL_ROUTE = {
    "boxes": "the equal-area zonal partition is not invariant under the signed "
    "permutations, so no orbit fold gives its counts: box_moment assigns every point",
}


def test_every_shell_statistic_is_in_the_harness_or_has_no_route():
    # a statistic added to cli._FIELDS must be declared on one side, so that
    # it cannot skip the harness silently
    assert not HARNESS_STATISTICS & NO_SHELL_ROUTE.keys()
    assert HARNESS_STATISTICS | NO_SHELL_ROUTE.keys() == set(cli._FIELDS)


SIGNED_PERMS = np.array(
    [
        np.diag(signs)[list(p)]
        for p in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
    ],
    dtype=np.int64,
)  # (48, 3, 3)


@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(4**3 * 101)
@example(49 * 11)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200_000).filter(lattice.three_squares_representable))
def test_carried_record_matches_the_exact_test(n):
    # the orbit record enumerate_points builds against an exact test that
    # applies all 48 signed permutations to every point: the shell is
    # closed under them, two points share an orbit exactly when one is an
    # image of the other, each orbit holds as many points as its point has
    # distinct images, `first` is the first point of each orbit in the
    # stable z order, and the orbits ascend in their sector image
    ls = lattice.enumerate_points(n)
    orb = ls.orbits
    np.testing.assert_array_equal(orb.order, np.argsort(ls.points[:, 2], kind="stable"))
    Z = ls.points[orb.order]
    m = math.isqrt(n)
    images = np.einsum("gij,nj->ngi", SIGNED_PERMS, Z)  # (N, 48, 3)
    code = ((images[..., 0] + m) * (2 * m + 1) + images[..., 1] + m) * (2 * m + 1) + images[..., 2] + m
    assert np.isin(code, code[:, 0]).all()  # every image is a point
    _, index = np.unique(code.min(axis=1), return_inverse=True)
    # the same partition of the points, in the record's numbering
    assert len(np.unique(np.column_stack([index, orb.index]), axis=0)) == len(orb.size) == index.max(initial=-1) + 1
    distinct = 1 + (np.diff(np.sort(code, axis=1), axis=1) != 0).sum(axis=1)
    np.testing.assert_array_equal(orb.size[orb.index], distinct)
    np.testing.assert_array_equal(np.bincount(orb.index, minlength=len(orb.size)), orb.size)
    np.testing.assert_array_equal(orb.first, [np.flatnonzero(orb.index == k)[0] for k in range(len(orb.size))])
    sector = [tuple(sorted(abs(int(x)) for x in Z[i])) for i in orb.first]
    assert sector == sorted(sector)


def test_pair_table_folds_its_own_orbits():
    # the pair table stays a path apart from the record the statistics read
    lattice.enumerate_points(101)
    lattice.pair_table.cache_clear()
    with mock.patch.object(lattice, "shell_orbits", wraps=lattice.shell_orbits) as folded:
        lattice.pair_table(101)
    assert folded.call_count == 1


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
    # tiles of at most rows * N entries: at N = 50 that is `rows` rows by
    # all 50 columns, the last row block ragged unless rows divides N;
    # the smaller sets take one-row tiles
    monkeypatch.setattr(spatial, "_PAIR_ENTRIES", rows * N)
    P = spatial.binomial_sample(N, 10 * N + rows).points
    pts = spatial.UnitPointSet(P)
    diff = P[:, None, :] - P[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    off = ~np.eye(N, dtype=bool)
    for s in (0.5, 1.0, 1.5):
        terms = d2[off] ** (-s / 2)
        assert spatial.riesz_energy(pts, s) == pytest.approx(math.fsum(terms), rel=1e-12)
    for r in (0.1, 0.5, 1.0, 1.5, 2.0):
        assert spatial.ripley_k(pts, r) == int((d2[off] < r * r).sum())
    # spacings take the difference form d^2 itself
    nn = np.where(off, d2, np.inf).min(axis=1)
    np.testing.assert_array_max_ulp(spatial.nn_spacings(pts).rescaled_values, N * nn / 4, maxulp=1)

    # a duplicate across the first and last row blocks, and one inside a late one
    for i in {0, N - 2}:
        dup = P.copy()
        dup[-1] = dup[i]
        with pytest.raises(DuplicatePointError) as err:
            spatial.riesz_energy(spatial.UnitPointSet(dup), 1.0)
        assert set(err.value.indices) == {i, N - 1}


def test_negative_seed_is_refused():
    shell = spatial.unit_shell(5)
    with pytest.raises(DomainError, match="non-negative"):
        spatial._rng(-1)
    with pytest.raises(DomainError, match="non-negative"):
        spatial.binomial_sample(10, -1)
    with pytest.raises(DomainError, match="non-negative"):
        spatial.number_variance(shell, spatial.AnnulusSpec(0.0, 0.5), 100, -1)
    assert spatial._rng(0).random() == np.random.Generator(np.random.Philox(0)).random()


def test_close_pair_keeps_its_digits():
    # one pair planted 2.2e-5 apart in a binomial sample: the Gram form
    # |x|^2 + |y|^2 - 2x.y would carry an absolute error near 1e-16 on its
    # d^2 = 4.8e-10, so the energy, the spacings and a Ripley count whose
    # r^2 lies that near it must take it from differences
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
    np.testing.assert_array_max_ulp(
        spatial.nn_spacings(pts).rescaled_values, len(P) * nn / 4, maxulp=1
    )
    d = math.sqrt(d2[0, 1])
    for eps in (1e-9, -1e-9, 1e-12, -1e-12):
        r = d * (1 + eps)
        assert spatial.ripley_k(pts, r) == int((d2[off] < r * r).sum()) == (2 if eps > 0 else 0), eps


# ------------------------------------------------- reach-limited pair sums

def ripley_full_width(pts, r):
    """Ripley's count over every pair in one block: exact integer d^2 on a
    lattice source, else the Gram form
    (|x|^2 + |y|^2) - 2x.y, which is not the kernel's augmented product,
    with close pairs, and pairs within _RIPLEY_TIE of r^2, recomputed from
    differences, which the kernel's tie band alone must match."""
    if pts.shell is not None:
        lim = Fraction(r) * Fraction(r) * pts.shell.n
        dmax = (lim.numerator - 1) // lim.denominator
        P = pts.shell.points
        A = P.astype(np.float64)
        sq = np.einsum("ij,ij->i", P, P)
        d2 = sq[:, None] + sq[None, :] - 2 * (A @ A.T).astype(np.int64)
        return int(((d2 >= 1) & (d2 <= dmax)).sum())
    P = pts.points
    r2 = r * r
    sq = np.einsum("ij,ij->i", P, P)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (P @ P.T)
    np.fill_diagonal(d2, np.inf)
    i, j = np.nonzero((d2 < spatial._CLOSE_D2) | (np.abs(d2 - r2) <= spatial._RIPLEY_TIE))
    diff = P[i] - P[j]
    d2[i, j] = np.einsum("ij,ij->i", diff, diff)
    return int((d2 < r2).sum())


@st.composite
def awkward_sets(draw, max_base=40):
    """Binomial points plus poles, antipodes, points of equal z (turned
    about the z axis) and duplicates, in a drawn order."""
    base = draw(st.integers(0, max_base))
    P = spatial.binomial_sample(base, draw(st.integers(0, 2**32 - 1))).points if base else np.zeros((0, 3))
    parts = [P]
    if draw(st.booleans()):
        parts.append(np.array([[0.0, 0.0, 1.0]]))
    if draw(st.booleans()):
        parts.append(np.array([[0.0, 0.0, -1.0]]))
    if base:
        pick = st.lists(st.integers(0, base - 1), max_size=6)
        parts.append(-P[draw(pick)])
        turn = draw(pick)
        phi = draw(st.floats(0.0, 2 * math.pi))
        c, s = math.cos(phi), math.sin(phi)
        T = P[turn]
        parts.append(np.column_stack([c * T[:, 0] - s * T[:, 1], s * T[:, 0] + c * T[:, 1], T[:, 2]]))
        parts.append(P[draw(pick)])
    Q = np.concatenate(parts)
    assume(len(Q) >= 2)
    return Q[draw(st.permutations(range(len(Q))))]


BLOCK_ENTRIES = st.sampled_from([1, 2, 3, 5, 17, 64, 1 << 16])


@settings(max_examples=150, deadline=None)
@given(
    awkward_sets(),
    st.one_of(st.floats(1e-3, 2.0), st.sampled_from([1.0, math.sqrt(2), 2.0])),
    st.integers(0, 10**6),
    BLOCK_ENTRIES,
)
def test_banded_ripley_matches_full_width_on_float_sets(P, r, pick, entries):
    pts = spatial.UnitPointSet(P)
    diff = P[:, None, :] - P[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[~np.eye(len(P), dtype=bool)]
    # radii on the set's own distances as well as anywhere in (0, 2]
    for radius in (r, max(1e-3, min(2.0, float(d[pick % len(d)])))):
        with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
            assert spatial.ripley_k(pts, radius) == ripley_full_width(pts, radius), radius


SHELLS = [n for n in range(1, 700) if lattice.three_squares_representable(n)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SHELLS), st.integers(0, 10**6), st.sampled_from([-0.5, 0.0, 0.5]), BLOCK_ENTRIES)
def test_banded_ripley_matches_full_width_on_shells(n, pick, nudge, entries):
    # the oracle is one dense integer Gram, which shares no orbit code; the
    # count walks one row per orbit, and below 64 entries a tile the orbit
    # rows split into row blocks of one or two
    pts = spatial.unit_shell(n)
    P = pts.shell.points
    orb = spatial._orbits(pts)
    with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
        tiles, rows, _ = spatial._pair_plan(P[orb.order], math.inf, orb)
    if entries < 64:
        assert len({i0 for i0, _, _, _ in tiles}) > 1 or len(rows) == 1
    d2 = sorted({int(x) for x in ((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2).ravel()} - {0})
    z = sorted({int(c) for c in np.abs(P[:, 2])} - {0})
    radii = [min(2.0, math.sqrt((d2[pick % len(d2)] + nudge) / n))] if d2 else []
    if z:
        # dmax = 4c^2: (a, b, c) and (a, b, -c) differ in z alone, by isqrt(dmax)
        radii.append(min(2.0, math.sqrt((4 * z[pick % len(z)] ** 2 + 0.5) / n)))
    for r in radii:
        with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
            assert spatial.ripley_k(pts, r) == ripley_full_width(pts, r), r


def test_banded_ripley_keeps_pairs_apart_in_z_alone():
    # n = 9: (2, 2, -1) and (2, 2, 1) are 2 apart, and dmax = 4 sets the
    # integer reach to exactly 2; one-row tiles cut at z + reach
    pts = spatial.unit_shell(9)
    r = math.sqrt(4.5 / 9)
    assert 4 < Fraction(r) ** 2 * 9 <= 5
    with mock.patch.object(spatial, "_PAIR_ENTRIES", 1):
        assert spatial.ripley_k(pts, r) == ripley_full_width(pts, r)
        assert spatial.ripley_k(pts, r) == lattice.pairs_in_band(9, 0, Fraction(r) ** 2 * 9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers((1 << 24) + 1, (1 << 24) + (1 << 21)),
    st.integers(0, 1 << 24),
    st.integers(0, 1 << 24),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 2.0),
    BLOCK_ENTRIES,
)
def test_banded_ripley_matches_full_width_up_to_float_safe(a, b, c, seed, r, entries):
    # a seeded part of the orbit of (a, b, c), built by hand at n in
    # (2^48, 2^50], the largest a lattice set takes: the walk's augmented
    # product in float64 has partial sums up to 4n <= 2^52, integers it
    # holds exactly.  Counted at r and at one of the orbit's own distances
    n = a * a + b * b + c * c
    assert 1 << 48 < n <= lattice._FLOAT_SAFE
    P = _signed_perms((a, b, c))
    keep = np.random.default_rng(seed).random(len(P)) < 0.7
    pts = spatial.project(lattice.LatticeSet(n, P[keep]))
    d2 = np.unique(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))[1:]
    for radius in (r, min(2.0, math.sqrt(int(d2[seed % len(d2)]) / n))):
        with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
            assert spatial.ripley_k(pts, radius) == ripley_full_width(pts, radius)


@settings(max_examples=100, deadline=None)
@given(awkward_sets(), st.floats(1e-3, 2.0), st.integers(0, 10**6), BLOCK_ENTRIES, st.data())
def test_pair_statistics_do_not_depend_on_point_order(P, r, pick, entries, data):
    # the walk sorts by z, so a permuted set meets the same pairs in other
    # tiles; a duplicate is still named by the caller's indices
    Q = P[data.draw(st.permutations(range(len(P))))]
    d2 = dense_difference_d2(P)
    dup = bool((d2[~np.eye(len(P), dtype=bool)] < 1e-14).any())
    with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
        assert spatial.ripley_k(spatial.UnitPointSet(P), r) == spatial.ripley_k(spatial.UnitPointSet(Q), r)
        if not dup:
            for s in (0.5, 1.0):
                energies = [spatial.riesz_energy(spatial.UnitPointSet(X), s) for X in (P, Q)]
                assert energies[0] == pytest.approx(energies[1], rel=1e-13)
        # plant a copy of one point at a drawn position
        k, at = pick % len(Q), data.draw(st.integers(0, len(Q)))
        planted = np.insert(Q, at, Q[k], axis=0)
        with pytest.raises(DuplicatePointError) as err:
            spatial.riesz_energy(spatial.UnitPointSet(planted), 1.0)
    i, j = err.value.indices
    assert i != j and np.sum((planted[i] - planted[j]) ** 2) < 1e-14
    if not dup:
        assert {i, j} == {k + (k >= at), at}


def z_band_of(P, reach):
    """The order that sorts P by z, as the pair statistics sort it, and
    the tiles of its pair walk at this reach."""
    order = np.argsort(P[:, 2], kind="stable")
    return order, spatial._z_band(P[order, 2], reach)


@settings(max_examples=150, deadline=None)
@given(awkward_sets(max_base=80), st.one_of(st.floats(0.0, 2.5), st.just(math.inf)), BLOCK_ENTRIES)
def test_z_band_holds_each_pair_within_reach_in_one_block(P, reach, entries):
    N = len(P)
    with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
        order, tiles = z_band_of(P, reach)
    assert sorted(order.tolist()) == list(range(N))
    z = P[order, 2]
    assert (np.diff(z) >= 0).all()
    # the row blocks run through 0..N once, in order, each at the height
    # derived from the entry budget but the last; each row block's tiles
    # run from its diagonal, one after the other
    h = max(1, math.isqrt(entries) // 4)
    starts = sorted({i0 for i0, _, _, _ in tiles})
    assert starts == list(range(0, N, h))
    held = np.zeros((N, N), dtype=int)  # held[i, j], i < j: tiles holding the pair
    for i0 in starts:
        row = [t for t in tiles if t[0] == i0]
        assert row[0][2] == i0
        assert [j0 for _, _, j0, _ in row[1:]] == [j1 for _, _, _, j1 in row[:-1]]
    for i0, i1, j0, j1 in tiles:
        b, c = i1 - i0, j1 - j0
        assert i1 == min(i0 + h, N)
        assert i0 <= j0 < j1 <= N
        assert j0 > i0 or c >= b  # a diagonal tile holds its square
        assert b * c <= entries
        held[i0:i1, j0:j1] += np.triu(np.ones((b, c), dtype=int), k=i0 - j0 + 1)
    assert held.max(initial=0) <= 1
    # a pair within the reach, as the planner's z + reach rounds it, is held
    i, j = np.triu_indices(N, k=1)
    near = z[j] <= z[i] + reach
    assert (held[i[near], j[near]] == 1).all()


def rectangle_rows(entries, columns):
    """The row height of a rectangle plan: the pair walk's, isqrt(entries) // 4
    (64 at the default), or taller where fewer columns than a tile is wide
    (entries // that height, 1024 at the default) leave it room."""
    h = max(1, math.isqrt(entries) // 4)
    return max(h, entries // max(1, min(columns, entries // h)))


def test_rectangle_rows_follow_the_columns():
    # the default tiles, 64 x 1024, below 1024 columns grow to as many entries
    E = spatial._PAIR_ENTRIES
    assert [rectangle_rows(E, c) for c in (0, 1, 24, 200, 1023, 1024, 30_600)] == [E, E, 2730, 327, 64, 64, 64]
    for columns in (0, 1, 24, 200, 1023, 1024, 5000):
        z = np.linspace(-1.0, 1.0, columns)
        rows = np.linspace(-1.0, 1.0, 100_000)
        tiles = spatial._z_band(z, 2.5, rows)
        h = rectangle_rows(E, columns)
        assert {i1 - i0 for i0, i1, _, _ in tiles if i1 < len(rows)} <= {h}
        assert bool(tiles) == (columns > 0)
        assert all((i1 - i0) * (j1 - j0) <= E for i0, i1, j0, j1 in tiles)
    # the pair triangle keeps its 64-row blocks at any N
    assert {i1 - i0 for i0, i1, _, _ in spatial._z_band(np.linspace(-1.0, 1.0, 24), 2.5)} == {24}
    assert {i1 - i0 for i0, i1, _, _ in spatial._z_band(np.linspace(-1.0, 1.0, 200), 2.5) if i1 < 200} == {64}


@settings(max_examples=150, deadline=None)
@given(awkward_sets(max_base=80), awkward_sets(max_base=80), st.floats(0.0, 2.5), BLOCK_ENTRIES)
def test_z_band_holds_each_center_within_reach_in_one_tile(P, C, reach, entries):
    # the rectangle plan: rows are centers, columns points, both sorted by z
    z, rows = np.sort(P[:, 2]), np.sort(C[:, 2])
    M, N = len(rows), len(z)
    with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
        tiles = spatial._z_band(z, reach, rows)
    h = rectangle_rows(entries, N)
    held = np.zeros((M, N), dtype=int)
    for i0, i1, j0, j1 in tiles:
        assert i0 % h == 0 and i1 == min(i0 + h, M)
        assert 0 <= j0 < j1 <= N
        assert (i1 - i0) * (j1 - j0) <= entries
        held[i0:i1, j0:j1] += 1
    assert held.max(initial=0) <= 1
    # a center and a point within the reach, as the planner rounds
    # z -+ reach, share exactly one tile
    near = (z[None, :] <= rows[:, None] + reach) & (z[None, :] >= rows[:, None] - reach)
    assert (held[near] == 1).all()
    # a row block whose z range, widened by the reach, holds no point has
    # no tile
    for i0 in range(0, M, h):
        last = rows[min(i0 + h, M) - 1]
        meets = ((z >= rows[i0] - reach) & (z <= last + reach)).any()
        assert meets == any(t[0] == i0 for t in tiles)


@pytest.mark.parametrize("entries, N, k", [(1 << 16, 1100, 3), (64, 40, 1)])
def test_duplicate_in_an_off_diagonal_tile_is_named_by_the_callers_indices(entries, N, k):
    # points on one latitude keep their order under the stable z sort, so
    # a copy of point k put last lies N - 1 - k columns from it: past the
    # first tile's width (1024 at the default, 32 at 64 entries), in a
    # tile whose columns start right of its rows
    phi = np.linspace(0.0, 2 * math.pi, N, endpoint=False)
    P = np.column_stack([0.8 * np.cos(phi), 0.8 * np.sin(phi), np.full(N, 0.6)])
    P[-1] = P[k]
    with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
        tiles = z_band_of(P, math.inf)[1]
        i0, i1, j0, j1 = next(t for t in tiles if t[0] <= k < t[1] and t[2] <= N - 1 < t[3])
        assert j0 > i0
        for s in (1.0, 0.5):
            with pytest.raises(DuplicatePointError) as err:
                spatial.riesz_energy(spatial.UnitPointSet(P), s)
            assert err.value.indices == (k, N - 1)


@pytest.mark.parametrize("N", [63, 64, 65, 1023, 1024, 1025, 1089])
def test_pair_sums_at_tile_boundaries(N):
    # the default tiles are 64 rows by 1024 columns: these sizes end the
    # last row block or a row block's columns just before, at and just
    # past a tile's edge
    pts = spatial.binomial_sample(N, N)
    d2 = dense_difference_d2(pts.points)[~np.eye(N, dtype=bool)]
    for s in (0.5, 1.0, 1.5):
        expect = math.fsum((d2 ** (-s / 2)).tolist())
        assert spatial.riesz_energy(pts, s) == pytest.approx(expect, rel=1e-13), s
    for r in (3 / math.sqrt(N), 0.5, float(np.sqrt(d2[N])), 2.0):
        assert spatial.ripley_k(pts, r) == int((d2 < r * r).sum()), r


def dense_nn_d2(P):
    diff = P[:, None, :] - P[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return d2.min(axis=1)


OCTAHEDRON = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])


@settings(max_examples=150, deadline=None)
@given(awkward_sets())
@example(OCTAHEDRON)
@example(np.concatenate([OCTAHEDRON, OCTAHEDRON[:3]]))
@example(np.array([[0.0, 0, 1], [0.0, 0, -1]]))
@example(np.array([[0.0, 0, 1], [0.0, 0, 1]]))
@example(np.array([[0.0, 0, 1], [0.0, 0, 1], [1.0, 0, 0]]))
@example(np.array([[0.0, 0, 1], [0.0, 0, 1], [0.0, 0, 1], [1.0, 0, 0]]))
@example(np.array([[0.0, 0.6, 0.8], [0.0, 0, 1], [0.6, 0, 0.8]]))
def test_float_spacings_match_dense_difference_form(P):
    # the kd-tree's candidates, ties and duplicates settled, give the dense
    # minimum of the difference form
    N = len(P)
    expect = N * dense_nn_d2(P) / 4
    rep = spatial.nn_spacings(spatial.UnitPointSet(P))
    np.testing.assert_array_max_ulp(rep.rescaled_values, expect, maxulp=1)
    # every row settled over the tree's ball of twice its nearest distance
    with mock.patch.object(spatial, "_NN_TIE", 1.0):
        rep = spatial.nn_spacings(spatial.UnitPointSet(P))
    np.testing.assert_array_max_ulp(rep.rescaled_values, expect, maxulp=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000).filter(lattice.three_squares_representable))
@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(50)
@example(425)
def test_whole_shell_spacings_are_exact(n):
    # the kd-tree on integer points gives the exact largest x.y below n
    pts = spatial.unit_shell(n)
    assert spatial._orbits(pts) is not None
    P = pts.shell.points
    G = P @ P.T
    np.fill_diagonal(G, -n - 1)
    tmax = G.max(axis=1)
    N = len(P)
    expect = N * (2.0 * (n - tmax) / n) / 4
    assert np.array_equal(spatial.nn_spacings(pts).rescaled_values, expect)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6).filter(lattice.three_squares_representable))
@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(50)
@example(425)
@example(4**3 * 1009)  # 4^a m: every point of 4n is twice one of n
@example(7**2 * 2029)  # p^2 m: the points of m scaled by p, and more
def test_whole_shell_spacings_query_one_point_per_orbit(n):
    # the orbit route queries the kd-tree at one point per orbit; every
    # point then takes its orbit's d^2, which the query over all rows gives
    # it too, the same exact integer, so the floats agree byte for byte
    pts = spatial.unit_shell(n)
    P = pts.shell.points
    assert len(lattice.shell_orbits(P).first) < len(P)
    expect = len(P) * (spatial._nn_d2(P) / n) / 4.0
    assert spatial.nn_spacings(pts).rescaled_values.tobytes() == expect.tobytes()


def test_whole_shell_spacings_stay_small():
    # n = 1e8+3 (N = 40 848): the kd-tree route holds a few arrays of N
    # rows, about 10 MB, and no block of Gram products
    pts = spatial.unit_shell(10**8 + 3)
    tracemalloc.start()
    try:
        rep = spatial.nn_spacings(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rescaled_values.size == 40_848
    assert peak < 32 << 20


def band_products(tiles):
    return sum((i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in tiles)


def test_ripley_refuses_over_product_budget_before_any_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Gram products before the budget check")

    monkeypatch.setattr(spatial, "_distance_blocks", forbidden)
    monkeypatch.setitem(BUDGETS, "pair_products", BUDGETS["pair_products"]._replace(limit=10**6))
    pts = spatial.binomial_sample(2000, 5)
    # a small reach predicts few products, the whole sphere about N^2 / 2
    assert band_products(z_band_of(pts.points, 0.01)[1]) < 10**6
    with pytest.raises(DomainError, match="budget"):
        spatial.ripley_k(pts, 2.0)
    # a whole shell plans one row per orbit against every point: n = 100 057
    # predicts 43 x 2016 products, under the limit, so it reaches the
    # products; n = 2 000 003 predicts 179 x 8568, over it
    with pytest.raises(AssertionError, match="before the budget"):
        spatial.ripley_k(spatial.unit_shell(100_057), 2.0)
    with pytest.raises(DomainError, match=f"needs {179 * 8568} Gram products"):
        spatial.ripley_k(spatial.unit_shell(2_000_003), 2.0)
    with pytest.raises(DomainError, match="budget"):
        spatial.riesz_energy(pts, 1.0)


def test_pair_product_budget_admits_the_stretch_shell():
    # n = 1e9 + 3 has N = 88 320 points; at r = 2 the band is the whole
    # sphere, so the predicted products depend on N alone
    P = spatial.binomial_sample(88_320, 1).points
    tiles = z_band_of(P, 2.0)[1]
    assert band_products(tiles) <= BUDGETS["pair_products"].limit
    # energies plan the same whole triangle at reach inf
    assert z_band_of(P, math.inf)[1] == tiles
    # every row block is a whole tile high but the last, and every tile
    # stays within the entry budget: no product shrinks to one row
    assert {i1 - i0 for i0, i1, _, _ in tiles if i1 < len(P)} == {64}
    assert max((i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in tiles) == spatial._PAIR_ENTRIES


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


def decimal_covering(P):
    """60 digits of the largest, over the hull facets within 1e-9 of the
    smallest offset, of the least |u - v| over the facet's vertices v, u
    its unit normal: every sum and product exact in Fractions of the float
    coordinates, and only the square roots rounded."""
    from scipy.spatial import ConvexHull

    def dec(x):
        return Decimal(x.numerator) / Decimal(x.denominator)

    hull = ConvexHull(P)
    off = -hull.equations[:, 3]
    best = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 60
        for tri in hull.simplices[off <= off.min() + 1e-9]:
            a, b, c = ([Fraction(x) for x in P[i].tolist()] for i in tri)
            e, f = [y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)]
            nu = [e[1] * f[2] - e[2] * f[1], e[2] * f[0] - e[0] * f[2], e[0] * f[1] - e[1] * f[0]]
            norm = dec(sum(x * x for x in nu)).sqrt()
            if norm == 0:
                continue
            d2 = min(
                dec(sum(x * x for x in v)) + 1 - 2 * dec(abs(sum(x * y for x, y in zip(nu, v)))) / norm
                for v in (a, b, c)
            )
            best = max(best, d2)
        return best.sqrt()


@pytest.mark.parametrize("N", [2064, 30_600])
def test_float_covering_keeps_its_digits(N):
    # sqrt(2 - 2 * offset) was 21 and 333 ulps off here: the offset's
    # rounding, near 1e-16, is 1/rho^2 times larger relative to rho
    pts = spatial.binomial_sample(N, 7)
    value = spatial.covering_radius(pts)
    exact = decimal_covering(pts.points)
    ulps = abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))
    assert ulps <= 16, (N, float(ulps))


def full_hull_covering(pts):
    """The whole shell's hull, its winning plane evaluated exactly."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts.points)
    return spatial._exact_covering(
        pts.shell.points, pts.shell.n, hull.simplices, -hull.equations[:, 3]
    )


def float_hull_covering(pts):
    """The whole hull's covering radius from float offsets, as
    covering_radius computed it for every set before it read shells'
    integer planes."""
    from scipy.spatial import ConvexHull

    return math.sqrt(2.0 - 2.0 * (-ConvexHull(pts.points).equations[:, 3]).min())


def assert_shell_covering_exact(pts):
    value = spatial.covering_radius(pts)
    assert value == full_hull_covering(pts), pts.shell.n
    assert value == pytest.approx(float_hull_covering(pts), rel=1e-12), pts.shell.n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200_000), st.sampled_from([1.0, 0.01]))
def test_shell_covering_sector_matches_full_hull(n, scale):
    assume(lattice.three_squares_representable(n))
    with mock.patch.object(spatial, "_SECTOR_MARGIN", spatial._SECTOR_MARGIN * scale):
        assert_shell_covering_exact(spatial.unit_shell(n))


@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_shell_covering_sector_matches_full_hull_below_60(monkeypatch, scale):
    # shells of at most 48 points (one orbit) take the whole hull
    monkeypatch.setattr(spatial, "_SECTOR_MARGIN", spatial._SECTOR_MARGIN * scale)
    for n in range(1, 60):
        if lattice.three_squares_representable(n):
            assert_shell_covering_exact(spatial.unit_shell(n))


# a margin 100 times too small lets a hull through clause (b) of the
# certificate wrongly at n = 26 and 53, and through (c) at n = 95 966 and
# 150 821, were either clause dropped
@pytest.mark.parametrize("n", [26, 53, 1009, 95_966, 150_821, 1_000_003])
def test_shell_covering_small_margin_retries(monkeypatch, n):
    import scipy.spatial

    pts = spatial.unit_shell(n)
    value = spatial.covering_radius(pts)
    hulls = []
    hull = scipy.spatial.ConvexHull

    def counting(P, *args, **kwargs):
        hulls.append(len(P))
        return hull(P, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    monkeypatch.setattr(spatial, "_SECTOR_MARGIN", spatial._SECTOR_MARGIN / 100)
    assert spatial.covering_radius(pts) == value
    assert len(hulls) > 1
    assert hulls[-1] < pts.size  # certified on a sector, not the whole hull


def test_shell_covering_passes_rim_slivers_on_the_first_hull(monkeypatch):
    # n = 17 100 026 (N = 54 240): the first hull's only facets that broke
    # (c) were slivers between points on the rim of the gathered cap, whose
    # caps (rho about 1.1) reached past chord 2 from c0; each has its
    # nearest vertex farther than r_D + its longest edge from c0, so its
    # triangle misses the cap around the sector and (c) leaves it out
    import scipy.spatial

    n = 17_100_026
    pts = spatial.unit_shell(n)
    hulls = []
    hull = scipy.spatial.ConvexHull

    def counting(P, *args, **kwargs):
        hulls.append(len(P))
        return hull(P, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    value = spatial.covering_radius(pts)
    assert hulls == [5490]
    monkeypatch.setattr(scipy.spatial, "ConvexHull", hull)
    assert value == full_hull_covering(pts)


@pytest.mark.parametrize("n", [59, 1009, 100_057])
def test_shell_covering_ignores_row_order(n):
    # a shuffled copy of a shell, built by hand, carries no orbit record
    # and takes the whole hull: it gives the bare copy's radius in the
    # enumerated order exactly, and the sector hull's to 1e-12
    pts = spatial.unit_shell(n)
    perm = np.random.default_rng(n).permutation(pts.size)
    shuffled = spatial.project(lattice.LatticeSet(n, pts.shell.points[perm]))
    value = spatial.covering_radius(shuffled)
    assert value == spatial.covering_radius(spatial.UnitPointSet(pts.points))
    assert value == pytest.approx(spatial.covering_radius(pts), rel=1e-12)


def test_covering_radius_mesh_agrees(octahedron):
    exact = spatial.covering_radius(octahedron)
    est = spatial.covering_radius_mesh(octahedron, resolution=5e-3)
    assert 0 <= exact - est <= 5e-3


def assert_interval_holds(pts, resolution):
    lo, hi = spatial.covering_interval(pts, resolution)
    assert hi - lo <= resolution
    try:
        hull = spatial.covering_radius(pts)
    except DomainError:
        # all points in a closed hemisphere: the covering radius is >= sqrt(2)
        assert hi >= math.sqrt(2) - 1e-12
        return
    assert lo <= hull + 1e-12
    assert hull <= hi + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=4, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-4, max_value=0.05),
)
def test_covering_interval_holds_hull_on_samples(N, seed, resolution):
    assert_interval_holds(spatial.binomial_sample(N, seed), resolution)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=60_000), st.floats(min_value=1e-4, max_value=0.05))
def test_covering_interval_holds_hull_on_shells(n, resolution):
    assume(lattice.three_squares_representable(n))
    assert_interval_holds(spatial.unit_shell(n), resolution)


@pytest.mark.parametrize("resolution", [0.05, 1e-3, 1e-4])
def test_covering_interval_pinned(octahedron, antipodal_pair, resolution):
    one = spatial.UnitPointSet(np.array([[0.0, 0.0, 1.0]]))
    octa = math.sqrt(2 - 2 / math.sqrt(3))
    for pts, value in ((one, 2.0), (antipodal_pair, math.sqrt(2)), (octahedron, octa)):
        lo, hi = spatial.covering_interval(pts, resolution)
        assert lo - 1e-12 <= value <= hi + 1e-12, (pts.size, lo, value, hi)
        assert hi - lo <= resolution


def test_covering_interval_keeps_digits_at_finest_resolution():
    pts = spatial.binomial_sample(500, 3)
    lo, hi = spatial.covering_interval(pts, 1e-9)
    hull = spatial.covering_radius(pts)
    assert hi - lo <= 1e-9
    assert lo - 1e-12 <= hull <= hi + 1e-12


class _NoTree:
    def __init__(self, *args, **kwargs):
        raise AssertionError("kd-tree built before the refusal")


def test_covering_interval_refuses_fine_resolution_up_front(monkeypatch, octahedron):
    import scipy.spatial

    monkeypatch.setattr(scipy.spatial, "cKDTree", _NoTree)
    for resolution in (9.9e-10, 1e-12, 0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            spatial.covering_interval(octahedron, resolution)
    with pytest.raises(DomainError):
        spatial.covering_radius_mesh(octahedron, 1e-10)


def test_covering_interval_refuses_starting_grid_over_budget(monkeypatch):
    import scipy.spatial

    pts = spatial.binomial_sample(1000, 1)  # k0 = 13: 1014 starting cells
    monkeypatch.setitem(BUDGETS, "cover_cells", BUDGETS["cover_cells"]._replace(limit=1000))
    monkeypatch.setattr(scipy.spatial, "cKDTree", _NoTree)
    with pytest.raises(DomainError):
        spatial.covering_interval(pts, 1e-3)


def test_covering_interval_refuses_flat_maximum_in_bounded_memory():
    # one point: every point at chord >= 2 - e^2/4 from the antipode keeps
    # its cell, about 4 pi / rho cells, past the budget near rho = 1e-5
    import tracemalloc

    one = spatial.UnitPointSet(np.array([[0.0, 0.0, 1.0]]))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="cells"):
            spatial.covering_interval(one, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one level of "cover_cells" cells keeps a cell (3 int64) and its bound
    # (float64); a chunk's geometry adds about 10 MB
    assert peak < 64 * 2**20, peak


# ------------------------------------------------------------------ counting

def count_in(pts, center, spec):
    """Points with rho1 <= |P - center| <= rho2, read off the dot window."""
    lo, hi = spec.dot_window()
    dots = pts.points @ np.asarray(center, dtype=np.float64)
    return int(((dots >= lo) & (dots <= hi)).sum())


def test_points_on_their_center_count():
    # x.x rounds to 1 + 2^-52 for some points; a cap has no upper dot test
    # and the whole sphere no lower one, so neither drops such a point
    pts = spatial.binomial_sample(170, 0)
    assert count_in(pts, pts.points[5], spatial.AnnulusSpec(0.0, 0.1)) >= 1
    for x in pts.points:
        assert count_in(pts, x, spatial.AnnulusSpec(0.0, 1e-3)) >= 1
        assert count_in(pts, -x, spatial.AnnulusSpec(0, 2)) == 170
    # the centers of 170 samples at seed 0 are that sample's own points
    rep = spatial.number_variance(pts, spatial.AnnulusSpec(0, 2), 170, seed=0)
    assert rep.mean == 170 and rep.variance == 0


def test_count_in_pinned(octahedron):
    e1 = np.array([1.0, 0.0, 0.0])
    assert count_in(octahedron, e1, spatial.AnnulusSpec(0.0, 2.0)) == 6
    assert count_in(octahedron, e1, spatial.AnnulusSpec(0.0, 1.0)) == 1
    assert count_in(octahedron, e1, spatial.AnnulusSpec(1.0, 1.5)) == 4


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
    assert abs(rep.mean - 2000 * 1e-2) <= 5 * math.sqrt(rep.variance / rep.samples)


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
    spec = spatial.AnnulusSpec(0.0, 0.8)
    a = spatial.number_variance(shell5, spec, 500, seed=42)
    b = spatial.number_variance(shell5, spec, 500, seed=42)
    assert (a.mean, a.variance) == (b.mean, b.variance)


def test_number_variance_rejects_few_samples(shell5):
    with pytest.raises(DomainError):
        spatial.number_variance(shell5, spatial.AnnulusSpec(0.0, 0.5), 99, seed=0)


def dense_histogram(pts, spec, samples, seed):
    """Annulus-count histogram with every center dotted with every point,
    over the centers number_variance draws (same chunks, same stream)."""
    N = pts.size
    lo, hi = spec.dot_window()
    rng = np.random.Generator(np.random.Philox(seed))
    hist = np.zeros(N + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(N, 1))
    remaining = samples
    while remaining:
        k = min(chunk, remaining)
        remaining -= k
        dots = spatial._random_units(rng, k) @ pts.points.T
        hist += np.bincount(((dots >= lo) & (dots <= hi)).sum(axis=1), minlength=N + 1)
    return hist


def assert_banded_equals_dense(pts, spec, samples, seed, sizes=(16, 256, spatial._PAIR_ENTRIES)):
    """The annulus count's histogram on tiles of each of these sizes (by
    default 1 x 16, 4 x 64 and 64 x 1024 centers by points) equals the
    dense one."""
    dense = dense_histogram(pts, spec, samples, seed)
    assert dense.sum() == samples
    for entries in sizes:
        with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
            banded = spatial._annulus_histogram(pts, spec, samples, seed)
        assert banded.tolist() == dense.tolist(), entries


@st.composite
def variance_point_sets(draw):
    """Binomial samples, lattice shells (many tied z) or sets with both poles."""
    kind = draw(st.sampled_from(["binomial", "shell", "poles"]))
    if kind == "shell":
        return spatial.unit_shell(draw(st.integers(min_value=1, max_value=30_000)))
    pts = spatial.binomial_sample(draw(st.integers(1, 3000)), draw(st.integers(0, 2**31 - 1)))
    if kind == "binomial":
        return pts
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]] * draw(st.integers(1, 3)))
    return spatial.UnitPointSet(np.vstack([pts.points, poles]))


@st.composite
def annuli(draw):
    if draw(st.integers(0, 4)) == 0:
        return spatial.AnnulusSpec(0, 2)
    rho2 = draw(st.floats(min_value=1e-6, max_value=2.0))
    rho1 = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))) * rho2
    assume(rho1 < rho2)
    return spatial.AnnulusSpec(rho1, rho2)


# Center seeds lie above every point seed.  A sample drawn from the
# centers' own stream puts points exactly on centers.  A cap has no upper
# dot test, but an annulus whose rho1^2/2 rounds away has hi = 1, where a
# dot of 1 +- 1 ulp decides the count and depends on the BLAS kernel (a
# one-row product goes through gemv, a block through gemm).
@settings(max_examples=150, deadline=None)
@given(variance_point_sets(), annuli(), st.integers(100, 4000), st.integers(2**31, 2**32))
def test_banded_counts_match_dense(pts, spec, samples, seed):
    chunk = max(1, (1 << 22) // max(pts.size, 1))
    assume(samples % 4 and samples % chunk)
    # one-row tiles are left to the smaller sets of the pinned cases and
    # of the workspace test: here they would take a tile per 16 points
    # for every center
    assert_banded_equals_dense(pts, spec, samples, seed, sizes=(256, spatial._PAIR_ENTRIES))


def test_banded_counts_pinned_cases(octahedron, shell5):
    # several chunks with a partial last one (chunk = 1398 at N = 3000)
    # (one-row tiles only on the small sets, as in test_banded_counts_match_dense)
    big = spatial.binomial_sample(3000, 4)
    wide = (256, spatial._PAIR_ENTRIES)
    assert_banded_equals_dense(big, spatial.AnnulusSpec.cap_of_area(0.01), 2 * 1398 + 5, 11, wide)
    assert_banded_equals_dense(big, spatial.AnnulusSpec(0.3, 0.5), 1398 + 131, 12, wide)
    assert_banded_equals_dense(octahedron, spatial.AnnulusSpec(0, 2), 333, 13)
    assert_banded_equals_dense(shell5, spatial.AnnulusSpec(0.9, 1.1), 1001, 14)
    empty = spatial.unit_shell(7)
    assert empty.size == 0
    assert_banded_equals_dense(empty, spatial.AnnulusSpec(0.0, 0.5), 101, 15)


def columns_walked(pts, spec, samples, seed):
    """The histogram of `_annulus_histogram` and the number of points its
    first chunk walks (the columns of its first plan)."""
    seen = []
    plan = spatial._z_band

    def spy(z, reach, rows=None):
        seen.append(len(z))
        return plan(z, reach, rows)

    with mock.patch.object(spatial, "_z_band", spy):
        hist = spatial._annulus_histogram(pts, spec, samples, seed)
    return hist, seen[0]


# caps, annuli, the whole sphere, and radii whose gather around the sector,
# r_D + rho2 past 2, drops no point
SECTOR_SPECS = [
    spatial.AnnulusSpec.cap_of_area(0.01),
    spatial.AnnulusSpec(0.0, 0.05),
    spatial.AnnulusSpec(0.05, 0.3),
    spatial.AnnulusSpec(0.3, 0.9),
    spatial.AnnulusSpec(0, 2),
    spatial.AnnulusSpec(0.0, 1.6),
    spatial.AnnulusSpec(1.0, 1.8),
]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 200_000).filter(lattice.three_squares_representable),
    st.one_of(st.sampled_from(SECTOR_SPECS), annuli()),
    st.integers(100, 3000),
    st.integers(2**31, 2**32),
)
@example(100_057, SECTOR_SPECS[0], 2 * 2080 + 5, 2**31)  # three chunks of N = 2016
@example(5, SECTOR_SPECS[5], 1001, 2**31 + 1)
@example(425, SECTOR_SPECS[6], 1001, 2**31 + 2)
@example(3, SECTOR_SPECS[4], 333, 2**31 + 3)
def test_sector_cap_counts_match_dense_folded_and_not(n, spec, samples, seed):
    # two paths to one histogram: a whole shell folds its centers into the
    # sector and walks only the points near it; the same points stripped of
    # their source walk unfolded; both equal every center dotted with every
    # point, on the default tiles and on 4 x 64 ones
    pts = spatial.unit_shell(n)
    bare = spatial.UnitPointSet(pts.points)
    assert spatial._orbits(pts) is not None and spatial._orbits(bare) is None
    wide = (256, spatial._PAIR_ENTRIES)
    assert_banded_equals_dense(pts, spec, samples, seed, wide)
    assert_banded_equals_dense(bare, spec, samples, seed, wide)


def test_sector_cap_counts_walk_the_points_near_the_sector():
    # n = 100 057 (N = 2016): a cap of area 0.01 around a center of the
    # sector reaches only the points within r_D + 0.2 of its centre, about
    # a ninth of the shell; once r_D + rho2 passes 2 every point is walked,
    # and a set that is no whole shell always walks every point
    pts = spatial.unit_shell(100_057)
    bare = spatial.UnitPointSet(pts.points)
    for spec in SECTOR_SPECS:
        hist, walked = columns_walked(pts, spec, 500, 31)
        bare_hist, bare_walked = columns_walked(bare, spec, 500, 31)
        assert hist.tolist() == bare_hist.tolist() == dense_histogram(pts, spec, 500, 31).tolist()
        assert bare_walked == pts.size
        gather = spatial._SECTOR_RADIUS + math.sqrt(spec.rho2**2 + spatial._BAND_SLACK) + spatial._SECTOR_SLACK
        assert (walked == pts.size) == (gather >= 2.0), spec
        if spec.rho2 <= 0.3:
            assert walked < pts.size / 4, spec


def chunk_plan(pts, spec, samples, seed):
    """The first chunk's centers of `number_variance`, sorted by z, and
    their tiles against the points at the default size."""
    k = min(samples, max(1, (1 << 22) // max(pts.size, 1)))
    centers = spatial._random_units(spatial._rng(seed), k)
    centers = centers[np.argsort(centers[:, 2])]
    reach = math.sqrt(spec.rho2**2 + spatial._BAND_SLACK)
    return centers, spatial._z_band(np.sort(pts.points[:, 2]), reach, centers[:, 2])


def test_banded_counts_sum_a_center_over_its_row_blocks_tiles():
    # 3000 points, chunks of 1398 centers: a row block of 64 centers spans
    # about 0.09 in z, and an annulus of outer radius 1.2 gives it some
    # 2000 points, two 1024-wide tiles or more, over which each count sums
    pts = spatial.binomial_sample(3000, 21)
    spec = spatial.AnnulusSpec(0.4, 1.2)
    _, tiles = chunk_plan(pts, spec, 1398 + 77, 22)
    per_block = collections.Counter(i0 for i0, _, _, _ in tiles)
    assert max(per_block.values()) >= 2
    assert_banded_equals_dense(pts, spec, 1398 + 77, 22, (256, spatial._PAIR_ENTRIES))


def test_banded_counts_stay_zero_where_a_row_block_meets_no_point():
    # twelve points on one circle near the north pole and caps of radius
    # 0.3: only the row blocks of centers above z = 0.69 reach a point in
    # z, and the rest have no tile, so their centers' counts are the zeros
    # they start at (twelve columns give row blocks of 5461 centers)
    phi = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    pts = spatial.UnitPointSet(np.column_stack([0.1 * np.cos(phi), 0.1 * np.sin(phi), np.full(12, math.sqrt(0.99))]))
    spec = spatial.AnnulusSpec(0.0, 0.3)
    _, tiles = chunk_plan(pts, spec, 20_001, 23)
    h = rectangle_rows(spatial._PAIR_ENTRIES, 12)
    assert len({i0 for i0, _, _, _ in tiles}) < len(range(0, 20_001, h)) // 2
    dense = dense_histogram(pts, spec, 20_001, 23)
    assert 0 < dense[1:].sum() < dense[0]
    assert_banded_equals_dense(pts, spec, 20_001, 23)


def test_banded_counts_keep_points_past_a_fixed_pad():
    # points 1.4e-6 from their center with norm 1 + 9e-13 (inside the
    # UnitPointSet tolerance) dot it at lo + 4e-13 for a cap of radius
    # 1e-6, so every BLAS kernel counts them, yet their z lies farther
    # than rho2 + 1e-9 from the center's
    spec = spatial.AnnulusSpec(0.0, 1e-6)
    theta, eta = 1.4e-6, 9e-13
    rng = np.random.Generator(np.random.Philox(5))
    centers = spatial._random_units(rng, 101)
    planted = []
    for c in centers[np.abs(centers[:, 2]) < 0.6]:
        up = np.array([0.0, 0.0, 1.0]) - c[2] * c
        up /= np.linalg.norm(up)
        for sign in (1, -1):
            planted.append((1 + eta) * (math.cos(theta) * c + sign * math.sin(theta) * up))
            assert abs(planted[-1][2] - c[2]) > spec.rho2 + 1e-9
            assert planted[-1] @ c > spec.dot_window()[0] + 1e-13
    pts = spatial.UnitPointSet(np.array(planted))
    assert pts.size >= 40
    dense = dense_histogram(pts, spec, 101, 5)
    assert dense[2:].sum() >= 20  # each such center sees both of its points
    assert_banded_equals_dense(pts, spec, 101, 5)


# ----------------------------------------------------------- pair workspace

def dense_difference_d2(P):
    """Every |P_i - P_j|^2 from coordinate differences, in the kernel's einsum form."""
    diff = (P[:, None, :] - P[None, :, :]).reshape(-1, 3)
    return np.einsum("ij,ij->i", diff, diff).reshape(len(P), len(P))


@settings(max_examples=120, deadline=None)
@given(
    awkward_sets(max_base=60),
    st.sampled_from([1, 7, 64, 1 << 16]),
    st.floats(1e-3, 2.0),
    st.integers(0, 10**6),
    annuli(),
    st.integers(2**31, 2**32),
)
def test_pair_workspace_matches_dense(P, entries, r, pick, spec, seed):
    # one workspace serves tiles of many shapes: ragged last rows and
    # columns of the full triangle, and z-band tiles of varying widths; a
    # stale tail of the buffer would move these sums
    N = len(P)
    pts = spatial.UnitPointSet(P)
    d2 = dense_difference_d2(P)
    off = ~np.eye(N, dtype=bool)
    dup = bool((d2[off] < 1e-14).any())
    with mock.patch.object(spatial, "_PAIR_ENTRIES", entries):
        for s in (1.0, 0.5):
            if dup:
                with pytest.raises(DuplicatePointError):
                    spatial.riesz_energy(pts, s)
                continue
            terms = d2[off] ** (-s / 2)
            assert spatial.riesz_energy(pts, s) == pytest.approx(math.fsum(terms.tolist()), rel=1e-13)
        own = float(np.sqrt(d2[off][pick % (N * N - N)]))
        for radius in (r, min(2.0, max(1e-3, own)), 2.0):
            assert spatial.ripley_k(pts, radius) == int((d2[off] < radius * radius).sum()), radius
        # the walk itself over a z-band plan: each tile is its slice of the
        # dense d^2, self entries at +inf, and f(d^2) = max(0, r^2 - d^2)
        # vanishes beyond the reach, so the band's once/twice sum is the
        # sum over all ordered pairs i != j
        order, tiles = z_band_of(P, r)
        S = P[order]
        dense = dense_difference_d2(S)
        np.fill_diagonal(dense, np.inf)
        parts = []
        for (i0, i1, j0, j1), (k0, l0, tile) in zip(tiles, spatial._distance_blocks(S, tiles), strict=True):
            assert (k0, l0) == (i0, j0)
            np.testing.assert_allclose(tile, dense[i0:i1, j0:j1], rtol=0, atol=1e-14)
            parts.append(float(spatial._ordered(np.sum, np.maximum(r * r - tile, 0.0), i0, j0)))
        expect = math.fsum(np.maximum(r * r - dense, 0.0).ravel().tolist())
        assert math.fsum(parts) == pytest.approx(expect, rel=1e-12, abs=1e-14 * N * N)
    hist = dense_histogram(pts, spec, 300, seed)
    for size in (16, 256):
        with mock.patch.object(spatial, "_PAIR_ENTRIES", size):
            banded = spatial._annulus_histogram(pts, spec, 300, seed)
        assert banded.tolist() == hist.tolist(), size


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

def antipodal(pts):
    """The set mapped by x -> -x, a shell's image as its rows negated,
    built by hand and so with no orbit record."""
    if pts.shell is None:
        return spatial.UnitPointSet(-pts.points)
    return spatial.project(lattice.LatticeSet(pts.shell.n, -pts.shell.points))


def test_statistics_antipodal_invariance(shell5):
    # the image of a whole shell is the shell in another row order; it
    # takes the general routes, and the Ripley count its integer rows
    flipped = antipodal(shell5)
    assert spatial.riesz_energy(shell5, 1.0) == pytest.approx(spatial.riesz_energy(flipped, 1.0), rel=1e-12)
    assert spatial.ripley_k(shell5, 0.9) == spatial.ripley_k(flipped, 0.9)
    assert spatial.covering_radius(shell5) == pytest.approx(
        spatial.covering_radius(flipped), rel=1e-12
    )
    a = spatial.nn_spacings(shell5).rescaled_values
    b = spatial.nn_spacings(flipped).rescaled_values
    assert np.allclose(np.sort(a), np.sort(b))
