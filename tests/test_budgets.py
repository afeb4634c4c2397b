"""Every entry of `errors.BUDGETS` refuses before the work it bounds.

For each budget a small input is taken and the function that would do
its work is made to fail.  With the limit set one unit below the input's
predicted cost, the input is refused with DomainError (and by exit code 2
where a command reaches it); with the limit at that cost, it is admitted
and runs into the failing work, which shows both the prediction and that
the check comes first.  The per-budget tests next to each module hold
the real limits against the sizes they are meant to admit.
"""

import math

import numpy as np
import pytest

from threesq import arith, harmonics, lattice, primes, spatial
from threesq import twosquares as ts
from threesq.cli import main
from threesq.errors import BUDGETS, DomainError


def forbidden(*args, **kwargs):
    raise AssertionError("work before the budget check")


def forbid(monkeypatch, owner, name):
    monkeypatch.setattr(owner, name, forbidden)


class Forbidding:
    """A module whose one attribute fails, every other being the module's."""

    def __init__(self, module, name):
        self.module, self.name = module, name

    def __getattr__(self, attr):
        return forbidden if attr == self.name else getattr(self.module, attr)


def case_pair_products(mp):
    forbid(mp, spatial, "_distance_blocks")
    pts = spatial.binomial_sample(100, 1)
    # energies plan at reach inf and Ripley counts at reach 2, which on
    # the unit sphere is the whole band too: a row block of 64 rows by
    # 100 columns, then one of the last 36 rows by 36 columns
    products = 64 * 100 + 36 * 36
    # a whole shell plans one row per orbit against every point: n = 5 has
    # one orbit, the 24 signed permutations of (0, 1, 2), so 1 x 24
    shell = spatial.unit_shell(5)
    return [
        (products, lambda: spatial.riesz_energy(pts, 1.0)),
        (products, lambda: spatial.ripley_k(pts, 2.0)),
        (products, ["baseline", "--stat", "energy", "--N", "100", "--seed", "1"]),
        (1 * 24, lambda: spatial.ripley_k(shell, 2.0)),
        (1 * 24, ["energy", "--n", "5"]),
    ]


def case_sample_points(mp):
    forbid(mp, spatial, "_random_units")
    return [
        (101, lambda: spatial.binomial_sample(101, 1)),
        (101, ["baseline", "--stat", "spacing", "--N", "101", "--seed", "1"]),
    ]


def case_center_products(mp):
    forbid(mp, spatial, "_random_units")
    forbid(mp, harmonics, "_random_units")
    shell = spatial.unit_shell(5)  # 24 points, below either floor
    return [
        (100 * 256, lambda: spatial.number_variance(shell, spatial.AnnulusSpec(0.0, 0.5), 100, 1)),
        (100 * 1024, lambda: harmonics.cap_discrepancy_estimate(shell, 100, [0.5], 1)),
        (100 * 256, ["variance", "--n", "5", "--sigma", "0.1", "--samples", "100", "--seed", "1"]),
        (100 * 1024, ["discrepancy", "--n", "5", "--m-max", "5", "--centers", "100", "--seed", "1"]),
    ]


def case_partition_cells(mp):
    # the partition's first array is np.arange(bands)
    mp.setattr(spatial, "np", Forbidding(np, "arange"))
    return [
        (10, lambda: spatial.equal_area_cells(10)),
        (10, lambda: spatial.box_moment(spatial.unit_shell(5), 10)),
        (10, ["boxes", "--n", "5", "--cells", "10"]),
    ]


def case_cover_cells(mp):
    forbid(mp, spatial, "_cell_geometry")
    # k0 = ceil(sqrt(N / 6)): 13 for 1000 points, 2 for the 24 of n = 5
    pts = spatial.binomial_sample(1000, 1)
    return [
        (6 * 13 * 13, lambda: spatial.covering_interval(pts, 1e-3)),
        (6 * 2 * 2, ["covering", "--n", "5", "--mesh-check", "0.1"]),
    ]


def case_gram_products(mp):
    forbid(mp, lattice, "orbit_gram_rows")
    lattice.pair_table.cache_clear()
    # n = 101 has N = 168
    return [
        (168**2 // 48, lambda: lattice.pair_table(101)),
        (168**2 // 48, ["pairs", "--n", "101"]),
    ]


def case_pole_candidates(mp):
    forbid(mp, lattice, "_solve_rows")
    return [
        (11 * (math.isqrt(1000) + 1), lambda: lattice.points_near_pole(100, 10)),
        (11 * (math.isqrt(1000) + 1), ["twosq-probe", "--m", "100", "--h", "10"]),
    ]


def case_class_number_disc(mp):
    forbid(mp, primes, "primes_up_to")
    return [(23, lambda: arith.class_number.__wrapped__(-23))]


def case_formula_cells(mp):
    forbid(mp, arith, "_formula_rows")
    # the sum of 2n - 1 over the shells; verify-arith --n-max 5 checks the
    # squarefree shells 1, 2, 3 and 5
    return [
        (5 + 13, lambda: arith.pair_count_formula_table([3, 7])),
        (1 + 3 + 5 + 9, ["verify-arith", "--n-max", "5"]),
    ]


def case_gap_scan(mp):
    forbid(mp, ts, "_sieve_segment")
    return [
        (1000 + 2000, lambda: ts.gap_scan([1000, 2000])),
        (1000, ["twosq-gaps", "--y-list", "1000"]),
    ]


def case_window_bytes(mp):
    forbid(mp, ts, "_sieve_segment")
    return [
        (8 * 1000, lambda: ts.window(1000)),
    ]


def case_prime_table(mp):
    forbid(mp, primes, "_build")
    mp.setattr(primes, "_limit", 0)  # as if nothing were sieved yet
    # twosq-gaps at Y = 5000 sieves [5000, 10000) with primes up to isqrt(9999)
    return [
        (100, lambda: primes.ensure(100)),
        (99, ["twosq-gaps", "--y-list", "5000"]),
    ]


def case_harmonic_terms(mp):
    # the first work after the check: the order sums' array of
    # _harmonic_sums, and the basis rows of weyl_sums
    mp.setattr(harmonics, "np", Forbidding(np, "zeros"))
    forbid(mp, harmonics, "_harmonic_rows")
    spec = spatial.AnnulusSpec.cap_of_area(0.1)
    pts = spatial.binomial_sample(10, 1)
    # 36 order terms to degree 7 per row: the 24 points of n = 5, or its 3
    # orbits under the signed permutations that fix the z axis
    return [
        (10 * 36, lambda: harmonics.variance_series(None, spec, 7, points=pts)),
        (3 * 36, lambda: harmonics.variance_series(5, spec, 7)),
        (3 * 36, lambda: harmonics.discrepancy_bound(5, 7)),
        (24 * 36, lambda: harmonics.weyl_sums(5, 7)),
        (3 * 36, ["variance", "--n", "5", "--sigma", "0.1", "--m-max", "7"]),
        (3 * 36, ["discrepancy", "--n", "5", "--m-max", "7"]),
        (24 * 36, ["weyl", "--n", "5", "--degree", "7"]),
    ]


def case_verify_arith(mp):
    forbid(mp, lattice, "pair_table")
    forbid(mp, arith, "pair_count_formula_table")
    return [(5 * 5 * 263 // 160, ["verify-arith", "--n-max", "5"])]


CASES = {name.removeprefix("case_"): case for name, case in globals().items() if name.startswith("case_")}


def set_limit(mp, name, limit):
    mp.setitem(BUDGETS, name, BUDGETS[name]._replace(limit=limit))


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_budget_refuses_one_unit_past_its_limit_before_any_work(name, monkeypatch, capsys):
    for predicted, run in CASES[name](monkeypatch):
        set_limit(monkeypatch, name, predicted - 1)
        if callable(run):
            with pytest.raises(DomainError, match="over the budget"):
                run()
        else:
            assert main(run) == 2, run
            assert "over the budget" in capsys.readouterr().err, run
        set_limit(monkeypatch, name, predicted)
        if callable(run):
            with pytest.raises(AssertionError, match="work before the budget"):
                run()
        else:
            assert main(run) == 3, run
            assert "work before the budget" in capsys.readouterr().err, run


def test_formula_cells_bound_the_whole_table(monkeypatch):
    # one shell of n = 2^22 fills the budget alone; 64 of them would take
    # 17 GB in the table's int64 columns and are refused together
    forbid(monkeypatch, arith, "_formula_rows")
    n = 1 << 22
    assert 2 * n - 1 == BUDGETS["formula_cells"].limit
    with pytest.raises(AssertionError, match="work before the budget"):
        arith.pair_count_formula_table([n])
    with pytest.raises(DomainError, match="over the budget"):
        arith.pair_count_formula_table([n] * 64)


def test_every_case_is_a_budget():
    assert set(CASES) == set(BUDGETS)
