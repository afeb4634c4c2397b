import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threesq import lattice
from threesq.errors import DomainError


# ---------------------------------------------------------------- oracles

def brute_enumerate(n):
    """Full signed triple loop; the reference for small n."""
    pts = []
    r = math.isqrt(n)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            rem = n - x * x - y * y
            if rem < 0:
                continue
            z = math.isqrt(rem)
            if z * z == rem:
                pts.append((x, y, z))
                if z:
                    pts.append((x, y, -z))
    return [list(p) for p in sorted(pts)]


def convolution_counts(limit):
    """N_n for all n <= limit via triple convolution of square counts."""
    base = np.zeros(limit + 1)
    for z in range(math.isqrt(limit) + 1):
        base[z * z] += 1 if z == 0 else 2
    r2 = np.convolve(base, base)[: limit + 1]
    r3 = np.convolve(r2, base)[: limit + 1]
    return np.rint(r3).astype(np.int64)


# ------------------------------------------------------------- enumeration

def test_enumerate_pinned_sets():
    assert lattice.enumerate_points(1).points.tolist() == brute_enumerate(1)
    assert lattice.enumerate_points(1).size == 6
    assert lattice.enumerate_points(7).size == 0
    e5 = lattice.enumerate_points(5)
    assert e5.size == 24
    assert e5.points.tolist() == brute_enumerate(5)
    # signed permutations of (2, 1, 0) only
    assert all(sorted(map(abs, p)) == [0, 1, 2] for p in e5.points.tolist())


def test_enumerate_matches_brute_small():
    for n in range(1, 200):
        assert lattice.enumerate_points(n).points.tolist() == brute_enumerate(n), n


def test_enumerate_counts_match_convolution_to_10000():
    counts = convolution_counts(10_000)
    for n in range(1, 10_001):
        assert lattice.enumerate_points(n).size == counts[n], n
    lattice.enumerate_points.cache_clear()


def test_enumerate_empty_iff_4a_8b7():
    for n in range(1, 600):
        empty = lattice.enumerate_points(n).size == 0
        assert empty == (not lattice.three_squares_representable(n)), n


def test_primitive_flags():
    e4 = lattice.enumerate_points(4)
    assert e4.size == 6 and not e4.primitive.any()  # all (0,0,+-2) type
    e5 = lattice.enumerate_points(5)
    assert e5.primitive.all()


def test_enumerate_rejects_nonpositive():
    with pytest.raises(DomainError):
        lattice.enumerate_points(0)


# -------------------------------------------------------------- pair tables

def table_items(tbl):
    """The table's (t, count) rows, in its own (ascending) order."""
    return list(zip(tbl.t.tolist(), tbl.count.tolist()))


def test_pair_table_octahedron_census():
    assert table_items(lattice.pair_table(1)) == [(-1, 6), (0, 24), (1, 6)]


def test_pair_table_marginals():
    tbl = lattice.pair_table(2)
    assert tbl.total == 144  # N = 12
    for n in (1, 2, 3, 5, 6, 9, 17, 38):
        tbl = lattice.pair_table(n)
        N = lattice.enumerate_points(n).size
        assert tbl.total == N * N
        assert lattice.pair_count(n, n) == N and lattice.pair_count(n, -n) == N
        assert tbl.t[0] == -n and tbl.t[-1] == n and np.all(np.diff(tbl.t) > 0)
        assert all(lattice.pair_count(n, -t) == c for t, c in table_items(tbl))


def test_pair_table_against_brute_double_loop():
    for n in (1, 2, 3, 5, 6, 11):
        pts = brute_enumerate(n)
        hist = {}
        for a in pts:
            for b in pts:
                t = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                hist[t] = hist.get(t, 0) + 1
        assert table_items(lattice.pair_table(n)) == sorted(hist.items()), n


def integer_gram_histogram(n):
    """Histogram of the full N x N integer Gram matrix, no symmetry used."""
    P = lattice.enumerate_points(n).points
    t, c = np.unique(P @ P.T, return_counts=True)
    return dict(zip(t.tolist(), c.tolist()))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(50)
@example(425)
def test_pair_table_matches_integer_gram(n):
    assert table_items(lattice.pair_table(n)) == sorted(integer_gram_histogram(n).items())


def test_shell_orbits_partition_the_shell():
    sizes = set()
    for n in (1, 2, 3, 9, 25, 50, 425):
        P = lattice.enumerate_points(n).points
        orb = lattice.shell_orbits(P)
        assert orb.size.sum() == len(P)
        assert np.array_equal(np.bincount(orb.index), orb.size)
        key = np.sort(np.abs(P), axis=1)
        assert np.array_equal(key, np.sort(np.abs(orb.reps), axis=1)[orb.index])
        sizes.update(orb.size.tolist())
    assert sizes == {6, 8, 12, 24, 48}


def test_pair_table_empty_flagged():
    tbl = lattice.pair_table(7)
    assert tbl.empty


def test_pair_count_pinned():
    assert lattice.pair_count(1, 0) == 24  # each axis point has 4 orthogonal mates
    assert lattice.pair_count(5, 5) == 24  # diagonal pairs
    assert lattice.pair_count(5, 4) == 72
    assert lattice.pair_count(5, 0) == 48
    assert lattice.pair_count(4, 0) == 24
    assert lattice.pair_count(5, 3) == 24 and lattice.pair_count(4, 2) == 0  # gap
    assert lattice.pair_count(7, 0) == 0  # empty shell


# ------------------------------------------------------------ distance bands

def test_pairs_in_band_pinned():
    assert lattice.pairs_in_band(1, 0, 3) == 24  # only |x-y|^2 = 2 qualifies
    assert lattice.pairs_in_band(5, 0, 2.5) == 72  # single closest shell
    for n in (1, 5, 6):
        N = lattice.enumerate_points(n).size
        assert lattice.pairs_in_band(n, 0, 8 * n) == N * N - N


def test_pairs_in_band_additive_on_shells():
    n = 38
    for cut in (3.1, 7.9, 20.3):  # cuts that avoid the even shell values
        total = lattice.pairs_in_band(n, 0, 4 * n + 1)
        assert (
            lattice.pairs_in_band(n, 0, cut) + lattice.pairs_in_band(n, cut, 4 * n + 1)
            == total
        )


def test_pairs_in_band_strictness():
    # |x-y|^2 = 2 pairs must be excluded by a = 2 and b = 2 alike
    assert lattice.pairs_in_band(1, 2, 3) == 0
    assert lattice.pairs_in_band(1, 0, 2) == 0
    assert lattice.pairs_in_band(1, 1.9999, 2.0001) == 24


def test_pairs_in_band_infinite_upper():
    N = lattice.enumerate_points(5).size
    assert lattice.pairs_in_band(5, 0, math.inf) == N * N - N


@st.composite
def bands(draw):
    """(n, a, b): ints, floats and Fractions on and beside the distance
    shells |x - y|^2 = 2k, arbitrary floats, and b = inf."""
    n = draw(st.integers(min_value=1, max_value=1500))

    def bound():
        d2 = 2 * draw(st.integers(min_value=0, max_value=2 * n))
        return draw(
            st.sampled_from(
                [
                    d2,
                    float(d2),
                    Fraction(d2),
                    math.nextafter(d2, -math.inf),
                    math.nextafter(d2, math.inf),
                    Fraction(d2) - Fraction(1, 10**15),
                    Fraction(d2) + Fraction(1, 10**15),
                    Fraction(2 * d2 + 1, 2),
                    draw(st.floats(min_value=0, max_value=4 * n + 1)),
                ]
            )
        )

    a = bound()
    b = math.inf if draw(st.integers(0, 5)) == 0 else bound()
    assume(0 <= a < b)
    return n, a, b


@settings(max_examples=150, deadline=None)
@given(bands())
@example((5, 0, 2))
@example((5, 2, 4))
@example((5, 1.9999999999999998, math.inf))
@example((7, 0, math.inf))
@example((425, Fraction(2 * 425 - 1, 2), 4 * 425))
def test_pairs_in_band_matches_integer_gram(band):
    # every ordered pair with a < |x - y|^2 = 2(n - x.y) < b, compared
    # exactly (Python compares int with float and Fraction exactly)
    n, a, b = band
    hist = integer_gram_histogram(n) if lattice.enumerate_points(n).size else {}
    expect = sum(c for t, c in hist.items() if a < 2 * (n - t) < b)
    assert lattice.pairs_in_band(n, a, b) == expect


# ---------------------------------------------------------- near-pole points

def test_points_near_pole_pinned():
    assert lattice.points_near_pole(5, 0).tolist() == [[0, 0, 5]]
    got = lattice.points_near_pole(5, 1).tolist()
    # oracle: brute scan of E(25) with x3 >= 4
    expect = sorted(p for p in brute_enumerate(25) if p[2] >= 4)
    assert got == expect
    assert len(got) == 5  # pole plus (+-3, 0, 4) and (0, +-3, 4)


def test_points_near_pole_on_sphere():
    for m, h in ((5, 3), (12, 5), (30, 9)):
        pts = lattice.points_near_pole(m, h)
        assert (np.sum(pts * pts, axis=1) == m * m).all()
        expect = sorted(p for p in brute_enumerate(m * m) if p[2] >= m - h)
        assert pts.tolist() == expect


def test_points_near_pole_rejects_big_height():
    with pytest.raises(DomainError):
        lattice.points_near_pole(5, 10)


# ------------------------------------------------------------- serialization

def test_point_roundtrip():
    ls = lattice.enumerate_points(5)
    buf = io.StringIO()
    lattice.save_points(ls, buf)
    text = buf.getvalue()
    assert text.startswith("# n=5 N=24\n")
    back = lattice.load_points(io.StringIO(text))
    assert back.n == 5
    assert back.points.tolist() == ls.points.tolist()


def test_pair_table_csv():
    text = lattice.pair_table_csv(lattice.pair_table(1))
    assert text.splitlines()[0] == "t,count"
    assert "0,24" in text
