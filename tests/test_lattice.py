import argparse
import collections
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threesq import lattice
from threesq.cli import _cmd_enumerate, main
from threesq.errors import BUDGETS, DomainError


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


def scalar_enumerate(n):
    """Canonical triples x1 <= x2 <= x3 by a scalar isqrt loop, expanded
    by itertools signed permutations and a sort of tuples."""
    pts = []
    for x1 in range(math.isqrt(n // 3) + 1):
        for x2 in range(x1, math.isqrt((n - x1 * x1) // 2) + 1):
            rem = n - x1 * x1 - x2 * x2
            x3 = math.isqrt(rem)
            if x3 * x3 != rem:
                continue
            for perm in set(itertools.permutations((x1, x2, x3))):
                pts.extend(itertools.product(*[(v, -v) if v else (0,) for v in perm]))
    return sorted(pts)


def scalar_near_pole(m, height):
    """Near-pole points by a scalar isqrt loop over every a and a set of
    the eight planar images of each solution."""
    pts = []
    for x3 in range(m, m - height - 1, -1):
        r = m * m - x3 * x3
        planar = set()
        for a in range(math.isqrt(r) + 1):
            b = math.isqrt(r - a * a)
            if b * b == r - a * a:
                planar.update({(a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a), (-b, -a)})
        pts.extend((u, v, x3) for u, v in planar)
    return sorted(pts)


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


def test_enumerate_empty_iff_4a_8b7():
    for n in range(1, 600):
        empty = lattice.enumerate_points(n).size == 0
        assert empty == (not lattice.three_squares_representable(n)), n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
@example(7)  # empty shells
@example(28)
@example(1)  # zero coordinates
@example(2)
@example(3)  # equal coordinates
@example(25)
def test_enumerate_matches_scalar_oracle(n):
    ls = lattice.enumerate_points(n)
    expect = scalar_enumerate(n)
    assert ls.points.dtype == np.int64 and ls.points.shape == (len(expect), 3)
    assert list(map(tuple, ls.points.tolist())) == expect


def test_long_rows_are_solved_in_chunks(monkeypatch):
    monkeypatch.setattr(lattice, "_CANDIDATES", 3)
    for n in (1, 3, 25, 425, 10_001, 100_057):
        got = lattice.enumerate_points.__wrapped__(n).points.tolist()
        assert list(map(tuple, got)) == scalar_enumerate(n), n
    assert list(map(tuple, lattice.points_near_pole(1000, 40).tolist())) == scalar_near_pole(1000, 40)


def test_near_pole_scan_keeps_no_empty_chunk(monkeypatch):
    # most chunks of a near-pole scan hold no solution; none may be kept
    # past the next call, or a long scan holds one pair of arrays per chunk
    empties, alive = [], []
    solve = lattice._two_squares

    def tracked(r, lo, hi):
        alive.append(sum(ref() is not None for ref in empties))
        a, b = solve(r, lo, hi)
        if len(a) == 0:
            empties.extend((weakref.ref(a), weakref.ref(b)))
        return a, b

    monkeypatch.setattr(lattice, "_CANDIDATES", 4)
    monkeypatch.setattr(lattice, "_two_squares", tracked)
    got = lattice.points_near_pole(1000, 40)
    assert list(map(tuple, got.tolist())) == scalar_near_pole(1000, 40)
    assert len(empties) > 200
    assert max(alive) <= 2  # the pair still bound in the loop, from the chunk before


@st.composite
def two_square_sums(draw):
    """(a, b) with a <= b and a^2 + b^2 <= 2^62, the range of near-pole scans."""
    b = draw(st.integers(min_value=0, max_value=1 << 31))
    return draw(st.integers(min_value=0, max_value=min(b, math.isqrt((1 << 62) - b * b)))), b


@settings(max_examples=100, deadline=None)
@given(two_square_sums())
@example((0, 1 << 31))
@example((1 << 30, 1 << 30))
@example((0, 0))
def test_two_squares_exact_up_to_2_62(ab):
    # the window of a around a known solution, against a scalar isqrt loop
    a, b = ab
    r = a * a + b * b
    lo, hi = max(0, a - 3), min(a + 4, math.isqrt(r // 2) + 1)
    got = list(zip(*(v.tolist() for v in lattice._two_squares(r, lo, hi))))
    expect = [(u, math.isqrt(r - u * u)) for u in range(lo, hi) if math.isqrt(r - u * u) ** 2 == r - u * u]
    assert (a, b) in got and got == expect


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
        reps = P[orb.first]
        images = [lattice._images(rep[None]) for rep in reps]
        # each size is its rep's orbit, and the orbits tile the shell
        assert orb.size.tolist() == [len(img) for img in images]
        union = np.concatenate(images)
        assert np.array_equal(union[np.lexsort(union.T[::-1])], P)
        keys = {tuple(k) for k in np.sort(np.abs(reps), axis=1).tolist()}
        assert len(keys) == len(reps)
        # each point's orbit index names the orbit that holds it
        assert orb.index.shape == (len(P),)
        assert orb.index[orb.first].tolist() == list(range(len(reps)))
        assert np.bincount(orb.index, minlength=len(reps)).tolist() == orb.size.tolist()
        for k, img in enumerate(images):
            mine = P[orb.index == k]
            assert np.array_equal(mine[np.lexsort(mine.T[::-1])], img)
        sizes.update(orb.size.tolist())
    assert sizes == {6, 8, 12, 24, 48}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-5, 5)] * 3), min_size=1, max_size=40),
    st.sampled_from([np.int64, np.float64]),
    st.floats(-1.0, 1.0),
)
def test_fold_is_the_sorted_absolute_values(rows, dtype, scale):
    # small coordinates give ties, zeros and (scaled by a negative float)
    # negative zeros; the min/max network sorts each row like np.sort
    P = np.array(rows, dtype=dtype)
    if dtype == np.float64:
        P = P * scale
    F = lattice.fold(P)
    assert F.dtype == P.dtype
    assert F.tobytes() == np.sort(np.abs(P), axis=1).tobytes()
    assert (F >= 0).all() and (np.diff(F, axis=1) >= 0).all()


def test_pair_table_empty_flagged():
    tbl = lattice.pair_table(7)
    assert tbl.empty


def test_pair_table_refuses_over_gram_budget(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Gram products before the budget check")

    gram = BUDGETS["gram_products"]
    budget = gram.limit
    # n = 101 has N = 168: 168^2 // 48 = 588 predicted products
    monkeypatch.setattr(lattice, "orbit_gram_rows", forbidden)
    monkeypatch.setitem(BUDGETS, "gram_products", gram._replace(limit=587))
    with pytest.raises(DomainError, match="budget"):
        lattice.pair_table.__wrapped__(101)
    monkeypatch.setitem(BUDGETS, "gram_products", gram._replace(limit=588))
    with pytest.raises(AssertionError, match="before the budget"):
        lattice.pair_table.__wrapped__(101)
    # the refusal reaches the command line as exit code 2
    monkeypatch.setitem(BUDGETS, "gram_products", gram._replace(limit=0))
    lattice.pair_table.cache_clear()
    assert main(["pairs", "--n", "101"]) == 2
    # the stretch shells: n = 1e8+3 (N = 40 848) is admitted, 1e9+3 (N = 88 320) refused
    assert 40_848**2 // 48 <= budget < 88_320**2 // 48


def test_pair_count_pinned():
    assert lattice.pair_count(1, 0) == 24  # each axis point has 4 orthogonal mates
    assert lattice.pair_count(5, 5) == 24  # diagonal pairs
    assert lattice.pair_count(5, 4) == 72
    assert lattice.pair_count(5, 0) == 48
    assert lattice.pair_count(4, 0) == 24
    assert lattice.pair_count(5, 3) == 24 and lattice.pair_count(4, 2) == 0  # gap
    assert lattice.pair_count(7, 0) == 0  # empty shell


# ------------------------------------------------------------------ caches

CACHES = (lattice.enumerate_points, lattice.pair_table)


@pytest.fixture
def small_caches(monkeypatch):
    """Both caches emptied and bounded to a few KB."""
    monkeypatch.setattr(lattice, "_POINTS_BYTES", 4096)
    monkeypatch.setattr(lattice, "_TABLE_BYTES", 2048)
    for cache in CACHES:
        cache.cache_clear()


def test_verify_arith_reruns_from_the_cache(capsys):
    def run(n_max):
        assert main(["verify-arith", "--n-max", str(n_max)]) == 0
        return capsys.readouterr().out

    first = run(65)
    misses = lattice.pair_table.cache_info().misses
    second = run(50)
    assert lattice.pair_table.cache_info().misses == misses  # every table kept
    for expect, n_max in ((first, 65), (second, 50)):
        for cache in CACHES:
            cache.cache_clear()
        assert run(n_max) == expect


def test_cache_holds_its_bound_plus_the_newest_entry(small_caches):
    # the points cache counts each shell's points and its orbit record, and
    # evicts by their total, oldest first: a model of the held shells, each
    # counted from its arrays, holds exactly the bytes the cache reports
    held = collections.OrderedDict()
    for n in range(1, 400):
        for cache, bound in ((lattice.enumerate_points, 4096), (lattice.pair_table, 2048)):
            newest = cache(n)
            info = cache.cache_info()
            assert info.maxbytes == bound
            assert info.currbytes <= max(bound, newest.nbytes), (n, info)
        ls = lattice.enumerate_points(n)
        orb = ls.orbits
        held[n] = ls.points.nbytes + orb.order.nbytes + orb.first.nbytes + orb.size.nbytes + orb.index.nbytes
        while sum(held.values()) > 4096 and len(held) > 1:
            held.popitem(last=False)
        assert lattice.enumerate_points.cache_info().currbytes == sum(held.values()), n
    misses = lattice.enumerate_points.cache_info().misses
    for n in held:
        lattice.enumerate_points(n)
    assert lattice.enumerate_points.cache_info().misses == misses  # the model's shells are the held ones
    # n = 101 has 168 points (4032 bytes) in 4 orbits, a record of 2752
    # bytes (the z order and the orbit index, 168 int64 each, and the
    # first row and size of each orbit), and 117 distinct t (1872 bytes)
    assert lattice.enumerate_points(101).nbytes == 6784 and lattice.pair_table(101).nbytes == 1872


def test_cache_hit_refreshes_its_entry(small_caches, monkeypatch):
    # the shells 5, 6 and 10 each have 24 points in one orbit (576 bytes,
    # and 400 of orbit record); two fit
    monkeypatch.setattr(lattice, "_POINTS_BYTES", 2 * 976)
    cache = lattice.enumerate_points
    for n in (5, 6, 5, 10):  # the hit on 5 leaves 6 the oldest, so 10 evicts 6
        cache(n)
    assert cache.cache_info()[:2] == (1, 3)
    cache(5)
    cache(10)
    assert cache.cache_info()[:2] == (3, 3)
    cache(6)
    assert cache.cache_info()[:2] == (3, 4)


def test_cache_keeps_an_entry_over_the_bound_until_the_next_insert(small_caches, monkeypatch):
    monkeypatch.setattr(lattice, "_POINTS_BYTES", 1024)
    cache = lattice.enumerate_points
    big = cache(101)
    assert big.nbytes > 1024 and cache(101) is big
    assert cache.cache_info() == (1, 1, 1024, big.nbytes)
    small = cache(5)
    assert cache.cache_info() == (1, 2, 1024, small.nbytes)  # 101 went
    assert cache(101) is not big
    assert cache.cache_info()[:2] == (1, 3)


def test_cache_keeps_no_refused_call(small_caches, monkeypatch):
    lattice.enumerate_points(5)
    before = lattice.enumerate_points.cache_info()
    for _ in range(2):
        with pytest.raises(DomainError):
            lattice.enumerate_points(0)
    info = lattice.enumerate_points.cache_info()
    assert (info.hits, info.misses, info.currbytes) == (before.hits, before.misses + 2, before.currbytes)
    # a table refused by its budget is built once the budget admits it
    gram = BUDGETS["gram_products"]
    monkeypatch.setitem(BUDGETS, "gram_products", gram._replace(limit=0))
    with pytest.raises(DomainError, match="budget"):
        lattice.pair_table(101)
    assert lattice.pair_table.cache_info()[:2] == (0, 1) and lattice.pair_table.cache_info().currbytes == 0
    monkeypatch.setitem(BUDGETS, "gram_products", gram)
    assert lattice.pair_table(101).total == 168**2
    assert lattice.pair_table.cache_info()[:2] == (0, 2)


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


@st.composite
def pole_caps(draw):
    m = draw(st.integers(min_value=1, max_value=100_000))
    return m, draw(st.integers(min_value=0, max_value=min(2 * m, 30) - 1))


@settings(max_examples=60, deadline=None)
@given(pole_caps())
@example((1, 0))
@example((1, 1))
@example((2, 3))
@example((5, 0))
@example((5, 9))
def test_points_near_pole_matches_scalar_oracle(cap):
    m, h = cap
    pts = lattice.points_near_pole(m, h)
    assert pts.dtype == np.int64
    assert list(map(tuple, pts.tolist())) == scalar_near_pole(m, h)


def test_points_near_pole_at_the_int64_limit():
    m = 1 << 31
    assert list(map(tuple, lattice.points_near_pole(m, 2).tolist())) == scalar_near_pole(m, 2)


def test_points_near_pole_refuses_past_2_31_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="2\\^31"):
            lattice.points_near_pole((1 << 31) + 1, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@settings(max_examples=60, deadline=None)
@given(pole_caps())
@example((1, 1))
@example((100_000, 29))
def test_pole_candidate_bound_covers_the_scan(cap):
    # the values of a that _solve_rows tests, row by row
    m, h = cap
    tested = sum(math.isqrt((m * m - x3 * x3) // 2) + 1 for x3 in range(m - h, m + 1))
    assert tested <= lattice._pole_candidates(m, h)


def test_points_near_pole_refuses_over_candidate_budget(monkeypatch):
    def forbidden(*args):
        raise AssertionError("scanned before the budget check")

    monkeypatch.setattr(lattice, "_solve_rows", forbidden)
    with pytest.raises(DomainError, match="budget"):
        lattice.points_near_pole(10**5, 2 * 10**5 - 1)
    # the benchmark's probes (m up to 459 600, height 14) sit far inside
    assert lattice._pole_candidates(459_600, 14) < BUDGETS["pole_candidates"].limit // 10**4


# ------------------------------------------------------------- serialization

def enumerate_text(n: int) -> str:
    """What `threesq enumerate --n <n>` writes."""
    return _cmd_enumerate(argparse.Namespace(n=n))


def read_points(text: str) -> np.ndarray:
    """The 'x1 x2 x3' rows below the header line of the point-set text format."""
    return np.array(text.split("\n", 1)[1].split(), dtype=np.int64).reshape(-1, 3)


def test_point_roundtrip():
    ls = lattice.enumerate_points(5)
    text = enumerate_text(5)
    assert text.startswith("# n=5 N=24\n")
    assert read_points(text).tolist() == ls.points.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=100_000))
@example(7)  # 8m + 7: an empty shell
@example(28)  # 4(8m + 7): empty too
@example(1)
@example(100_000)
def test_point_roundtrip_random_shells(n):
    ls = lattice.enumerate_points(n)
    text = enumerate_text(n)
    assert text.splitlines()[0] == f"# n={n} N={ls.size}"
    back = read_points(text)
    assert back.shape == (ls.size, 3)
    assert back.tolist() == ls.points.tolist()


def test_pair_table_csv(capsys):
    # the pair table is written as CSV by the `pairs` command alone;
    # the octahedron has 24 ordered pairs at right angles
    assert main(["pairs", "--n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "t,count"
    assert "0,24" in lines[2:]

