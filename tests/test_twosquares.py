import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threesq import primes
from threesq import twosquares as ts
from threesq.errors import DomainError


# ---------------------------------------------------------------- oracles

def brute_two_squares(n: int) -> bool:
    a = 0
    while a * a * 2 <= n:
        b = math.isqrt(n - a * a)
        if a * a + b * b == n:
            return True
        a += 1
    return False


# --------------------------------------------------------------- membership

def test_membership_pinned():
    assert ts.is_sum_two_squares(0)
    assert not ts.is_sum_two_squares(7)
    assert ts.is_sum_two_squares(9)  # ord_3 = 2
    assert ts.is_sum_two_squares(2)
    assert not ts.is_sum_two_squares(21)


def test_membership_matches_brute_search():
    for n in range(0, 5000):
        assert ts.is_sum_two_squares(n) == brute_two_squares(n), n


def test_membership_rejects_negative():
    with pytest.raises(DomainError):
        ts.is_sum_two_squares(-1)


# ------------------------------------------------------------------ windows

def test_window_nine():
    w = ts.window(9)
    assert w.members.tolist() == [9, 10, 13, 16, 17]
    assert w.max_gap == 3
    assert w.argmax_pair == (10, 13)


def test_window_degenerate():
    w = ts.window(1)
    assert w.members.tolist() == [1]
    assert w.max_gap == 0
    assert w.argmax_pair is None


def test_window_agrees_with_membership():
    for y in (9, 50, 1000, 12345):
        w = ts.window(y)
        got = set(w.members.tolist())
        for n in range(y, 2 * y):
            assert (n in got) == ts.is_sum_two_squares(n), (y, n)


def test_windows_tile_without_overlap():
    a = ts.window(100).members
    b = ts.window(200).members
    joined = np.concatenate([a, b])
    assert (np.diff(joined) > 0).all()
    assert joined.min() >= 100 and joined.max() < 400


def bad_primes_through(hi: int) -> list[int]:
    return [p for p in primes.primes_up_to(math.isqrt(hi - 1)).tolist() if p % 4 == 3]


def assert_segment_matches_membership(lo: int, hi: int) -> None:
    flags = ts._sieve_segment(lo, hi, bad_primes_through(hi))
    assert flags.dtype == bool and len(flags) == hi - lo
    for n, flag in zip(range(lo, hi), flags.tolist()):
        assert flag == ts.is_sum_two_squares(n), n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=1, max_value=5000))
def test_sieve_segment_matches_factorization(lo, length):
    assert_segment_matches_membership(lo, lo + length)


@pytest.mark.parametrize(
    "center",
    [3**k for k in range(1, 15)]
    + [7**k for k in range(1, 9)]
    + [121 * m for m in (1, 3, 7, 11, 19, 1003, 9973, 10007, 82_643)],
)
def test_sieve_segment_straddles_prime_powers(center):
    # windows across 3^k, 7^k and 11^2 m, where the parity of high
    # valuations and the large-prime residue decide membership
    assert_segment_matches_membership(max(1, center - 40), center + 41)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20_000), st.integers(min_value=0, max_value=60))
def test_window_independent_of_segment_size(y, half):
    expected = ts.window(y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ts, "_SEGMENT", 2 * half + 1)
        got = ts.window(y)
    assert np.array_equal(got.members, expected.members)
    assert got.max_gap == expected.max_gap
    assert got.argmax_pair == expected.argmax_pair


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20_000), st.integers(min_value=0, max_value=60))
def test_gap_scan_carries_across_segments(y, half):
    # largest gap of the whole member array, against the scan folding
    # segments of 2 * half + 1 integers (most of them empty at half = 0)
    members = ts.window(y).members
    gaps = np.diff(members)
    expected = int(gaps.max()) if gaps.size else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ts, "_SEGMENT", 2 * half + 1)
        (row,) = ts.gap_scan([y])
    assert row[:2] == (y, expected)


def test_gap_scan_keeps_no_member_array():
    import tracemalloc

    y = 1 << 20  # 214 197 members, 1.7 MB as int64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ts, "_SEGMENT", 1 << 14)
        tracemalloc.start()
        try:
            (row,) = ts.gap_scan([y])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert row[1] == ts.window(y).max_gap
    assert peak < 1 << 19


def test_gap_scan_rows():
    rows = ts.gap_scan([9, 1000])
    assert rows[0] == (9, 3, pytest.approx(3 / 9**0.25))
    y, g, ratio = rows[1]
    assert ratio == pytest.approx(g / 1000**0.25)


# ------------------------------------------------------------------- probes

def test_probe_small():
    res = ts.gap_probe(5, 1)
    assert res.best_x3 == 4  # 5 + 4 = 9 is a sum of two squares
    assert res.certified_distance == 1
    assert res.distance == 0  # 10 = 1 + 9
    assert res.pole_in_sequence


def test_probe_m_one():
    # the only probe point below the pole is (+-1, 0, 0): 1 + 0 = 1 qualifies
    res = ts.gap_probe(1, 1)
    assert res.best_x3 == 0
    assert res.certified_distance == 1
    assert res.distance == 0  # 2 = 1 + 1


def test_probe_soundness_identity():
    for m in (5, 13, 29, 101, 977):
        res = ts.gap_probe(m, min(2 * m - 1, 8))
        assert res.distance >= 0
        if res.best_x3 is not None:
            assert ts.is_sum_two_squares(m + res.best_x3)
            assert res.distance <= res.certified_distance
        # exact distance verified independently
        assert ts.is_sum_two_squares(2 * m - res.distance) or ts.is_sum_two_squares(
            2 * m + res.distance
        )
        for d in range(res.distance):
            assert not ts.is_sum_two_squares(2 * m - d)
            assert not ts.is_sum_two_squares(2 * m + d)


def test_probe_exhausted_reported_not_raised():
    # m = 2, height 1: near-pole shell 4 - x3^2 has no solution at x3 = 1
    res = ts.gap_probe(2, 1)
    assert res.best_x3 is None
    assert res.certified_distance is None
    assert res.distance == 0  # 4 = 4 + 0


# ------------------------------------------------------------- rough numbers

def test_rough_interval_check_windows():
    for y in (10_000, 100_000):
        ok, worst, need = ts.rough_interval_check(y)
        assert ok, (y, worst, need)
