import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threesq import primes
from threesq import twosquares as ts
from threesq.errors import BUDGETS, DomainError


# ---------------------------------------------------------------- oracles

def brute_two_squares(n: int) -> bool:
    a = 0
    while a * a * 2 <= n:
        b = math.isqrt(n - a * a)
        if a * a + b * b == n:
            return True
        a += 1
    return False


def parity_sieve_segment(lo: int, hi: int, bad_primes: list[int]) -> np.ndarray:
    """The former sieve: a parity array toggled on every p^k < hi, its odd
    entries OR-ed into the exclusions, then cleared; same 2-adic step."""
    size = hi - lo
    excluded = np.zeros(size, dtype=bool)
    parity = np.zeros(size, dtype=bool)
    for p in bad_primes:
        start = (-lo) % p
        pk = p
        while pk < hi:
            parity[(-lo) % pk :: pk] ^= True
            pk *= p
        excluded[start::p] |= parity[start::p]
        parity[start::p] = False
    two_a = 1
    while 3 * two_a < hi:
        excluded[(3 * two_a - lo) % (4 * two_a) :: 4 * two_a] = True
        two_a *= 2
    return ~excluded


def expected_gap(members: np.ndarray) -> tuple[int, tuple[int, int] | None]:
    """Largest gap of a whole member array and its first pair."""
    if members.size < 2:
        return 0, None
    k = int(np.argmax(np.diff(members)))
    return int(members[k + 1] - members[k]), (int(members[k]), int(members[k + 1]))


WHEEL = 16 * 9 * 49  # period of the sieve's pre-filled exclusions


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


def test_window_degenerate():
    w = ts.window(1)
    assert w.members.tolist() == [1]
    assert ts.gap_scan([1])[0][:2] == (1, 0)  # one member: no gap


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


def assert_segment_matches_parity_oracle(lo: int, hi: int) -> None:
    bad = bad_primes_through(hi)
    assert np.array_equal(ts._sieve_segment(lo, hi, bad), parity_sieve_segment(lo, hi, bad))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=1 << 16))
@example(1, 1)
@example(1, 1 << 16)
@example(3**18 - 40, 1 << 16)  # every k up to 18 for p = 3
# segments at the phases -1, 0 and 1 of the 7 056-periodic wheel, shorter
# than one period, of whole periods, and of periods with a ragged end
@example(WHEEL - 1, 100)
@example(WHEEL, WHEEL)
@example(WHEEL + 1, 3 * WHEEL + 5)
@example(143 * WHEEL - 1, 2 * WHEEL)
@example(143 * WHEEL, 100)
@example(143 * WHEEL + 1, WHEEL - 1)
@example(5, 20)  # starts below the 2-adic period 16
@example(1, 8)  # hi = 9: 3 is not yet a bad prime
@example(10, 39)  # hi = 49: nor is 7
def test_sieve_segment_matches_parity_oracle(lo, length):
    assert_segment_matches_parity_oracle(lo, lo + length)


def test_small_segments_match_brute_search():
    # every [lo, hi) with hi <= 64: shorter than the wheel's 2-adic period,
    # starting below 16, and ending where 3 (hi <= 9) or 7 (hi <= 49) is
    # not yet a bad prime, while the wheel already holds ord_p(n) = 1
    member = [brute_two_squares(n) for n in range(64)]
    for hi in range(2, 65):
        for lo in range(1, hi):
            flags = ts._sieve_segment(lo, hi, bad_primes_through(hi))
            assert flags.tolist() == member[lo:hi], (lo, hi)


@pytest.mark.parametrize("p", [3, 7, 11, 1999])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("length", [1, 50, 4000])
def test_sieve_segment_ends_at_prime_squares(p, offset, length):
    # hi - 1 = p^2 - 1, p^2, p^2 + 1: p leaves or joins the bad primes, and
    # the segment's last level has no multiple of p^(k+1) left to restore
    hi = p * p + offset + 1
    assert_segment_matches_parity_oracle(max(1, hi - length), hi)


@pytest.mark.parametrize(
    "pk", [3**k for k in range(1, 19)] + [7**k for k in range(1, 11)]
)
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_sieve_segment_across_prime_powers(pk, edge):
    # segments that start or end at p^k - 1, p^k and p^k + 1
    for lo, hi in ((pk + edge, pk + edge + 300), (max(1, pk + edge - 300), pk + edge + 1)):
        assert_segment_matches_parity_oracle(lo, hi)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20_000), st.integers(min_value=0, max_value=60))
def test_window_independent_of_segment_size(y, half):
    expected = ts.window(y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ts, "_SEGMENT", 2 * half + 1)
        got = ts.window(y)
    assert np.array_equal(got.members, expected.members)


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


@pytest.mark.parametrize("fold", [1, 7, 64, 8 * 16 + 3, 1 << 16, ts._FOLD])
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=20_000), st.integers(min_value=0, max_value=60))
def test_gap_fold_independent_of_slice_length(fold, y, half):
    # members and gaps against the whole-array diff, with fold slices of
    # 1 and 7 flags (shorter than a word: member by member, many empty,
    # gaps across every slice edge), 64 (eight words), 131 (words and a
    # 3-flag tail, word edges off the slice's alignment), 2^16 or the
    # default, in segments of 2 * half + 1 integers or the default
    members = np.array(
        [n for n in range(y, 2 * y) if ts.is_sum_two_squares(n)], dtype=np.int64
    )
    gap, _ = expected_gap(members)
    for segment in (2 * half + 1, ts._SEGMENT):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ts, "_FOLD", fold)
            mp.setattr(ts, "_SEGMENT", segment)
            w = ts.window(y)
            (row,) = ts.gap_scan([y])
        assert np.array_equal(w.members, members)
        assert row[:2] == (y, gap)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=200_000, max_value=3_000_000))
def test_word_fold_matches_member_array(y):
    # at these Y the slices' largest gaps span several 8-flag words, so the
    # word path runs; segments of the default length and of an odd one
    # (3 * 2^16 + 5: word edges off the segment's alignment, ragged slices)
    expected = None
    for segment in (ts._SEGMENT, 3 * (1 << 16) + 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ts, "_SEGMENT", segment)
            w = ts.window(y)
            (row,) = ts.gap_scan([y])
        gap, _ = expected_gap(w.members)
        assert row[:2] == (y, gap)
        if expected is None:
            expected = w.members
        assert np.array_equal(w.members, expected)


def fold_slice_of(n: int, y: int) -> int:
    return (n - y) // ts._FOLD


# largest gaps found by a brute-force search over Y on the member-by-member
# fold, placed against the default fold slices and segments
@pytest.mark.parametrize(
    "y, gap, pair, edge",
    [
        (464_689, 35, (685_541, 685_576), "span"),
        (707_049, 35, (804_205, 804_240), "span"),
        (554_470, 35, (685_541, 685_576), "slice"),
        (554_504, 35, (685_541, 685_576), "slice"),
        (3_491_154, 49, (5_588_305, 5_588_354), "segment"),
        (3_491_202, 49, (5_588_305, 5_588_354), "segment"),
    ],
)
def test_largest_gap_pinned_at_word_slice_and_segment_edges(y, gap, pair, edge):
    a, b = pair
    w = ts.window(y)
    assert expected_gap(w.members) == (gap, pair)
    assert ts.gap_scan([y])[0][:2] == (y, gap)
    if edge == "span":
        # the gap spans d_max - 1 words of its slice, whose widest span
        # between consecutive nonempty words is d_max
        start = y + fold_slice_of(a, y) * ts._FOLD
        assert fold_slice_of(b, y) == fold_slice_of(a, y)
        m = w.members[(w.members >= start) & (w.members < start + ts._FOLD)] - start
        words = np.unique(m // 8)
        assert (b - start) // 8 - (a - start) // 8 == np.diff(words).max() - 1
    elif edge == "slice":
        # a fold slice ends just after the left member, or starts at the right one
        assert fold_slice_of(b, y) == fold_slice_of(a, y) + 1
        assert (a - y) % ts._FOLD == ts._FOLD - 1 or (b - y) % ts._FOLD == 0
    else:
        # likewise a segment of the sieve
        assert (b - y) // ts._SEGMENT == (a - y) // ts._SEGMENT + 1
        assert (a - y) % ts._SEGMENT == ts._SEGMENT - 1 or (b - y) % ts._SEGMENT == 0


@pytest.mark.parametrize("ys", [[10**12, -(10**12)], [-1, 5]])
def test_gap_scan_refuses_nonpositive_y_before_the_budget(monkeypatch, ys):
    # a negative Y must not offset a large one in the budget's sum
    def forbidden(*args):
        raise AssertionError("sieved a list with a nonpositive Y")

    monkeypatch.setattr(ts, "_sieve_segment", forbidden)
    with pytest.raises(DomainError, match="Y must be positive"):
        ts.gap_scan(ys)


def test_gap_scan_refuses_over_budget_before_sieving(monkeypatch):
    def forbidden(*args):
        raise AssertionError("sieved before the budget check")

    monkeypatch.setattr(ts, "_sieve_segment", forbidden)
    with pytest.raises(DomainError, match="budget"):
        ts.gap_scan([10**13])
    with pytest.raises(DomainError, match="budget"):  # each Y fits, their sum does not
        ts.gap_scan([BUDGETS["gap_scan"].limit // 2 + 1] * 2)
    # the acceptance scan and the README example stay inside
    assert sum(10**k for k in range(3, 9)) <= BUDGETS["gap_scan"].limit


def test_window_refuses_members_over_byte_cap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("sieved before the byte check")

    monkeypatch.setattr(ts, "_sieve_segment", forbidden)
    with pytest.raises(DomainError, match="bytes"):
        ts.window(BUDGETS["window_bytes"].limit // 8 + 1)


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
    assert row[1] == expected_gap(ts.window(y).members)[0]
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
