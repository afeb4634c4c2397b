import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import threesq
from threesq import arith, lattice
from threesq.errors import BUDGETS, DomainError


# ---------------------------------------------------------------- oracles

def kronecker(d: int, m: int) -> int:
    """Kronecker symbol (d|m) on Python ints, defined for all integer pairs."""
    a, n = d, m
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def ord_p(m: int, p: int) -> int:
    """Largest k with p^k | m, for nonzero m."""
    assert m != 0
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def brute_legendre(a: int, p: int) -> int:
    """Quadratic residue test by enumerating all squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


@dataclass(frozen=True)
class LocalDiagonalization:
    """Diagonal form eps1*p^a1*u^2 + eps2*p^a2*v^2 of the pair-count form.

    a1 = ord_p(gcd(n, t)), a1 + a2 = ord_p(n^2 - t^2), a1 <= a2; the unit
    parts are recorded by their residues mod p.
    """

    a1: int
    a2: int
    eps1_residue: int
    eps2_residue: int


def diagonalize_pair_form(n: int, t: int, p: int) -> LocalDiagonalization:
    """Diagonalize n*u^2 + 2t*u*v + n*v^2 over the p-adic integers, p odd.

    When ord_p(n) <= ord_p(t), complete the square: diagonal entries n
    and (n^2 - t^2)/n.  Otherwise substitute u = U+V, v = U-V: diagonal
    entries 2(n + t) and 2(n - t), whose valuations both equal ord_p(t).

    Everything is read off A = ord_p(n - t) and B = ord_p(n + t).  Since
    n and t are half the sum and half the difference of n + t and n - t,
    min(ord_p n, ord_p t) = min(A, B), so a1 = min(A, B), a2 = max(A, B),
    and ord_p(n) exceeds a1 exactly when p divides n / p^a1.
    """
    a_minus, a_plus = ord_p(n - t, p), ord_p(n + t, p)
    a1 = min(a_minus, a_plus)
    u_minus = (n - t) // p**a_minus % p
    u_plus = (n + t) // p**a_plus % p
    u_n = n // p**a1 % p
    if u_n:
        e1, e2 = u_n, u_minus * u_plus * pow(u_n, -1, p) % p
    else:
        e1, e2 = 2 * u_plus % p, 2 * u_minus % p
    return LocalDiagonalization(a1, max(a_minus, a_plus), e1, e2)


def fraction_local_density(n: int, t: int, p: int) -> Fraction:
    """The density's rational closed forms, evaluated in Fractions.

    Independent of the integer sums in arith.local_density; the quadratic
    characters come from the Kronecker symbol, not the Euler criterion.
    """
    if (n * n - t * t) % p != 0:
        return Fraction(1)
    diag = diagonalize_pair_form(n, t, p)
    a1, a2, e1, e2 = diag.a1, diag.a2, diag.eps1_residue, diag.eps2_residue
    one, pf = Fraction(1), Fraction(p)
    if a1 % 2 == 1:
        s = kronecker(-e1 * e2 if a2 % 2 == 1 else -e2, p)
        return pf ** ((a1 - 1) // 2) * (one - pf ** (-((a1 + 1) // 2))) / (one - one / pf) * (1 + s)
    s = kronecker(-e1, p)
    geo = sum(Fraction(s) ** k for k in range(a2 - a1 + 1))
    head = pf ** ((a1 - 2) // 2) * (one - pf ** (-(a1 // 2))) / (one - one / pf)
    if a2 % 2 == 1:
        return head * (1 + s) + pf ** (a1 // 2) * geo
    return 2 * head + pf ** (a1 // 2) * geo


def scalar_local_density(n: int, t: int, p: int) -> int:
    """The local density one prime at a time, in Python ints.

    Diagonalizes from the valuations of n, t and n^2 - t^2 (completing the
    square when ord_p(n) <= ord_p(t), else u = U+V, v = U-V) and sums the
    density's integer series; the characters come from the Kronecker
    symbol, not the Euler criterion.
    """
    disc = n * n - t * t
    if disc % p != 0:
        return 1
    a_total = ord_p(disc, p)
    v_n = ord_p(n, p)
    v_t = None if t == 0 else ord_p(t, p)
    if v_t is None or v_n <= v_t:
        a1 = v_n
        e1 = (n // p**v_n) % p
        e2 = (disc // p**a_total) % p * pow(e1, p - 2, p) % p
    else:
        a1 = v_t
        e1 = (n + t) // p ** ord_p(n + t, p) * 2 % p
        e2 = (n - t) // p ** ord_p(n - t, p) * 2 % p
    a2 = a_total - a1
    assert a1 <= a2

    def geometric(k):
        return sum(p**j for j in range(k))

    if a1 % 2 == 1:
        s = kronecker(-e1 * e2 if a2 % 2 == 1 else -e2, p)
        return geometric((a1 + 1) // 2) * (1 + s)
    s = kronecker(-e1, p)
    geo = sum(s**k for k in range(a2 - a1 + 1))
    return geometric(a1 // 2) * (1 + s if a2 % 2 == 1 else 2) + p ** (a1 // 2) * geo


def scalar_pair_formula(n: int, t: int) -> int:
    """24 times scalar_local_density over the odd primes of n^2 - t^2."""
    primes = {p for m in (n - t, n + t) for p, _ in arith.factorize(m) if p != 2}
    return 24 * math.prod(scalar_local_density(n, t, p) for p in primes)


def squarefull_gcd_part(n: int, t: int) -> int:
    """Product of p^ord_p(gcd(n,t)) over primes with ord_p(gcd(n,t)) >= 2."""
    g = math.gcd(n, t)
    out = 1
    for p, k in arith.factorize(g) if g > 1 else ():
        if k >= 2:
            out *= p**k
    return out


@st.composite
def density_triples(draw):
    """(n, t, p): n random or rich in odd prime powers, t often a multiple
    of a power of a prime dividing n, p an odd prime of n^2 - t^2 or not."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=10**7))
    else:
        n = (
            3 ** draw(st.integers(0, 8))
            * 5 ** draw(st.integers(0, 5))
            * 7 ** draw(st.integers(0, 4))
            * 11 ** draw(st.integers(0, 3))
            * draw(st.integers(1, 40))
        )
        assume(n >= 2)
    t = draw(st.integers(min_value=-(n - 1), max_value=n - 1))
    odd_n = [p for p, _ in arith.factorize(n) if p != 2]
    if odd_n and draw(st.booleans()):
        q = draw(st.sampled_from(odd_n)) ** draw(st.integers(1, 4))
        t = (1 if t >= 0 else -1) * (abs(t) // q * q)
    odd_disc = [p for p, _ in arith.factorize(n * n - t * t) if p != 2]
    p = draw(st.sampled_from(odd_disc + [3, 5, 7, 13]))
    return n, t, p


def class_number_l_value(n: int) -> float:
    """2*pi*h / (w*sqrt(q)): the class-number expression for L(1, chi)."""
    d = arith.discriminant(n)
    w = 6 if d == -3 else 4 if d == -4 else 2
    return 2.0 * math.pi * arith.class_number(d) / (w * math.sqrt(-d))


def brute_pair_count(n: int, t: int) -> int:
    """Direct double loop over all integer solutions, no numpy."""
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
    return sum(
        1
        for a in pts
        for b in pts
        if a[0] * b[0] + a[1] * b[1] + a[2] * b[2] == t
    )


# ------------------------------------------------------------ factorization

def test_factorize_unit():
    assert arith.factorize(1) == ()


def test_factorize_small():
    assert arith.factorize(12) == ((2, 2), (3, 1))
    assert arith.factorize(97) == ((97, 1),)


def test_factorize_roundtrip_large():
    n = 2**40 + 1
    f = arith.factorize(n)
    prod = 1
    for p, k in f:
        assert arith.is_prime(p)
        # independent primality check: trial division to the root
        assert all(p % q for q in range(2, min(p, 10**6)) if q * q <= p)
        prod *= p**k
    assert prod == n


def brute_factors(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
@example(65_537)
@example(9_973**2)
@example(10_007**2)
@example(2 * 10_007 * 10_009)
def test_factorize_matches_trial_division(n):
    assert arith.factorize(n) == brute_factors(n)


def sieve(limit: int) -> list[int]:
    """The primes below limit, by Eratosthenes."""
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


PRIMES_BELOW_2_20 = sieve(1 << 20)


@st.composite
def known_factorizations(draw):
    """(n, factors) with n <= 2^40 built from drawn primes below 2^20 and
    exponents, so the factors are known without factoring anything."""
    fac: dict[int, int] = {}
    n = 1
    for _ in range(draw(st.integers(0, 6))):
        p = draw(st.sampled_from(PRIMES_BELOW_2_20))
        k = draw(st.integers(1, 5))
        if n * p**k <= 1 << 40:
            n *= p**k
            fac[p] = fac.get(p, 0) + k
    return n, tuple(sorted(fac.items()))


@settings(max_examples=150, deadline=None)
@given(known_factorizations(), st.integers(min_value=1, max_value=1 << 40))
@example((1, ()), 1)
@example((2**40, ((2, 40),)), 9_973)
@example((1_048_573, ((1_048_573, 1),)), 10_007**2)
@example((3**25, ((3, 25),)), 1_048_573**2)
@example((9_973**3, ((9_973, 3),)), (1 << 40) - 87)
def test_factorize_reads_no_prime_table(built, n):
    # the route depends on n alone: no smallest-prime-factor table is read,
    # however far earlier calls grew it
    def forbidden(*args):
        raise AssertionError("factorize read the prime table")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith._primes, "spf_table", forbidden)
        mp.setattr(arith._primes, "spf_limit", forbidden)
        assert arith.factorize(built[0]) == built[1]
        got = arith.factorize(n)
    assert [p for p, _ in got] == sorted({p for p, _ in got})
    assert all(arith.is_prime(p) and k >= 1 for p, k in got)
    assert math.prod(p**k for p, k in got) == n


def test_factorize_zero_rejected():
    with pytest.raises(DomainError):
        arith.factorize(0)


def test_is_prime_matches_trial_division():
    for n in range(2, 2000):
        assert arith.is_prime(n) == all(n % d for d in range(2, math.isqrt(n) + 1))


def test_squarefree_and_squarefull():
    assert arith.is_squarefree(30)
    assert not arith.is_squarefree(12)
    assert arith.is_squarefull(1)
    assert arith.is_squarefull(72 * 2)  # 144 = 2^4 3^2
    assert not arith.is_squarefull(12)


# ----------------------------------------------------------------- symbols

def test_kronecker_examples():
    assert kronecker(-20, 3) == 1
    assert kronecker(-4, 2) == 0
    # -20 = 1 mod 7 is a square mod 7; the residue oracle settles the sign
    assert brute_legendre(-20, 7) == 1
    assert kronecker(-20, 7) == 1
    # (a|-1) is the sign of a
    assert kronecker(-3, -1) == -1
    assert kronecker(3, -1) == 1


def test_kronecker_matches_legendre_at_odd_primes():
    for p in (3, 5, 7, 11, 13, 31, 97):
        for d in range(-50, 51):
            if d % p:
                assert kronecker(d, p) == brute_legendre(d, p), (d, p)


NONZERO = st.integers(min_value=-10**6, max_value=10**6).filter(bool)


@settings(max_examples=500, deadline=None)
@given(NONZERO, NONZERO, NONZERO)
@example(-163, 38, 39)
@example(-4, 2, 2)
@example(5, -1, -2)
def test_kronecker_multiplicative_in_bottom(d, m1, m2):
    assert kronecker(d, m1 * m2) == kronecker(d, m1) * kronecker(d, m2)


@settings(max_examples=500, deadline=None)
@given(NONZERO, NONZERO, st.integers(min_value=0, max_value=5 * 10**5))
@example(-4, -5, 0)
@example(-20, 3, 1)
def test_kronecker_multiplicative_in_top(d1, d2, half):
    m = 2 * half + 1  # odd m > 0: the Jacobi symbol, multiplicative on top
    assert kronecker(d1 * d2, m) == kronecker(d1, m) * kronecker(d2, m)


INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
ODD_MODULI = st.integers(min_value=0, max_value=(1 << 60) - 1).map(lambda h: 2 * h + 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(INT64, ODD_MODULI), min_size=1, max_size=40))
@example([(-(1 << 63), (1 << 61) - 1), ((1 << 63) - 1, 3), (-1, 1), (0, 9), (6, 9)])
def test_jacobi_matches_kronecker_on_int64(pairs):
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    m = np.array([y for _, y in pairs], dtype=np.int64)
    assert arith._jacobi(a, m).tolist() == [kronecker(x, y) for x, y in pairs]


SMALL_ODD_PRIMES = [p for p in range(3, 10_000) if arith.is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_ODD_PRIMES), st.lists(INT64, min_size=1, max_size=20))
def test_jacobi_matches_residue_oracle_below_ten_thousand(p, tops):
    got = arith._jacobi(np.array(tops, dtype=np.int64), p).tolist()
    assert got == [brute_legendre(a, p) for a in tops]


def test_jacobi_pinned_cases():
    a = np.array([0, 1, -1, 12345, -(1 << 63)], dtype=np.int64)
    assert arith._jacobi(a, 1).tolist() == [1] * 5  # (a | 1) = 1
    assert arith._jacobi(np.array([0, 15, -30, 45]), 15).tolist() == [0] * 4  # a = 0 (mod m) or gcd > 1
    assert arith._jacobi(2, np.array([3, 5, 7, 9, 17])).tolist() == [-1, -1, 1, 1, 1]
    # past 2^31 the int64 square of a residue overflows, so Euler's
    # criterion in int64 fails there; the symbol must not
    past = [p for p in range((1 << 31) + 1, (1 << 31) + 200, 2) if arith.is_prime(p)]
    assert past[0] == 2147483659
    tops = [2, -1, 3, (1 << 31) - 1, (1 << 62) + 7, -(10**18 + 9)]
    for p in past:
        euler = [1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in tops]
        assert arith._jacobi(np.array(tops), p).tolist() == euler, p
    # broadcast: shells by moduli
    grid = arith._jacobi(np.array([[-5], [-7]]), np.array([3, 11, 13]))
    assert grid.tolist() == [[kronecker(d, q) for q in (3, 11, 13)] for d in (-5, -7)]


# ------------------------------------------------------------ class numbers

def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms of discriminant d < 0 by a double loop over b, a.

    Linear in |d|: the O(sqrt|d|) root count in arith.class_number is
    checked against it.
    """
    forms = []
    b = abs(d) % 2
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append((a, b, c))
            if not (b == 0 or b == a or a == c):
                forms.append((a, -b, c))
        b += 2
    return forms


def fundamental_discriminant(kind: int, m: int) -> int:
    """A candidate d < 0 with |d| <= 8m + 8 in one of the four fundamental classes.

    kind 0: d = 1 (mod 8); 1: d = 5 (mod 8); 2: d/4 = 2 (mod 4);
    3: d/4 = 3 (mod 4).  Squarefreeness is left to the caller.
    """
    if kind == 0:
        return -(8 * m + 7)
    if kind == 1:
        return -(8 * m + 3)
    return -4 * (4 * (m // 2) + (2 if kind == 2 else 1))


PINNED_CLASS_NUMBERS = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2, -163: 1}


def test_class_number_pinned():
    # hand enumeration of reduced forms:
    #  d=-4: (1,0,1); d=-20: (1,0,5),(2,2,3); d=-23: (1,1,6),(2,+-1,3)
    for d, h in PINNED_CLASS_NUMBERS.items():
        assert arith.class_number(d) == h == len(reduced_forms(d)), d
    # the boundary rules: (2,1,2) has a = c, and (2,2,3) has |b| = a
    assert reduced_forms(-15) == [(1, 1, 4), (2, 1, 2)]
    assert reduced_forms(-20) == [(1, 0, 5), (2, 2, 3)]


def test_sqrt_mod_prime_matches_squares():
    # primes through 257 = 2^8 + 1 reach every Tonelli-Shanks depth up to 8
    for p in arith._primes.primes_up_to(260).tolist()[1:]:
        squares = {x * x % p for x in range(p)}
        for a in range(-p, p):
            x = arith._sqrt_mod_prime(a, p)
            assert (x is None) == (a % p not in squares), (a, p)
            assert x is None or x * x % p == a % p


def test_class_number_matches_form_loop_exhaustively():
    for d in range(-3, -5001, -1):
        if arith._is_fundamental(d):
            assert arith.class_number(d) == len(reduced_forms(d)), d


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6 // 8 - 1))
@example(0, 124_998)  # d = -999991
@example(1, 124_999)  # d = -999995
@example(2, 124_997)  # d = -999976
@example(3, 124_999)  # d = -999988
def test_class_number_matches_form_loop(kind, m):
    d = fundamental_discriminant(kind, m)
    assume(arith._is_fundamental(d))
    assert -d <= 10**6
    assert arith.class_number(d) == len(reduced_forms(d))


def test_class_number_reads_no_character(monkeypatch):
    # the form count and the L-value are compared as two paths, so the count
    # must work with every character routine of the L-value gone
    def broken(*args):
        raise AssertionError("class_number read a character")

    for name in ("_chi_table", "_jacobi"):
        monkeypatch.setattr(arith, name, broken)
    arith.class_number.cache_clear()
    # both values agree with the form loop; 16416 also with 2 pi h / (w sqrt q)
    assert arith.class_number(-4 * (10**8 + 1)) == 16416
    assert arith.class_number(-(10**8 + 7)) == 7253


def test_class_number_refuses_past_cap_before_allocating():
    import tracemalloc

    d = -(BUDGETS["class_number_disc"].limit + 3)  # = 1 (mod 4)
    assert d % 4 == 1
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            arith.class_number(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_class_number_cache_is_bounded_and_shared_with_gauss_count():
    assert arith.class_number.cache_info().maxsize is not None
    arith.class_number(-20)
    hits = arith.class_number.cache_info().hits
    assert arith.gauss_count(5) == 24
    assert arith.class_number.cache_info().hits == hits + 1


def test_class_number_rejects_bad_inputs():
    with pytest.raises(DomainError):
        arith.class_number(5)
    with pytest.raises(DomainError):
        arith.class_number(-12)  # 4*3, 3 = 3 mod 4 but -12/4 = -3 = 1 mod 4
    with pytest.raises(DomainError):
        arith.class_number(-18)


def test_discriminant_rule():
    assert arith.discriminant(5) == -20
    assert arith.discriminant(3) == -3
    assert arith.discriminant(7) == -7
    assert arith.discriminant(1) == -4
    with pytest.raises(DomainError):
        arith.discriminant(12)


# ----------------------------------------------------------------- L-values

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**10), st.integers(min_value=0, max_value=3000))
@example(1, 3)  # d = -4 = 4 (mod 8): chi(2) = 0
@example(2, 8)  # d = -8 = 0 (mod 8): chi(2) = 0
@example(3, 4)  # d = -3 = 5 (mod 8): chi(2) = -1
@example(7, 8)  # d = -7 = 1 (mod 8): chi(2) = 1
@example(10**10 + 19, 2)
@example(5, 0)
def test_chi_table_matches_kronecker(n, upto):
    # primes above sqrt(upto) take the indexed pass, the rest their slices;
    # the squarefree n give every fundamental d < 0, of each class mod 8
    assume(arith.is_squarefree(n))
    d = arith.discriminant(n)
    assert arith._chi_table(d, upto).tolist() == [kronecker(d, m) for m in range(upto + 1)]


def test_l_series_terms_match_math_erfc():
    # the kernels switch at x = 1, which with its neighbours is on the
    # grid; the series never reaches x = 8, where the erfc kernel ends
    edges = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    x = np.unique(np.concatenate([np.linspace(0, 26, 100_001)[1:], np.geomspace(1e-6, 26, 2001), edges]))
    x = x[x < 8]
    got = arith._l_series_terms(x)
    want = np.array([math.erfc(v) + math.exp(-v * v) / (math.sqrt(math.pi) * v) for v in x.tolist()])
    rel = np.abs(got - want) / want
    # up to 6 scipy.special.erfc itself is 4.3e-15 off math.erfc; beyond,
    # the rounding of x^2 in exp(-x^2) dominates
    assert rel[x <= 6].max() <= 5e-15
    assert rel[x > 6].max() <= 1e-13


def test_l_value_closed_forms():
    assert arith.dirichlet_l_one(5, 1e-10) == pytest.approx(2 * math.pi / math.sqrt(20), abs=1e-10)
    assert arith.dirichlet_l_one(2, 1e-10) == pytest.approx(math.pi / math.sqrt(8), abs=1e-10)
    assert arith.dirichlet_l_one(1, 1e-10) == pytest.approx(math.pi / 4, abs=1e-10)
    assert arith.dirichlet_l_one(3, 1e-10) == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-10)


def test_l_value_class_number_consistency():
    eps = 1e-9
    for n in (1, 2, 3, 5, 6, 10, 11, 13, 21, 30, 101, 1009):
        lval = arith.dirichlet_l_one(n, eps)
        assert abs(lval - class_number_l_value(n)) <= 2 * eps


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2_000_000))
@example(1)
@example(3)
@example(1_999_993)
def test_l_value_series_matches_class_number(n):
    assume(n % 8 != 7 and arith.is_squarefree(n))
    assert abs(arith.dirichlet_l_one(n, 1e-12) - class_number_l_value(n)) <= 1e-11


@pytest.mark.parametrize("n", [1, 3, 5, 1009, 1_000_003, 10_000_019])
def test_l_value_honours_target_error(n):
    reference = arith.dirichlet_l_one(n, 1e-15)
    for k in range(2, 13, 2):
        eps = 10.0**-k
        assert abs(arith.dirichlet_l_one(n, eps) - reference) <= eps, (n, eps)


def test_l_value_keeps_prime_table_small():
    # a fresh process, so no earlier test has grown the table
    code = (
        "from threesq import arith, primes\n"
        "arith.dirichlet_l_one(10_000_019, 1e-10)\n"
        "print(primes.spf_limit())\n"
    )
    src = os.path.dirname(os.path.dirname(threesq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "65536"


def test_l_value_independent_of_blas_threads():
    # chi . terms has about 2.7 sqrt(q) = 85 000 entries at n = 1e9+3,
    # long enough for OpenBLAS to thread a dot product
    code = "from threesq import arith\nprint(repr(arith.dirichlet_l_one(10**9 + 3, 1e-10)))\n"
    src = os.path.dirname(os.path.dirname(threesq.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS=threads,
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        outs.append(out.stdout)
    assert outs[0] == outs[1] != ""


def test_l_value_rejects_7_mod_8():
    with pytest.raises(DomainError):
        arith.dirichlet_l_one(7, 1e-8)
    with pytest.raises(DomainError):
        arith.dirichlet_l_one(12, 1e-8)


# ------------------------------------------------------------- point counts

def test_gauss_count_pinned():
    assert arith.gauss_count(5) == 24  # 12 * h(-20)
    assert arith.gauss_count(11) == 24  # 24 * h(-11)
    assert arith.gauss_count(6) == 24  # 12 * h(-24)


def test_gauss_count_matches_enumeration():
    for n in range(4, 400):
        if n % 8 == 7 or not arith.is_squarefree(n):
            continue
        assert arith.gauss_count(n) == lattice.enumerate_points(n).size, n


def test_gauss_count_domain_errors():
    for bad in (2, 3, 7, 15, 12, 75):
        with pytest.raises(DomainError):
            arith.gauss_count(bad)


# ------------------------------------------------------ multiplicative bounds

def test_majorant_squarefree_pinned():
    assert arith.majorant_general(1, 5, 8) == 1  # powers of two contribute 1
    assert arith.majorant_general(1, 5, 9) == 3  # chi(3) = +1, sum over 3 terms
    assert arith.majorant_general(1, 5, 5) == 1  # p | n, exponent 1


def test_majorant_squarefree_multiplicative():
    def f(n, arg):
        return arith.majorant_general(1, n, arg)

    for a in (3, 4, 7, 9, 25, 11):
        for b in (8, 13, 27, 49):
            if math.gcd(a, b) == 1:
                assert f(5, a * b) == f(5, a) * f(5, b)


def squarefree_majorant_oracle(n: int, arg: int) -> int:
    """The documented prime-power values, with chi(p) = d^((p-1)/2) mod p.

    Euler's criterion, not the Kronecker symbol that `arith` reads, so
    the oracle's characters come by a second path."""
    d = arith.discriminant(n)
    out = 1
    for p, k in arith.factorize(arg):
        if p == 2:
            continue
        if n % p == 0:
            out *= 1 if k == 1 else 2
        else:
            chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            out *= sum(chi**j for j in range(k + 1))
    return out


def next_prime(x: int) -> int:
    x |= 1
    while not arith.is_prime(x):
        x += 2
    return x


# p^k c at a random prime p below 2^61: (-n | p) on Python ints far past
# int64 and the trial-division bound
LARGE_PRIME_ARGS = st.builds(
    lambda start, k, c: next_prime(start) ** k * c,
    st.integers(min_value=3, max_value=1 << 61),
    st.integers(1, 2),
    st.integers(min_value=1, max_value=1000),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=10**9) | LARGE_PRIME_ARGS)
@example(5, 9)
@example(3, 3**4 * 7**3)
@example(1, 2**64 + 13)  # a prime past 2^64
@example(5, (2**64 + 13) ** 2 * 9)
@example(3, 2**61 - 1)  # the Mersenne prime 2^61 - 1
def test_majorant_squarefree_is_general_at_m_one(n, arg):
    assume(arith.is_squarefree(n))
    assert arith.majorant_general(1, n, arg) == squarefree_majorant_oracle(n, arg)


def test_character_sum_closed_form():
    for c in (-1, 0, 1):
        for k in range(12):
            assert arith._character_sum(c, k) == sum(c**j for j in range(k + 1)), (c, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=1500))
@example(1)
@example(5)
def test_formula_table_shell_matches_public_functions(n):
    assume(arith.is_squarefree(n))
    tbl = arith.pair_count_formula_table(n)
    assert tbl.n.tolist() == [n] * (2 * n - 1)
    assert tbl.t.tolist() == list(range(-(n - 1), n))
    for t, formula, majorant in zip(tbl.t.tolist(), tbl.formula.tolist(), tbl.majorant.tolist()):
        assert formula == arith.pair_count_formula(n, t), (n, t)
        assert majorant == arith.majorant_general(1, n, n * n - t * t), (n, t)


def dense_counts(n: int) -> np.ndarray:
    """Geometric pair counts at t = -(n-1) .. n-1 (0 where no pair)."""
    tbl = lattice.pair_table(n)
    dense = np.zeros(2 * n - 1, dtype=np.int64)
    dense[tbl.t[1:-1] + n - 1] = tbl.count[1:-1]
    return dense


def assert_table_bounds_pair_counts(shells) -> None:
    tbl = arith.pair_count_formula_table(shells)
    counts = np.concatenate([dense_counts(n) for n in shells])
    bad = np.flatnonzero((counts != 0) & (counts != tbl.formula))
    assert bad.size == 0, (tbl.n[bad[0]], tbl.t[bad[0]], counts[bad[0]], tbl.formula[bad[0]])
    over = np.flatnonzero(counts > 24 * tbl.majorant)
    assert over.size == 0, (tbl.n[over[0]], tbl.t[over[0]])


SQUAREFREE_SHELLS = st.integers(min_value=1, max_value=3000).filter(arith.is_squarefree)


@settings(max_examples=60, deadline=None)
@given(st.lists(SQUAREFREE_SHELLS, min_size=1, max_size=3))
@example([1])
@example([2011])  # prime, 3 mod 8
@example([1001])  # 7 * 11 * 13, 1 mod 4
@example([2, 6, 10, 2002])
def test_formula_table_bounds_pair_tables(shells):
    assert_table_bounds_pair_counts(shells)


def test_formula_table_matches_pair_table_near_a_million():
    # n = 1 000 003 is prime, 3 mod 8: every m = 1 .. 2n - 1 goes through
    # the sieve, and the large-prime remainders dominate
    n = 1_000_003
    tbl = arith.pair_count_formula_table(n)
    counts = dense_counts(n)
    assert len(tbl.t) == len(counts) == 2 * n - 1
    assert np.all((counts == 0) | (counts == tbl.formula))
    assert np.all(counts <= 24 * tbl.majorant)
    assert np.count_nonzero(counts) > 1000


# shells up to 20 000 rich in odd prime powers
RICH_SHELLS = sorted(
    {
        3**a * 5**b * 7**c * 11**d * m
        for a in range(10) for b in range(7) for c in range(6) for d in range(5) for m in (1, 2, 4, 13)
    }
    - {1}
    & set(range(20_001))
)


@st.composite
def shell_rows(draw):
    """(n, t) with n <= 20 000: n any, or rich in odd prime powers; t often
    a multiple of a power of a prime of n."""
    n = draw(st.integers(1, 20_000) | st.sampled_from(RICH_SHELLS))
    t = draw(st.integers(min_value=-(n - 1), max_value=n - 1))
    odd_n = [p for p, _ in arith.factorize(n) if p != 2]
    if odd_n and draw(st.booleans()):
        q = draw(st.sampled_from(odd_n)) ** draw(st.integers(1, 4))
        t = (1 if t >= 0 else -1) * (abs(t) // q * q)
    return n, t


@settings(max_examples=150, deadline=None)
@given(st.lists(shell_rows(), min_size=1, max_size=3))
@example([(1, 0)])
@example([(3**7, 3**5), (5, 0)])
@example([(3**6 * 5, 3**6), (45, 15), (98, 49)])
def test_formula_table_matches_scalar_oracle(rows):
    shells = [n for n, _ in rows]
    tbl = arith.pair_count_formula_table(shells)
    start = np.cumsum([0] + [2 * n - 1 for n in shells])
    for (n, t), lo in zip(rows, start.tolist()):
        i = lo + t + n - 1
        assert (tbl.n[i], tbl.t[i]) == (n, t)
        expected = scalar_pair_formula(n, t)
        assert tbl.formula[i] == expected == arith.pair_count_formula(n, t), (n, t)
        assert tbl.majorant[i] == arith.majorant_general(1, n, n * n - t * t), (n, t)


@st.composite
def rows_past_spf_cap(draw):
    n = draw(st.integers(min_value=1 << 26, max_value=1 << 40))
    return n, draw(st.integers(min_value=-(n - 1), max_value=n - 1))


@settings(max_examples=80, deadline=None)
@given(rows_past_spf_cap())
@example((1 << 40, 1 << 39))
@example((3**25, 2 * 3**24))  # ord_3(t) < ord_3(n): the u = U+V branch
@example((3**25 * 2, 3**25))
@example((10**12 + 39, 10**12 - 11))
def test_scalar_formula_matches_oracle_past_spf_cap(row):
    # n -+ t past the prime table: factorize falls back on trial division and rho
    n, t = row
    value = arith.pair_count_formula(n, t)
    assert type(value) is int
    assert value == scalar_pair_formula(n, t), row


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1 << 60, max_value=arith.MAX_PAIR_SHELL - 1), st.data())
@example((1 << 62) - 1, None)  # n + t = 2^63 - 3 at t = n - 1
def test_scalar_formula_matches_oracle_below_int64_cap(n, data):
    t = n - 1 if data is None else data.draw(st.integers(min_value=-(n - 1), max_value=n - 1))
    assert arith.pair_count_formula(n, t) == scalar_pair_formula(n, t), (n, t)


def test_pair_formula_refuses_shells_past_int64_cap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("factored before the cap check")

    monkeypatch.setattr(arith, "factorize", forbidden)
    monkeypatch.setattr(arith, "_valuation", forbidden)
    for call in (
        lambda: arith.pair_count_formula(arith.MAX_PAIR_SHELL, 1),
        lambda: arith.local_density(arith.MAX_PAIR_SHELL + 5, 0, 3),
    ):
        with pytest.raises(DomainError, match="2\\^62"):
            call()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=6), st.integers(4, 2000))
def test_formula_table_independent_of_grid_blocks(shells, cells):
    expected = arith.pair_count_formula_table(shells)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_TABLE_CELLS", cells)
        mp.setattr(arith, "_LEGENDRE_CELLS", 1 + cells // 100)
        got = arith.pair_count_formula_table(shells)
    for a, b in zip((got.n, got.t, got.formula, got.majorant), (expected.n, expected.t, expected.formula, expected.majorant)):
        assert np.array_equal(a, b)
    # the groups tile the shells in order, and a grid of several shells
    # stays within the cell budget
    lengths = 2 * np.array(shells) - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_TABLE_CELLS", cells)
        groups = list(arith._grid_groups(lengths))
    assert [g.start for g in groups] == [0] + [g.stop for g in groups[:-1]]
    assert groups[-1].stop == len(shells)
    for g in groups:
        assert g.stop - g.start == 1 or (g.stop - g.start) * lengths[g].max() <= cells


def test_formula_table_domain():
    assert len(arith.pair_count_formula_table([]).t) == 0
    for bad in (0, -3, (BUDGETS["formula_cells"].limit + 1) // 2 + 1):
        with pytest.raises(DomainError):
            arith.pair_count_formula_table([5, bad])


def test_majorant_general_pinned():
    assert arith.majorant_general(4, 4, 8) == 1
    assert arith.majorant_general(9, 9, 3) == 2  # p | m, k = 1 gives k + 1
    assert arith.majorant_general(1, 5, 9) == 3  # reduces to the squarefree case
    # p = 3 divides n = 12, is coprime to m = 4, exponent 2
    assert arith.majorant_general(4, 12, 9) == 2


def test_majorant_general_rejects_non_squarefull():
    with pytest.raises(DomainError):
        arith.majorant_general(12, 5, 3)


# ------------------------------------------------------------ local densities

def test_local_density_pinned():
    assert arith.local_density(5, 0, 5) == Fraction(2)
    assert arith.local_density(5, 4, 3) == Fraction(3)
    # 24 * alpha2 * alpha_3(3,0) must equal the direct count 0
    assert arith.local_density(3, 0, 3) == Fraction(0)
    assert brute_pair_count(3, 0) == 0


def test_local_density_trivial_prime():
    assert arith.local_density(11, 2, 5) == Fraction(1)  # 5 does not divide 117


def test_local_density_closed_form_away_from_2n():
    # for odd p coprime to 2n the density is the geometric character sum
    for n in (5, 6, 13, 21, 30):
        d = arith.discriminant(n)
        for t in range(-(n - 1), n):
            disc = n * n - t * t
            for p, k in arith.factorize(disc):
                if p == 2 or n % p == 0:
                    continue
                expected = sum(kronecker(d, p) ** j for j in range(k + 1))
                assert arith.local_density(n, t, p) == Fraction(expected), (n, t, p)


@settings(max_examples=400, deadline=None)
@given(density_triples())
@example((5, 0, 5))
@example((3**7, 3**5, 3))
@example((3**6 * 5, 0, 3))
@example((3**6 * 5, 3**6, 3))
@example((6, 3, 3))  # a1 odd, a2 even: the character of -eps2, not -eps1 eps2
@example((15, 3, 3))
def test_local_density_matches_fraction_oracle(triple):
    n, t, p = triple
    value = arith.local_density(n, t, p)
    assert type(value) is int
    assert value == fraction_local_density(n, t, p), triple


def test_local_density_rejects_two():
    with pytest.raises(DomainError):
        arith.local_density(5, 0, 2)


def test_diagonalization_invariants():
    for n in (5, 9, 12, 45, 75, 98):
        for t in range(-(n - 1), n):
            disc = n * n - t * t
            for p, _ in arith.factorize(disc):
                if p == 2:
                    continue
                diag = diagonalize_pair_form(n, t, p)
                g = math.gcd(n, t)
                assert diag.a1 == (ord_p(g, p) if g % p == 0 else 0)
                assert diag.a1 + diag.a2 == ord_p(disc, p)
                assert diag.a1 <= diag.a2
                assert diag.eps1_residue % p != 0
                assert diag.eps2_residue % p != 0


def test_pair_count_formula_pinned():
    assert arith.pair_count_formula(5, 0) == 48
    assert brute_pair_count(5, 0) == 48
    assert arith.pair_count_formula(5, 4) == 72
    assert brute_pair_count(5, 4) == 72
    # 5^2 - 3^2 = 16 has no odd prime factor, so the formula value is 24
    assert arith.pair_count_formula(5, 3) == 24
    assert brute_pair_count(5, 3) in (0, 24)
    assert brute_pair_count(5, 3) == 24


def test_pair_count_formula_vs_brute_small():
    for n in (1, 2, 3, 5, 6, 10, 14, 21, 30):
        for t in range(-(n - 1), n):
            a = brute_pair_count(n, t)
            assert a in (0, arith.pair_count_formula(n, t)), (n, t, a)
            assert a <= 24 * arith.majorant_general(1, n, n * n - t * t)


def test_general_majorant_bounds_pair_counts():
    # non-squarefree shells against the general multiplicative bound,
    # reading the second argument of the bound as (n1^2 - t1^2)
    worst = 0.0
    for n in (4, 12, 18, 20, 45, 48, 50, 63, 75, 98, 99):
        tbl = lattice.pair_table(n)
        for t, count in zip(tbl.t.tolist(), tbl.count.tolist()):
            if abs(t) >= n:
                continue
            m = squarefull_gcd_part(n, t)
            n1, t1 = n // m, t // m
            tau = 1
            for _, k in arith.factorize(m):
                tau *= k + 1
            bound = math.sqrt(m) * tau * arith.majorant_general(m, n, n1 * n1 - t1 * t1)
            worst = max(worst, count / bound)
    assert worst <= 24.0, worst

