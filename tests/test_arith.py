import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import threesq
from threesq import arith, lattice
from threesq.errors import DomainError


# ---------------------------------------------------------------- oracles

def brute_legendre(a: int, p: int) -> int:
    """Quadratic residue test by enumerating all squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def fraction_local_density(n: int, t: int, p: int) -> Fraction:
    """The density's rational closed forms, evaluated in Fractions.

    Independent of the integer sums in arith.local_density; the quadratic
    characters come from the Kronecker symbol, not the Euler criterion.
    """
    if (n * n - t * t) % p != 0:
        return Fraction(1)
    diag = arith.diagonalize_pair_form(n, t, p)
    a1, a2, e1, e2 = diag.a1, diag.a2, diag.eps1_residue, diag.eps2_residue
    one, pf = Fraction(1), Fraction(p)
    if a1 % 2 == 1:
        s = arith.kronecker(-e1 * e2 if a2 % 2 == 1 else -e2, p)
        return pf ** ((a1 - 1) // 2) * (one - pf ** (-((a1 + 1) // 2))) / (one - one / pf) * (1 + s)
    s = arith.kronecker(-e1, p)
    geo = sum(Fraction(s) ** k for k in range(a2 - a1 + 1))
    head = pf ** ((a1 - 2) // 2) * (one - pf ** (-(a1 // 2))) / (one - one / pf)
    if a2 % 2 == 1:
        return head * (1 + s) + pf ** (a1 // 2) * geo
    return 2 * head + pf ** (a1 // 2) * geo


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
    odd_n = [p for p, _ in arith.factorize(n).factors if p != 2]
    if odd_n and draw(st.booleans()):
        q = draw(st.sampled_from(odd_n)) ** draw(st.integers(1, 4))
        t = (1 if t >= 0 else -1) * (abs(t) // q * q)
    odd_disc = [p for p, _ in arith.factorize(n * n - t * t).factors if p != 2]
    p = draw(st.sampled_from(odd_disc + [3, 5, 7, 13]))
    return n, t, p


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
    assert arith.factorize(1).factors == ()


def test_factorize_small():
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(97).factors == ((97, 1),)


def test_factorize_roundtrip_large():
    n = 2**40 + 1
    f = arith.factorize(n)
    prod = 1
    for p, k in f.factors:
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
    assert arith.factorize(n).factors == brute_factors(n)


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
    assert arith.kronecker(-20, 3) == 1
    assert arith.kronecker(-4, 2) == 0
    # -20 = 1 mod 7 is a square mod 7; the residue oracle settles the sign
    assert brute_legendre(-20, 7) == 1
    assert arith.kronecker(-20, 7) == 1


def test_kronecker_matches_legendre_at_odd_primes():
    for p in (3, 5, 7, 11, 13, 31, 97):
        for d in range(-50, 51):
            if d % p:
                assert arith.kronecker(d, p) == brute_legendre(d, p), (d, p)


def test_kronecker_multiplicative_in_bottom():
    for d in (-3, -4, -20, -24, 5, 12, -163):
        for m1 in range(1, 40):
            for m2 in range(1, 40):
                assert arith.kronecker(d, m1 * m2) == arith.kronecker(
                    d, m1
                ) * arith.kronecker(d, m2)


# ------------------------------------------------------------ class numbers

def test_class_number_pinned():
    # hand enumeration of reduced forms:
    #  d=-4: (1,0,1); d=-20: (1,0,5),(2,2,3); d=-23: (1,1,6),(2,+-1,3)
    assert arith.class_number(-4) == 1
    assert arith.class_number(-20) == 2
    assert arith.class_number(-23) == 3
    assert arith.class_number(-3) == 1
    assert arith.class_number(-11) == 1
    assert arith.class_number(-24) == 2
    assert arith.class_number(-163) == 1


def test_class_number_rejects_bad_inputs():
    with pytest.raises(DomainError):
        arith.class_number(5)
    with pytest.raises(DomainError):
        arith.class_number(-12)  # 4*3, 3 = 3 mod 4 but -12/4 = -3 = 1 mod 4
    with pytest.raises(DomainError):
        arith.class_number(-18)


def test_discriminant_rule():
    assert arith.discriminant(5).d == -20
    assert arith.discriminant(3).d == -3
    assert arith.discriminant(7).d == -7
    assert arith.discriminant(1).d == -4
    with pytest.raises(DomainError):
        arith.discriminant(12)


# ----------------------------------------------------------------- L-values

def test_l_value_closed_forms():
    assert arith.dirichlet_l_one(5, 1e-10) == pytest.approx(2 * math.pi / math.sqrt(20), abs=1e-10)
    assert arith.dirichlet_l_one(2, 1e-10) == pytest.approx(math.pi / math.sqrt(8), abs=1e-10)
    assert arith.dirichlet_l_one(1, 1e-10) == pytest.approx(math.pi / 4, abs=1e-10)
    assert arith.dirichlet_l_one(3, 1e-10) == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-10)


def test_l_value_class_number_consistency():
    eps = 1e-9
    for n in (1, 2, 3, 5, 6, 10, 11, 13, 21, 30, 101, 1009):
        lval = arith.dirichlet_l_one(n, eps)
        assert abs(lval - arith.class_number_l_value(n)) <= 2 * eps


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2_000_000))
@example(1)
@example(3)
@example(1_999_993)
def test_l_value_series_matches_class_number(n):
    assume(n % 8 != 7 and arith.is_squarefree(n))
    assert abs(arith.dirichlet_l_one(n, 1e-12) - arith.class_number_l_value(n)) <= 1e-11


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
    assert arith.majorant_squarefree(5, 8) == 1  # powers of two contribute 1
    assert arith.majorant_squarefree(5, 9) == 3  # chi(3) = +1, sum over 3 terms
    assert arith.majorant_squarefree(5, 5) == 1  # p | n, exponent 1


def test_majorant_squarefree_multiplicative():
    f = arith.majorant_squarefree
    for a in (3, 4, 7, 9, 25, 11):
        for b in (8, 13, 27, 49):
            if math.gcd(a, b) == 1:
                assert f(5, a * b) == f(5, a) * f(5, b)


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
        d = arith.discriminant(n).d
        for t in range(-(n - 1), n):
            disc = n * n - t * t
            for p, k in arith.factorize(disc).factors:
                if p == 2 or n % p == 0:
                    continue
                expected = sum(arith.kronecker(d, p) ** j for j in range(k + 1))
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
            for p, _ in arith.factorize(disc).factors:
                if p == 2:
                    continue
                diag = arith.diagonalize_pair_form(n, t, p)
                g = math.gcd(n, t)
                assert diag.a1 == (arith.ord_p(g, p) if g % p == 0 else 0)
                assert diag.a1 + diag.a2 == arith.ord_p(disc, p)
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
            assert a <= 24 * arith.majorant_squarefree(n, n * n - t * t)


def test_general_majorant_bounds_pair_counts():
    # non-squarefree shells against the general multiplicative bound,
    # reading the second argument of the bound as (n1^2 - t1^2)
    worst = 0.0
    for n in (4, 12, 18, 20, 45, 48, 50, 63, 75, 98, 99):
        tbl = lattice.pair_table(n)
        for t, count in zip(tbl.t.tolist(), tbl.count.tolist()):
            if abs(t) >= n:
                continue
            m = arith.squarefull_gcd_part(n, t)
            n1, t1 = n // m, t // m
            tau = 1
            for _, k in arith.factorize(m).factors:
                tau *= k + 1
            bound = math.sqrt(m) * tau * arith.majorant_general(m, n, n1 * n1 - t1 * t1)
            worst = max(worst, count / bound)
    assert worst <= 24.0, worst

