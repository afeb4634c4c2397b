"""Exact arithmetic behind sphere pair counts.

Integer factorization, Kronecker/Legendre symbols, class numbers of
imaginary quadratic fields, Dirichlet L-values at s=1, and the p-adic
local densities of the binary quadratic form

    n*u^2 + 2*t*u*v + n*v^2,   |t| < n.

For every odd prime p the form is equivalent over the p-adic integers to
a diagonal one eps1*p^a1*u^2 + eps2*p^a2*v^2 with

    a1 = ord_p(gcd(n, t)),   a1 + a2 = ord_p(n^2 - t^2),

and the density local_density(n, t, p) depends only on the parities of
(a1, a2) and the quadratic characters of -eps1, -eps2.  Multiplied over
the odd primes dividing n^2 - t^2, and by 24 and a 2-adic factor that is
always 0 or 1, these densities give the number of ordered pairs (x, y)
of integer points on the sphere |x|^2 = n with inner product x.y = t.

Everything here is integer-exact: every local density is a sum of
powers of p, so the pair-count formula is a product of Python ints.  All
functions are pure; the only caches are append-only
tables safe for concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from . import primes as _primes
from .errors import DomainError, InvariantError

# Witness set making Miller-Rabin deterministic for n < 3.3e24 (> 2^80).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """Find a nontrivial factor of an odd composite via Pollard rho.

    The polynomial offsets are swept deterministically, so repeated runs
    factor the same way.
    """
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise InvariantError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending


def _split_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    r = math.isqrt(n)
    if r * r == n:
        _split_into(r, out)
        _split_into(r, out)
        return
    d = _rho_split(n)
    _split_into(d, out)
    _split_into(n // d, out)


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(_primes.primes_up_to(10_000).tolist())


def factorize(n: int) -> Factorization:
    """Full factorization; trial division backed by a rho splitter.

    Intended range is n up to about 2^80 (discriminants n^2 - t^2 for
    sphere radii up to 2^40); Python integers keep everything exact.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    value = n
    fac: dict[int, int] = {}
    if n <= _primes.spf_limit():
        spf = _primes.spf_table(n)
        while n > 1:
            p = int(spf[n])
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            fac[p] = k
    else:
        for p in _trial_primes():
            if p * p > n:
                break
            while n % p == 0:
                fac[p] = fac.get(p, 0) + 1
                n //= p
        else:
            # cofactor free of primes below the trial bound: split by rho
            _split_into(n, fac)
            n = 1
        if n > 1:
            # no prime factor up to its square root
            fac[n] = 1
    f = Factorization(value, tuple(sorted(fac.items())))
    check = 1
    for p, k in f.factors:
        check *= p**k
    if check != value:
        raise InvariantError(f"factorization of {value} does not multiply back")
    return f


def ord_p(m: int, p: int) -> int:
    """Largest k with p^k | m (m must be nonzero)."""
    if m == 0:
        raise DomainError("ord_p(0) is infinite; handle zero separately")
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(k == 1 for _, k in factorize(n).factors)


def is_squarefull(n: int) -> bool:
    """Every prime factor appears with exponent >= 2 (true for n = 1)."""
    if n < 1:
        return False
    return all(k >= 2 for _, k in factorize(n).factors)


def kronecker(d: int, m: int) -> int:
    """Kronecker symbol (d|m), defined for all integer pairs."""
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


def _legendre(a: int, p: int) -> int:
    # Euler criterion; p an odd prime.
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _chi_prime(d: int, p: int) -> int:
    """kronecker(d, p) for prime p, via the Euler criterion for odd p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    return _legendre(d, p)


@dataclass(frozen=True)
class Discriminant:
    """Fundamental discriminant of Q(sqrt(-n)) for squarefree n."""

    n: int
    d: int


def discriminant(n: int) -> Discriminant:
    if n < 1 or not is_squarefree(n):
        raise DomainError(f"n = {n} must be a squarefree positive integer")
    d = -n if (-n) % 4 == 1 else -4 * n
    return Discriminant(n, d)


def _is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return is_squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(-m)
    return False


@lru_cache(maxsize=None)
def class_number(d: int) -> int:
    """h(d): reduced primitive forms (a, b, c) of discriminant d < 0.

    Counts (a, b, c) with b^2 - 4ac = d, -a < b <= a <= c, gcd = 1 and
    b >= 0 whenever a = c (or |b| = a).
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"d = {d} is not a negative discriminant")
    if not _is_fundamental(d):
        raise DomainError(f"d = {d} is not fundamental")
    h = 0
    b = abs(d) % 2
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            h += 1 if (b == 0 or b == a or a == c) else 2
        b += 2
    return h


def _chi_table(d: int, upto: int) -> np.ndarray:
    """chi_d(m) for m = 0..upto as a float array, filled multiplicatively."""
    chi = np.ones(upto + 1)
    chi[0] = 0.0
    for p in _primes.primes_up_to(upto).tolist():
        cp = _chi_prime(d, p)
        if cp == 1:
            continue
        if cp == 0:
            chi[p::p] = 0.0
        else:
            pk = p
            while pk <= upto:
                chi[pk::pk] *= -1.0
                pk *= p
    return chi


def dirichlet_l_one(n: int, target_error: float) -> float:
    """L(1, chi) for the quadratic character attached to Q(sqrt(-n)).

    chi is primitive and odd with conductor q = |d|, so the functional
    equation gives the rapidly convergent series (H. Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, ch. 5)

        L(1, chi) = (pi/sqrt(q)) sum_{m>=1} chi(m) T(x_m),
        T(x) = erfc(x) + exp(-x^2)/(sqrt(pi) x),   x_m = m sqrt(pi/q).

    Since erfc(x) <= exp(-x^2)/(sqrt(pi) x), the m-th term is at most
    2 delta exp(-x_m^2)/x_m with delta = sqrt(pi/q), and
    x_m^2 - x_{M+1}^2 >= 2 delta x_{M+1} (m - M - 1) bounds the tail
    after M terms by the geometric sum

        2 delta exp(-x^2) / (x (1 - exp(-2 delta x))),   x = x_{M+1}.

    The sum stops at the smallest M whose bound is <= target_error / 2,
    which leaves the other half for rounding (near machine precision,
    since the terms decay like a Gaussian); M is about
    sqrt(q log(1/target_error) / pi), 2.7 sqrt(q) at 1e-10, so chi is
    tabulated through M only.  Agreement with 2*pi*h/(w*sqrt(q)) from
    the reduced-form class number is the cross-check exercised by the
    tests.
    """
    if target_error <= 0:
        raise DomainError("target_error must be positive")
    if n % 8 == 7:
        raise DomainError(
            f"n = {n} = 7 (mod 8): not a sum of three squares, no count identity"
        )
    d = discriminant(n).d
    q = -d
    delta = math.sqrt(math.pi / q)
    log_goal = math.log(target_error / 2)

    def log_tail(terms: int) -> float:
        x = (terms + 1) * delta
        return math.log(2 * delta / x) - x * x - math.log(-math.expm1(-2 * delta * x))

    # smallest term count M >= 1 with log_tail(M) <= log_goal
    hi = 1
    while log_tail(hi) > log_goal:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_tail(mid) <= log_goal:
            hi = mid
        else:
            lo = mid
    chi = _chi_table(d, hi)
    x = np.arange(1, hi + 1) * delta
    terms = erfc(x) + np.exp(-x * x) / (math.sqrt(math.pi) * x)
    return math.pi / math.sqrt(q) * float(np.dot(chi[1:], terms))


def class_number_l_value(n: int) -> float:
    """2*pi*h / (w*sqrt(q)): the class-number expression for L(1, chi)."""
    d = discriminant(n).d
    w = 6 if d == -3 else 4 if d == -4 else 2
    return 2.0 * math.pi * class_number(d) / (w * math.sqrt(-d))


def gauss_count(n: int) -> int:
    """Number of integer points on the sphere of radius sqrt(n), from h(d).

    Valid for squarefree n > 3 with n != 7 (mod 8): the count is 12*h for
    n = 1,2,5,6 (mod 8) and 24*h for n = 3 (mod 8).
    """
    if n % 8 == 7:
        raise DomainError(f"n = {n} = 7 (mod 8) is not a sum of three squares")
    if n <= 3:
        raise DomainError("class-number count requires n > 3")
    if not is_squarefree(n):
        raise DomainError(f"n = {n} must be squarefree")
    h = class_number(discriminant(n).d)
    return 24 * h if n % 8 == 3 else 12 * h


def majorant_squarefree(n: int, arg: int) -> int:
    """Multiplicative majorant for pair counts at squarefree n.

    Prime-power values: 1 at powers of 2; sum_{j<=k} chi(p)^j for odd
    p not dividing n; 1 for p | n with k = 1 and 2 for p | n with k >= 2.
    The ordered-pair count at inner product t is at most
    24 * majorant_squarefree(n, n^2 - t^2).  It is majorant_general(1, n,
    arg): with m = 1 the general prime-power values reduce to these.
    """
    if not is_squarefree(n):
        raise DomainError(f"n = {n} must be a squarefree positive integer")
    if arg < 1:
        raise DomainError("argument must be a positive integer")
    return _majorant(n, 1, factorize(arg).factors)


def majorant_general(m: int, n: int, arg: int) -> int:
    """Multiplicative majorant for pair counts at general n.

    m is the squarefull part of gcd(n, t) (all exponents >= 2; m = 1 is
    allowed).  Prime-power values: 1 at 2^k; k+1 for p | m; the geometric
    character sum for odd p not dividing n; 1 for p | n, p coprime to m,
    k = 1; and 2 in the remaining case p | n, p coprime to m, k >= 2.
    """
    if not is_squarefull(m):
        raise DomainError(f"m = {m} must be squarefull")
    if arg < 1:
        raise DomainError("argument must be a positive integer")
    return _majorant(n, m, factorize(arg).factors)


def _majorant(n: int, m: int, factors) -> int:
    # majorant_general from the factors of arg.  For odd p the character
    # chi_d(p) of d = -n or d = -4n is (-n | p), as 4 is a square mod p.
    out = 1
    for p, k in factors:
        if p == 2:
            continue
        if m % p == 0:
            out *= k + 1
        elif n % p != 0:
            out *= _character_sum(_legendre(-n, p), k)
        elif k >= 2:
            out *= 2
    return out


@dataclass(frozen=True)
class LocalDiagonalization:
    """Diagonal form eps1*p^a1*u^2 + eps2*p^a2*v^2 of the pair-count form.

    a1 = ord_p(gcd(n, t)), a1 + a2 = ord_p(n^2 - t^2), a1 <= a2; the unit
    parts are recorded by their residues mod p.
    """

    n: int
    t: int
    p: int
    a1: int
    a2: int
    eps1_residue: int
    eps2_residue: int


def diagonalize_pair_form(n: int, t: int, p: int) -> LocalDiagonalization:
    """Diagonalize n*u^2 + 2t*u*v + n*v^2 over the p-adic integers, p odd.

    When ord_p(n) <= ord_p(t), complete the square: diagonal entries n
    and (n^2 - t^2)/n.  Otherwise substitute u = U+V, v = U-V: diagonal
    entries 2(n + t) and 2(n - t), whose valuations both equal ord_p(t).
    """
    _check_pair_prime(n, t, p)
    return LocalDiagonalization(n, t, p, *_diagonalize(n, t, p))


def _check_pair_prime(n: int, t: int, p: int) -> None:
    if p == 2:
        raise DomainError("the 2-adic factor is a 0/1 constant, not computed here")
    if p < 3 or not is_prime(p):
        raise DomainError(f"p = {p} must be an odd prime")
    if abs(t) >= n:
        raise DomainError("|t| < n required")


def _diagonalize(n: int, t: int, p: int) -> tuple[int, int, int, int]:
    # (a1, a2, eps1_residue, eps2_residue) of diagonalize_pair_form for an
    # odd prime p and |t| < n, unchecked
    disc = n * n - t * t
    a_total = ord_p(disc, p) if disc % p == 0 else 0
    v_n = ord_p(n, p) if n % p == 0 else 0
    v_t = None if t == 0 else ord_p(t, p)
    if v_t is None or v_n <= v_t:
        a1 = v_n
        u_n = (n // p**v_n) % p
        u_d = (disc // p**a_total) % p
        e1 = u_n
        e2 = u_d * pow(u_n, p - 2, p) % p
    else:
        a1 = v_t
        e1 = ((n + t) // p ** ord_p(n + t, p)) * 2 % p
        e2 = ((n - t) // p ** ord_p(n - t, p)) * 2 % p
    a2 = a_total - a1
    if a2 < a1:
        raise InvariantError(f"valuations out of order for (n={n}, t={t}, p={p})")
    return a1, a2, e1, e2


def _character_sum(c: int, k: int) -> int:
    """sum_{j<=k} c^j for a character value c in {-1, 0, 1}."""
    if c == 1:
        return k + 1
    return 1 if c == 0 or k % 2 == 0 else 0


def _geometric(p: int, k: int) -> int:
    """1 + p + ... + p^(k-1), exactly; 0 for k = 0."""
    return (p**k - 1) // (p - 1)


def local_density(n: int, t: int, p: int) -> int:
    """p-adic density of the pair-count form at an odd prime p.

    Dispatches on the parities of the diagonal valuations (a1, a2);
    primes not dividing n^2 - t^2 have density 1.  Every case is an
    integer.  With s the relevant quadratic character (+-1):

    - a1 odd: the rational closed form p^k (1 - p^(-k-1)) / (1 - 1/p),
      k = (a1 - 1)/2, is (p^(k+1) - 1)/(p - 1) = sum_{j<=k} p^j, and the
      density is that sum times (1 + s);
    - a1 even: the head p^(h-1) (1 - p^(-h)) / (1 - 1/p), h = a1/2, is
      sum_{j<h} p^j (0 for a1 = 0), and the density is head (1 + s) or
      2 head, as a2 is odd or even, plus p^h sum_{k<=a2-a1} s^k.
    """
    _check_pair_prime(n, t, p)
    return _density(n, t, p)


def _density(n: int, t: int, p: int) -> int:
    # local_density for an odd prime p and |t| < n, unchecked
    if (n * n - t * t) % p != 0:
        return 1
    a1, a2, e1, e2 = _diagonalize(n, t, p)
    if a1 % 2 == 1:
        s = _legendre(-e1 * e2 if a2 % 2 == 1 else -e2, p)
        return _geometric(p, (a1 + 1) // 2) * (1 + s)
    s = _legendre(-e1, p)
    head = _geometric(p, a1 // 2)
    geo = _character_sum(s, a2 - a1)
    return head * (1 + s if a2 % 2 == 1 else 2) + p ** (a1 // 2) * geo


def pair_count_formula(n: int, t: int) -> int:
    """24 times the product of odd-prime local densities.

    The exact ordered-pair count at inner product t equals either this
    value or 0; the missing 2-adic factor is always 0 or 1, so membership
    in {0, pair_count_formula(n, t)} is the testable statement.
    """
    if abs(t) >= n:
        raise DomainError("|t| < n required")
    return _formula(n, t, factorize(n * n - t * t).factors)


def _formula(n: int, t: int, factors) -> int:
    # pair_count_formula from the factors of n^2 - t^2; the primes come
    # from factorize, so the primality test is skipped
    val = 24
    for p, _ in factors:
        if p != 2:
            val *= _density(n, t, p)
    return val


def shell_pair_values(n: int):
    """Yield (t, pair_count_formula(n, t), majorant_squarefree(n, n^2 - t^2))
    for -n < t < n at squarefree n, factoring each n^2 - t^2 once."""
    if not is_squarefree(n):
        raise DomainError(f"n = {n} must be a squarefree positive integer")
    for t in range(-(n - 1), n):
        factors = factorize(n * n - t * t).factors
        yield t, _formula(n, t, factors), _majorant(n, 1, factors)
