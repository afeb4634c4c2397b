"""Exact arithmetic behind sphere pair counts.

Integer factorization, the Jacobi symbol, class numbers of
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
powers of p, so the pair-count formula is a product of integers.  One
elementwise int64 density routine serves both routes to it, and every
quadratic character it reads comes from `_jacobi`, exact for any int64
input.  The scalar `pair_count_formula` feeds it the primes of n - t and
n + t from `factorize`, so it reaches n < 2^62, where n + t stays in int64.
`pair_count_formula_table` evaluates whole shells in int64 numpy passes.
Its rows (n, t), |t| < n, need the odd primes of n - t and n + t, and for
one shell both run over m = 1 .. 2n - 1.  So the shells sit side by side
as the rows of a grid over m, sieved like `twosquares._sieve_segment`:

* each odd prime p <= sqrt(2n - 1) is one strided slice of every shell
  at once; nested slices of p^2, p^3, ... give ord_p(m), and the slice
  is divided by p^ord_p(m);
* for p not dividing n the density depends only on (-n | p) and
  ord_p(m), because p then divides only one of n - t, n + t; the slice
  is multiplied by that character sum;
* what remains of m is 1 or one prime q with q^2 > 2n - 1, whose
  density is 1 + (-n | q);
* row (n, t) is the product of the grid at m = n + t and m = n - t.
  Every odd prime of n, small or left as the remainder of m = n,
  contributes 1 there and is applied by the general density at the rows
  with p | t, the only rows where p divides both sides.

Each integer primitive has one implementation, and each path reads it:

* factorizations come from `factorize` alone (trial division by the
  primes below 10^4, then Pollard rho on the cofactor), read by
  `is_squarefree`, `is_squarefull`, `majorant_general` and the scalar
  `pair_count_formula`; `class_number` walks the smallest-prime-factor
  table of `primes` for its boundary forms only;
* quadratic symbols on arrays come from `_jacobi`, read by the
  densities, the formula grid and `_chi_table`, which takes chi_d(2)
  from d mod 8; `majorant_general` takes (-n | p) on Python ints by
  Euler's criterion;
* valuations come from `_valuation`, read by `local_density` and the
  grid's densities at the primes of n; the grid's own slices count
  ord_p(m) by nesting.

All functions are pure; the only caches are the prime tables and a
bounded cache of class numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import primes as _primes
from .errors import DomainError, InvariantError, budget

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


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, primes ascending.

    Trial division by the primes below 10^4, then Pollard rho on a
    cofactor with no prime factor among them, so the route depends on n
    alone.  Intended range is n up to about 2^80 (discriminants
    n^2 - t^2 for sphere radii up to 2^40); Python integers keep
    everything exact, and the factors are multiplied back before they
    are returned.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    value = n
    fac: dict[int, int] = {}
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
    factors = tuple(sorted(fac.items()))
    if math.prod(p**k for p, k in factors) != value:
        raise InvariantError(f"factorization of {value} does not multiply back")
    return factors


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(k == 1 for _, k in factorize(n))


def is_squarefull(n: int) -> bool:
    """Every prime factor appears with exponent >= 2 (true for n = 1)."""
    if n < 1:
        return False
    return all(k >= 2 for _, k in factorize(n))


def _jacobi(a, m) -> np.ndarray:
    """Jacobi symbol (a | m) elementwise for int64 a and odd m > 0: -1, 0 or 1.

    Exact for every int64 input, because after a -> a mod m nothing grows:
    each step strips the twos of a by a shift, applies (2 | m) = -1 for
    m = 3, 5 (mod 8) and reciprocity (a = m = 3 mod 4 flips the sign) as
    sign bits, and replaces (a, m) by (m mod a, a) (H. Cohen, GTM 138,
    Algorithm 1.4.10).  The symbol is 0 when the final m, gcd(a, m), is
    not 1.
    """
    a = np.mod(a, m)
    m = m + np.zeros_like(a)  # a fresh array in the broadcast shape
    flips = np.zeros_like(a)  # the parity of sign flips, in bit 0
    while a.any():
        done = a == 0  # m is gcd(a, m) there, and stays
        twos = np.bitwise_count((a & -a) - 1) & ~done  # ord_2(a)
        a >>= twos
        flips ^= (twos & ((m >> 1) ^ (m >> 2))) ^ ((a & m) >> 1)
        a, m = m % (a | done), a | (m * done)
    return np.where(m == 1, 1 - 2 * (flips & 1), 0)


def discriminant(n: int) -> int:
    """Fundamental discriminant of Q(sqrt(-n)) for squarefree n."""
    if n < 1 or not is_squarefree(n):
        raise DomainError(f"n = {n} must be a squarefree positive integer")
    return -n if (-n) % 4 == 1 else -4 * n


def _is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return is_squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(-m)
    return False


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """x with x^2 = a (mod p) for an odd prime p, or None for a non-residue.

    Tonelli-Shanks; the root is checked by squaring before it is returned.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    x = pow(a, (q + 1) // 2, p)
    if s > 1:
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t = s, pow(z, q, p), pow(a, q, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    if x * x % p != a:
        raise InvariantError(f"{x}^2 != {a} (mod {p})")
    return x


@lru_cache(maxsize=4096)  # int keys and values: 0.62 MB when full
def class_number(d: int) -> int:
    """h(d): reduced primitive forms (a, b, c) of discriminant d < 0.

    Counts (a, b, c) with b^2 - 4ac = d, -a < b <= a <= c, gcd = 1 and
    b >= 0 whenever a = c (or |b| = a), in O(sqrt|d|) steps over a alone.
    Write D = |d|, b = 2u + delta with delta = D mod 2, and
    k = (delta - d)/4, so that b^2 - d = 4 f(u), f(u) = u^2 + delta u + k.

    * Every form is primitive.  If g divides a, b and c then
      d/g^2 = (b/g)^2 - 4(a/g)(c/g) is 0 or 1 mod 4.  A fundamental d is
      squarefree and 1 mod 4, or 4m with m squarefree and 2 or 3 mod 4;
      so g = 1, or g = 2 and d/4 = m is 2 or 3 mod 4, a contradiction.
    * Fix a.  c = (b^2 - d)/(4a) is an integer iff f(u) = 0 (mod a).  The
      b of parity delta in (-a, a] give a consecutive values of u, one in
      each class mod a; so they match the roots of f mod a one to one,
      b = a is kept and b = -a is not.  a <= c and |b| <= a give
      D = 4ac - b^2 >= 3a^2, so a <= top = isqrt(D/3).
    * Interior, 4a^2 < D: c = (b^2 + D)/(4a) > a for every such b, so a
      contributes rho(a), the number of roots of f mod a.  rho is
      multiplicative by the CRT.  For odd p, 4 f(u) = (2u + delta)^2 - d,
      so the roots mod p^e are the square roots of d.  For p not dividing
      d there are 0 or 2 mod p, and each lifts to exactly one root mod p^e
      (Hensel: f'(u) = 2u + delta is a square root of d, so a unit).  For p | d,
      p^2 does not divide d: the root mod p is the one x = 0, and none
      exists mod p^2.  At p = 2 with delta = 1, f(u) = u(u + 1) + k = k
      (mod 2) has both roots if k is even, none if odd, and f' is odd, so
      they lift.  With delta = 0 (2 | d), f(u) = u^2 + k with k = -d/4 = 1
      or 2 mod 4 has one root mod 2 and none mod 4.  So a prime with two
      roots multiplies rho by 2 at every power, a prime with none by 0,
      and a prime with one (exactly the p | d) by 1 at p and 0 at p^2;
      the sieve below fills rho(a) for all a <= top from these rules.
    * Boundary, D/4 <= a^2 <= D/3: the roots mod a are built explicitly,
      per prime by Tonelli-Shanks (trial at p = 2), Hensel-lifted to p^e
      and combined by the CRT over a's factorization.  c >= a iff
      b^2 >= 4a^2 - D, and c = a at equality, where only b >= 0 counts.

    No character value is read: each prime's root count comes from roots
    found here and checked by squaring, so the count stays independent
    of `dirichlet_l_one`.  |d| past the "class_number_disc" budget of
    `errors.BUDGETS` is refused.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"d = {d} is not a negative discriminant")
    budget("class_number_disc", -d, f"class number of d = {d}")
    if not _is_fundamental(d):
        raise DomainError(f"d = {d} is not fundamental")
    D = -d
    delta = D % 2
    k = (delta - d) // 4
    top = math.isqrt(D // 3)
    rho = np.ones(top + 1, dtype=np.int16)  # rho(a) <= 2^7 while top < 2*3*...*19
    rho[0] = 0
    roots = {}  # roots u of f mod p, for every prime p <= top with a root
    for p in _primes.primes_up_to(top).tolist():
        if p == 2:
            r = tuple(u for u in (0, 1) if (u * u + delta * u + k) % 2 == 0)
        else:
            x = _sqrt_mod_prime(d, p)
            half = (p + 1) // 2  # 1/2 mod p
            r = () if x is None else tuple({(x - delta) * half % p, (-x - delta) * half % p})
        if not r:
            rho[p::p] = 0
            continue
        roots[p] = r
        if len(r) == 2:
            rho[p::p] *= 2
        else:
            rho[p * p :: p * p] = 0
    interior = math.isqrt((D - 1) // 4)  # the largest a with 4a^2 < D
    h = int(rho[1 : interior + 1].sum(dtype=np.int64))
    spf = _primes.spf_table(top)
    for a in (np.flatnonzero(rho[interior + 1 :]) + interior + 1).tolist():
        us, mod, rest = [0], 1, a
        while rest > 1:
            p = int(spf[rest])
            pe = 1
            while rest % p == 0:
                rest //= p
                pe *= p
            lifted = []
            for u in roots[p]:
                m = p
                while m < pe:  # Newton steps double the precision
                    m = min(m * m, pe)
                    u = (u - (u * u + delta * u + k) * pow(2 * u + delta, -1, m)) % m
                lifted.append(u)
            step = pow(mod, -1, pe)
            us = [u0 + mod * ((u1 - u0) * step % pe) for u0 in us for u1 in lifted]
            mod *= pe
        if len(us) != rho[a]:
            raise InvariantError(f"{len(us)} roots mod {a}, rho = {rho[a]}")
        low = 4 * a * a - D
        for u in us:
            b = 2 * u + delta
            if b > a:
                b -= 2 * a
            if (b * b - d) % (4 * a):
                raise InvariantError(f"b = {b} is not a root of {d} mod {4 * a}")
            if b * b > low or (b * b == low and b >= 0):
                h += 1
    return h


def _chi_table(d: int, upto: int) -> np.ndarray:
    """chi_d(m) for m = 0..upto as a float array, filled multiplicatively
    from chi_d(2) and one `_jacobi` call for all the odd primes.

    A prime p <= sqrt(upto) with chi_d(p) != 1 scales the multiples of
    each of its powers, one slice each.  A larger prime divides each
    m <= upto at most once, so the multiples of all of them are scaled
    by one indexed pass, whose indices are distinct.
    """
    chi = np.ones(upto + 1)
    chi[0] = 0.0
    ps = _primes.primes_up_to(upto).astype(np.int64)
    values = np.empty(ps.size)
    values[:1] = 0 if d % 2 == 0 else -1 if d % 8 in (3, 5) else 1  # (d | 2)
    values[1:] = _jacobi(d, ps[1:])
    ps, values = ps[values != 1], values[values != 1]
    small = np.searchsorted(ps, math.isqrt(upto), side="right")
    for p, cp in zip(ps[:small].tolist(), values[:small].tolist()):
        if cp == 0:
            chi[p::p] = 0.0
        else:
            pk = p
            while pk <= upto:
                chi[pk::pk] *= -1.0
                pk *= p
    big = ps[small:]
    counts = upto // big
    chi[(_ragged_arange(counts) + 1) * np.repeat(big, counts)] *= np.repeat(values[small:], counts)
    return chi


# W. J. Cody's rational kernels (Math. Comp. 23, 1969, 631-637), with the
# coefficients of Cephes ndtr.c, highest degree first: erf(x) = x T(z)/U(z)
# with z = x^2 for x < 1, and erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8,
# which covers every x the L-value series reaches (see `dirichlet_l_one`).
# U and Q are monic.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_SQRT_PI = math.sqrt(math.pi)
_RSQRT_PI = 1 / _SQRT_PI


def _horner(x: np.ndarray, coef) -> np.ndarray:
    # coef[0] x^k + ... + coef[k], in place on one new array
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _l_series_terms(x: np.ndarray) -> np.ndarray:
    """erfc(x) + exp(-x^2)/(sqrt(pi) x) for ascending x in (0, 8), each x
    through one kernel; see `dirichlet_l_one`."""
    out = np.exp(-x * x)
    one = int(np.searchsorted(x, 1.0))
    v = x[one:]
    ratio = _horner(v, _ERFC_P)
    ratio /= _horner(v, _ERFC_Q)
    ratio += _RSQRT_PI / v
    out[one:] *= ratio
    v = x[:one]
    z = v * v
    erf = _horner(z, _ERF_T)
    erf *= v
    erf /= _horner(z, _ERF_U)
    erfc = np.subtract(1.0, erf, out=erf)
    head = out[:one]
    head /= _SQRT_PI * v
    head += erfc
    return out


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
    since the terms decay like a Gaussian).  So a target_error below
    machine epsilon (2^-52) is refused: the tail could be made that
    small, but the float64 sum itself rounds near 1e-16, and the bound
    would not be met.  M is about
    sqrt(q log(1/target_error) / pi), 2.7 sqrt(q) at 1e-10, so chi is
    tabulated through M only.  Agreement with 2*pi*h/(w*sqrt(q)) from
    the reduced-form class number is the cross-check exercised by the
    tests.

    The terms T(x_m) come from W. J. Cody's rational kernels for erf and
    erfc (Math. Comp. 23, 1969, 631-637, with the coefficients of Cephes
    ndtr.c), evaluated here in numpy: since x_m ascends, the terms with
    x_m < 1 are an index prefix and take 1 - erf(x) from Cody's erf
    ratio, and the rest take exp(-x^2) (P(x)/Q(x) + 1/(sqrt(pi) x)), P/Q
    his erfc ratio for 1 <= x < 8, with exp(-x^2) computed once for both
    summands.  At target_error >= 2^-52 the last x_m is below 5.9 for
    every conductor (5.88 at q = 11, tending to 5.77 as q grows), so his
    kernel for x >= 8 is never needed.  Against math.erfc(x) +
    exp(-x^2)/(sqrt(pi) x), a term is within 2.2e-15 relative up to x = 6.
    """
    if not np.finfo(float).eps <= target_error < math.inf:  # NaN fails too
        raise DomainError("target_error must be finite and at least 2^-52, the float64 epsilon")
    if n % 8 == 7:
        raise DomainError(
            f"n = {n} = 7 (mod 8): not a sum of three squares, no count identity"
        )
    d = discriminant(n)
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
    terms = _l_series_terms(x)
    # einsum, not BLAS: a threaded ddot would tie the digits to the thread count
    return math.pi / math.sqrt(q) * float(np.einsum("i,i->", chi[1:], terms))


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
    h = class_number(discriminant(n))
    return 24 * h if n % 8 == 3 else 12 * h


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
    return _majorant(n, m, factorize(arg))


def _majorant(n: int, m: int, factors) -> int:
    # majorant_general from the factors of arg.  For odd p the character
    # chi_d(p) of d = -n or d = -4n is (-n | p), as 4 is a square mod p,
    # taken by Euler's criterion, exact on Python ints of any size.
    out = 1
    for p, k in factors:
        if p == 2:
            continue
        if m % p == 0:
            out *= k + 1
        elif n % p != 0:
            chi = 1 if pow(-n % p, (p - 1) // 2, p) == 1 else -1
            out *= int(_character_sum(chi, k))
        elif k >= 2:
            out *= 2
    return out


def _check_pair_prime(n: int, t: int, p: int) -> None:
    if p == 2:
        raise DomainError("the 2-adic factor is a 0/1 constant, not computed here")
    if p < 3 or not is_prime(p):
        raise DomainError(f"p = {p} must be an odd prime")
    _check_pair_shell(n, t)


def _character_sum(c, k):
    """sum_{j<=k} c^j for character values c in {-1, 0, 1}; elementwise."""
    return np.where(c == 1, k + 1, np.where((c == 0) | (k % 2 == 0), 1, 0))


def _local_factors(n, t, p, a_minus, a_plus):
    """Local density and squarefree-majorant factor at odd primes, elementwise.

    Takes n, t with |t| < n < 2^62, an odd prime p, A = ord_p(n - t) and
    B = ord_p(n + t), as int64 arrays.
    Over the p-adic integers n u^2 + 2t uv + n v^2 is equivalent to
    e1 p^a1 u^2 + e2 p^a2 v^2 with units e1, e2, a1 = min(A, B) and
    a2 = max(A, B): n and t are half the sum and half the difference of
    n + t and n - t, so min(ord_p n, ord_p t) = min(A, B).  When
    ord_p(n) <= ord_p(t), completing the square gives the diagonal entries
    n and (n^2 - t^2)/n; otherwise u = U+V, v = U-V gives 2(n + t) and
    2(n - t).  The density dispatches on the parities of (a1, a2).  With s
    the relevant quadratic character:

    - a1 odd: the rational closed form p^k (1 - p^(-k-1)) / (1 - 1/p),
      k = (a1 - 1)/2, is (p^(k+1) - 1)/(p - 1) = sum_{j<=k} p^j, and the
      density is that sum times (1 + s);
    - a1 even: the head p^(h-1) (1 - p^(-h)) / (1 - 1/p), h = a1/2, is
      sum_{j<h} p^j (0 for a1 = 0), and the density is head (1 + s) or
      2 head, as a2 is odd or even, plus p^h sum_{k<=a2-a1} s^k.

    s is (-e1 | p) for a1 even, (-e1 e2 | p) for a1, a2 odd and (-e2 | p)
    for a1 odd, a2 even.  Up to squares these are -u_n, -u_- u_+ and
    -u_- u_+ u_n, where u_n, u_- and u_+ are n / p^a1, (n - t) / p^A and
    (n + t) / p^B, so s is a product of their symbols and (-1 | p), with
    no product of residues formed.  When ord_p n exceeds a1 (p | u_n,
    the u = U+V branch) A = B, so a1 = a2, and s drops out of the even
    case.  For p not dividing n this is a1 = 0 and s = (-n | p), so the
    density is the character sum of the squarefree majorant; for p | n
    the majorant takes 1 or 2 as ord_p(n^2 - t^2) is 1 or more.
    """
    a1 = np.minimum(a_minus, a_plus)
    a2 = np.maximum(a_minus, a_plus)
    odd1, odd2 = a1 % 2 == 1, a2 % 2 == 1
    units = (p - 1, n // p**a1, (n - t) // p**a_minus, (n + t) // p**a_plus)  # p - 1 = -1 mod p
    neg, s_n, s_minus, s_plus = _jacobi(np.stack(units), p)
    s = neg * np.where(odd1 & odd2, 1, s_n) * np.where(odd1, s_minus * s_plus, 1)
    h = a1 // 2
    head = (p**h - 1) // (p - 1)
    density = np.where(
        odd1,
        (p ** (h + 1) - 1) // (p - 1) * (1 + s),
        head * np.where(odd2, 1 + s, 2) + p**h * _character_sum(s, a2 - a1),
    )
    majorant = np.where(n % p != 0, density, np.where(a_minus + a_plus >= 2, 2, 1))
    return density, majorant


def _odd_prime_entries(n: int, t: int):
    """int64 arrays (p, ord_p(n - t), ord_p(n + t)) over the odd primes
    of n^2 - t^2, from `factorize` of n - t and n + t."""
    ords: dict[int, list[int]] = {}
    for side, m in enumerate((n - t, n + t)):
        for p, k in factorize(m):
            if p != 2:
                ords.setdefault(p, [0, 0])[side] = k
    rows = [(p, a, b) for p, (a, b) in ords.items()]
    return tuple(np.array(col, dtype=np.int64) for col in zip(*rows)) if rows else None


MAX_PAIR_SHELL = 1 << 62  # below it n + t < 2n stays in int64


def _check_pair_shell(n: int, t: int) -> None:
    if n >= MAX_PAIR_SHELL:
        raise DomainError(f"n = {n} is not below 2^62, past which n + t leaves int64")
    if abs(t) >= n:
        raise DomainError("|t| < n required")


def local_density(n: int, t: int, p: int) -> int:
    """p-adic density of the pair-count form at an odd prime p.

    Primes not dividing n^2 - t^2 have density 1; every case is an
    integer (see `_local_factors`).  n >= 2^62 is refused.
    """
    _check_pair_prime(n, t, p)
    prime = np.array([p], dtype=np.int64)
    ords = [_valuation(np.array([m], dtype=np.int64), prime) for m in (n - t, n + t)]
    return int(_local_factors(n, t, prime, *ords)[0][0])


def pair_count_formula(n: int, t: int) -> int:
    """24 times the product of odd-prime local densities.

    The exact ordered-pair count at inner product t equals either this
    value or 0; the missing 2-adic factor is always 0 or 1, so membership
    in {0, pair_count_formula(n, t)} is the testable statement.  A
    one-row view of the densities of `pair_count_formula_table`, with the
    primes from `factorize` rather than the sieve; n >= 2^62 is refused
    before anything is factored.
    """
    _check_pair_shell(n, t)
    entries = _odd_prime_entries(n, t)
    if entries is None:
        return 24
    return 24 * math.prod(_local_factors(n, t, *entries)[0].tolist())


_TABLE_CELLS = 1 << 20
_LEGENDRE_CELLS = 1 << 16  # cells per block of the large-prime characters


@dataclass(frozen=True)
class PairFormulaTable:
    """pair_count_formula(n, t) and the squarefree majorant's value at
    n^2 - t^2 for every |t| < n of each shell, rows shell by shell with
    t ascending."""

    n: np.ndarray
    t: np.ndarray
    formula: np.ndarray
    majorant: np.ndarray


def pair_count_formula_table(shells) -> PairFormulaTable:
    """The pair-count formula and majorant over whole shells, in numpy passes.

    `shells` is one n or a sequence of them; the grid sieve is described
    in the module docstring.  Consecutive shells share a grid while it
    holds at most _TABLE_CELLS cells, so many small shells cost a few
    dozen array operations together.  The majorant column holds the
    squarefree majorant's prime-power values (`majorant_general` with
    m = 1), a bound on pair counts at squarefree n.  A shell fills 2n - 1
    grid cells and as many rows; shells below 1, or a table whose cells
    summed over its shells pass the "formula_cells" budget of
    `errors.BUDGETS`, are refused before anything is built.
    """
    ns = np.atleast_1d(np.asarray(shells, dtype=np.int64))
    if ns.size:
        if ns.min() < 1:
            raise DomainError("shells must be positive")
        cells = 2 * sum(ns.tolist()) - ns.size
        budget("formula_cells", cells, f"pair-count formula table of shells up to n = {ns.max()}")
    lengths = 2 * ns - 1
    formula = np.empty(int(lengths.sum()), dtype=np.int64)
    majorant = np.empty_like(formula)
    lo = 0
    for g in _grid_groups(lengths):
        hi = lo + int(lengths[g].sum())
        _formula_rows(ns[g], formula[lo:hi], majorant[lo:hi])
        lo = hi
    t = _ragged_arange(lengths)
    t -= np.repeat(ns - 1, lengths)
    return PairFormulaTable(np.repeat(ns, lengths), t, formula, majorant)


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    # 0 .. L-1 for each L in lengths, concatenated
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def _grid_groups(lengths: np.ndarray):
    # consecutive runs of shells whose grid stays within _TABLE_CELLS cells;
    # a wider shell gets a grid of its own
    lo, width = 0, 0
    for i, length in enumerate(lengths.tolist()):
        wider = max(width, length)
        if i > lo and (i - lo + 1) * wider > _TABLE_CELLS:
            yield slice(lo, i)
            lo, wider = i, length
        width = wider
    if lo < len(lengths):
        yield slice(lo, len(lengths))


def _formula_rows(ns: np.ndarray, formula: np.ndarray, majorant: np.ndarray) -> None:
    # fill the rows of the shells ns from one grid over m
    width = 2 * int(ns.max()) - 1
    rest = np.arange(1, width + 1, dtype=np.int64)
    rest //= rest & -rest  # odd parts of m
    grid = np.ones((len(ns), width), dtype=np.int64)
    small = _primes.primes_up_to(math.isqrt(width))[1:].astype(np.int64)
    chi = _jacobi(-ns[:, None], small)  # (-n | p), shells by primes
    for j, p in enumerate(small.tolist()):
        k = np.ones(width // p, dtype=np.int64)  # ord_p(m) at m = p, 2p, ...
        step = p
        while step * p <= width:
            k[step - 1 :: step] += 1
            step *= p
        rest[p - 1 :: p] //= p**k
        grid[:, p - 1 :: p] *= _character_sum(chi[:, j : j + 1], k)
    big = np.flatnonzero(rest > 1)
    step = max(1, _LEGENDRE_CELLS // len(ns))
    for lo in range(0, big.size, step):
        cols = big[lo : lo + step]
        grid[:, cols] *= 1 + _jacobi(-ns[:, None], rest[cols])

    lengths = 2 * ns - 1
    starts = np.cumsum(lengths) - lengths
    for g, k, lo in zip(grid, lengths.tolist(), starts.tolist()):
        np.multiply(g[:k], g[k - 1 :: -1], out=majorant[lo : lo + k])
    del grid
    np.multiply(majorant, 24, out=formula)

    # the general density at each odd prime p of n, on the rows t = p i
    shell, pj = np.nonzero(chi == 0)
    big = rest[ns - 1]
    shell = np.concatenate([shell, np.flatnonzero(big > 1)])
    p = np.concatenate([small[pj], big[big > 1]])
    if p.size:
        n = ns[shell]
        half = (n - 1) // p
        count = 2 * half + 1
        entry = np.repeat(np.arange(len(p)), count)
        t = p[entry] * (_ragged_arange(count) - half[entry])
        n, p = n[entry], p[entry]
        row = starts[shell[entry]] + t + n - 1
        density, factor = _local_factors(n, t, p, _valuation(n - t, p), _valuation(n + t, p))
        np.multiply.at(formula, row, density)
        np.multiply.at(majorant, row, factor)


def _valuation(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    # ord_p(x) elementwise for positive x
    k = np.zeros(x.shape, dtype=np.int64)
    hit = x % p == 0
    while hit.any():
        k += hit
        x = np.where(hit, x // p, x)
        hit = x % p == 0
    return k
