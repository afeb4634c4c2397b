import numpy as np
import pytest

from threesq import primes
from threesq.errors import BUDGETS, DomainError


def test_spf_table_is_int32_and_correct():
    spf = primes.spf_table(1000)
    assert spf.dtype == np.int32
    for n in range(2, 1001):
        p = int(spf[n])
        assert n % p == 0
        assert all(p % d for d in range(2, p))
        assert all(n % d for d in range(2, p))


def test_ensure_refuses_beyond_cap_without_building():
    before = primes.spf_limit()
    with pytest.raises(DomainError):
        primes.ensure(BUDGETS["prime_table"].limit + 1)
    with pytest.raises(DomainError):
        primes.primes_up_to(10**12)
    assert primes.spf_limit() == before


def test_growth_is_clamped_to_cap(monkeypatch):
    limit = primes.spf_limit()
    monkeypatch.setitem(BUDGETS, "prime_table", BUDGETS["prime_table"]._replace(limit=limit + 10))
    primes.ensure(limit + 1)  # doubling would ask for 2 * limit
    assert primes.spf_limit() == limit + 10
    assert len(primes.spf_table(limit + 10)) == limit + 11


def test_primes_up_to_below_two_before_any_sieve(monkeypatch):
    # a process whose first request is below 2 still gets a table
    monkeypatch.setattr(primes, "_spf", None)
    monkeypatch.setattr(primes, "_primes", None)
    monkeypatch.setattr(primes, "_limit", 0)
    assert primes.primes_up_to(0).size == 0
    assert primes.primes_up_to(1).size == 0
    assert primes.spf_limit() > 0
