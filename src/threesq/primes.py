"""Cached prime sieve and smallest-prime-factor table, grown on demand.

The table is int32 and never grows past the "prime_table" budget of
`errors.BUDGETS`, 2^25 entries (128 MB); a request beyond it raises
DomainError before anything is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BUDGETS, budget

_spf: np.ndarray | None = None
_primes: np.ndarray | None = None
_limit = 0

_MIN_LIMIT = 1 << 16


def _build(limit: int) -> None:
    global _spf, _primes, _limit
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.arange(limit + 1, dtype=np.int32)
    unset = spf == 0
    spf[unset] = idx[unset]
    _spf = spf
    _primes = idx[(spf == idx) & (idx >= 2)]
    _limit = limit


def ensure(limit: int) -> None:
    """Make sure the cached tables cover [0, limit]; refuse a limit past
    the "prime_table" budget."""
    if limit <= _limit and _spf is not None:
        return
    budget("prime_table", limit, f"prime table through {limit}")
    _build(min(max(limit, 2 * _limit, _MIN_LIMIT), BUDGETS["prime_table"].limit))


def spf_limit() -> int:
    ensure(_MIN_LIMIT)
    return _limit


def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table valid through `limit` (may be longer)."""
    ensure(limit)
    return _spf


def primes_up_to(limit: int) -> np.ndarray:
    ensure(limit)
    cut = np.searchsorted(_primes, limit, side="right")
    return _primes[:cut]
