"""Exception types shared across the package, and the work budgets.

DomainError marks inputs outside an operation's domain (CLI exit code 2),
InvariantError marks a violated internal consistency check (exit code 3).

Every input whose cost in work or memory can be predicted before any of
it starts is checked against one entry of BUDGETS by `budget`, which
refuses it with a DomainError of one shape.  Bounds that protect
exactness or a numeric range (2^50 shells, 2^31 pole radii, 2^62 pair
shells, degree 2000 of the harmonic sums) are not budgets: their
messages give that reason instead.
"""

from typing import NamedTuple


class DomainError(ValueError):
    pass


class InvariantError(RuntimeError):
    pass


class DuplicatePointError(DomainError):
    """Two points of a set coincide where a statistic needs them distinct."""

    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"duplicate points at indices {i} and {j}")


class Budget(NamedTuple):
    limit: int
    unit: str


BUDGETS: dict[str, Budget] = {
    # Gram products one tile plan of spatial may take, predicted by its
    # z-band plan as the sum of rows x columns over the tiles (riesz_energy
    # plans the whole upper triangle, ripley_k the band within r; on a
    # symmetric set both plan one row per orbit against every point, and a
    # Monte Carlo chunk of centers stays near 2^22).  Float sets on a
    # 2-vCPU Xeon, OpenBLAS at 1 thread: the s = 1 energy takes 3.37 ns per
    # product at N = 8 192 and 3.22 at 32 768, Ripley at r = 2 1.42 and
    # 1.10; so the limit is about 15 s of energies and 5-6 s of Ripley
    # counts.  The energy of the shell n = 1e10+19 (about 2e4 orbits x
    # 9.6e5 points, 1.9e10 products) is refused, after its ~11 s
    # enumeration; n = 1e9+3 (1.6e8) is admitted
    "pair_products": Budget(4_500_000_000, "Gram products"),
    # points one binomial sample may hold: room for a same-size baseline of
    # the largest stretch shell, n = 1e10+19 with N = 955 416
    "sample_points": Budget(1 << 20, "points"),
    # center-point dot products one Monte Carlo count may take, predicted
    # as samples x max(N, floor), the floor being the count's cost per
    # center in products: spatial.number_variance takes 1.0-1.35 ns a
    # product at its dense worst (N = 2064, rho2 = 2; 1.0-1.4 s) and
    # 0.36-0.44 us a center at N = 24 on 64 x 24 tiles (its floor, 256
    # products; 1.4-1.7 s), harmonics.cap_discrepancy_estimate 10 ns a
    # product and 10 us a center (10 s).  2-vCPU Xeon, OpenBLAS 1 thread
    "center_products": Budget(1_000_000_000, "dot products"),
    # cells one equal-area partition may hold: four per point of the
    # largest stretch shell (N = 955 416), about 60 ms and 50 MB
    "partition_cells": Budget(1 << 22, "cells"),
    # cube-sphere cells one level of spatial.covering_interval may query
    "cover_cells": Budget(1 << 20, "cells"),
    # Gram products one lattice.pair_table may take, predicted as N^2/48.
    # n = 1e8+3 (3.5e7 products) builds in 0.95 s and peaks at 782 MB;
    # n = 1e9+3 (1.6e8) would take 16 s and 2.3 GB, on a 2-vCPU AMD EPYC.
    "gram_products": Budget(5 * 10**7, "Gram products"),
    # values of a one near-pole scan may test (lattice._pole_candidates):
    # about 10 s at 1.1-1.5 ns per candidate on a 2-vCPU AMD EPYC
    "pole_candidates": Budget(6 * 10**9, "candidates"),
    # |d| of arith.class_number.  At |d| = 1e14 the count sieves 5.8e6
    # entries and takes 1.6 s, its process peaking at 150 MB (0.04 s at
    # 4e10).
    "class_number_disc": Budget(10**14, "|d|"),
    # rows of one arith.pair_count_formula_table, the sum of 2n - 1 over its
    # shells: at one shell of n = 2^22 the table's four int64 columns take
    # 0.27 GB and the call peaks at 0.34 GB (81 MB at n = 1e6 + 3, in
    # 0.25 s).  The bound is memory: the characters are exact for any
    # int64, and powers p^k of the sieve stay below 2n.
    "formula_cells": Budget((1 << 23) - 1, "grid cells"),
    # sum of Y over one twosquares.gap_scan: Y = 4e9 alone sieves in about
    # 10 s on a 2-vCPU AMD EPYC (2.4 ns per integer).  On a 2-vCPU Xeon a
    # scan takes 2.7 ns per integer at Y = 1e8, 3.9 at 1e9 and 5.2 at 4e9
    # (21 s), the loop over the bad primes growing with sqrt(Y)
    "gap_scan": Budget(4 * 10**9, "integers"),
    # the members of a window [Y, 2Y) as int64 (twosquares.window): at most
    # 8 Y bytes
    "window_bytes": Budget(1 << 28, "bytes"),
    # integers the int32 smallest-prime-factor table of primes may cover
    # (128 MB)
    "prime_table": Budget(1 << 25, "integers"),
    # order terms of one harmonic-sum recurrence, rows x (M + 1)(M + 2)/2
    # at degree M: harmonics._harmonic_sums (rows are the points, or the
    # z-axis orbits of a whole shell) and harmonics.weyl_sums (every
    # point).  2-vCPU Xeon, OpenBLAS 1 thread: the sums take 5.5-7.3 ns a
    # term on hundreds of rows or more (0.23 s for the 1 913 orbits of
    # n = 1e7+19 at M = 200) and 10.8 ns on 128 rows at M = 2000, the
    # real basis of weyl_sums 1.6-1.8 ns (2.4-2.7 s on 6 096 points at
    # degree 700); so the limit is about 10 s of sums, and it admits
    # n = 1e10+19 at M = 200 (1.21e9 terms)
    "harmonic_terms": Budget(1_500_000_000, "order terms"),
    # verify-arith's predicted work, in (n, t) rows and Gram products: the
    # formula table has at most sum_{n <= X} (2n - 1) = X^2 rows at
    # n_max = X, and the pair tables take about sum_{n <= X} r3(n)^2 / 48
    # = 103/160 X^2 orbit-reduced Gram products (sum_{n <= X} r3(n)^2 ~
    # 30.9 X^2).  The budget admits n_max up to 2063: at 2000 the command
    # takes 0.6 s and peaks at 0.16 GB (AMD EPYC, one thread).
    "verify_arith": Budget(7_000_000, "rows and Gram products"),
}


def budget(name: str, predicted: int, what: str) -> None:
    """Refuse `what`, predicted to take `predicted` units, past the budget `name`."""
    limit, unit = BUDGETS[name]
    if predicted > limit:
        raise DomainError(f"{what} needs {predicted} {unit}, over the budget of {limit} {unit}")
