#!/usr/bin/env python3
"""Pair counts by brute force and by local densities.

The number of ordered pairs (x, y) on a shell with inner product t is
24 * alpha_2 * product of odd-prime local densities, with alpha_2 always
0 or 1.  Counting directly over E(n) x E(n) confirms the product formula
shell by shell.
"""

from threesq import arith, lattice

n = 30
print(f"n = {n}, N = {lattice.enumerate_points(n).size}")
print(" t   direct   24*prod(alpha_p)   2-adic factor")
for t in range(0, n, 3):
    direct = lattice.pair_count(n, t)
    formula = arith.pair_count_formula(n, t)
    alpha2 = 0 if direct == 0 else direct // formula
    print(f"{t:>3}  {direct:>6}   {formula:>10}           {alpha2}")

print()
print("exhaustive check over |t| < n:",
      all(lattice.pair_count(n, t) in (0, arith.pair_count_formula(n, t))
          for t in range(-(n - 1), n)))

print()
print("multiplicative majorant (squarefree n): count <= 24 f(n^2 - t^2)")
ratios = []
for t in range(-(n - 1), n):
    bound = 24 * arith.majorant_squarefree(n, n * n - t * t)
    count = lattice.pair_count(n, t)
    if bound == 0:
        assert count == 0  # a vanishing majorant forces a vanishing count
    else:
        ratios.append(count / bound)
print(f"largest count/bound ratio at n = {n}: {max(ratios):.3f}")
