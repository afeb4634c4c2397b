#!/usr/bin/env python3
"""Covering radius and equal-area cell occupancy.

The covering radius comes from convex-hull facet planes: for a whole
shell, the hull over one symmetry sector, its winning plane evaluated on
the integer points (exact up to the last rounding).  It is checked
against a certified interval [lo, hi] from a branch and bound over
cube-sphere cells, and scales like a negative power of N.  Cell
occupancy second moments stay near the n^(1/2) mark expected when no
cell hoards points.
"""

import math

from threesq import spatial

print("covering radius of projected shells (times N^(1/4) and N^(1/2)):")
for n in (101, 1009, 10009, 100_003, 1_000_003):
    pts = spatial.unit_shell(n)
    m = spatial.covering_radius(pts)
    print(f"  n = {n:>7}: N = {pts.size:>5}  M = {m:.4f}  "
          f"M N^0.25 = {m * pts.size ** 0.25:.3f}  M N^0.5 = {m * pts.size ** 0.5:.2f}")

print("\nhull value against the certified interval, resolution 2e-3:")
for n in (1009, 100_003):
    pts = spatial.unit_shell(n)
    exact = spatial.covering_radius(pts)
    lo, hi = spatial.covering_interval(pts, resolution=2e-3)
    flag = "" if lo - 1e-12 <= exact <= hi + 1e-12 else "  MISMATCH"
    print(f"  n = {n:>7}: hull {exact:.6f} in [{lo:.6f}, {hi:.6f}]{flag}")

print("\nequal-area cell second moments, K = ceil(sqrt(n)) cells:")
for n in (10_009, 100_003, 1_000_003):
    pts = spatial.unit_shell(n)
    K = math.isqrt(n) + 1
    sum_counts, sum_squares = spatial.box_moment(pts, K)
    print(f"  n = {n:>7}: K = {K:>4}  sum = {sum_counts:>5}  "
          f"sum of squares = {sum_squares:>6}  / sqrt(n) = {sum_squares / math.sqrt(n):.2f}")
