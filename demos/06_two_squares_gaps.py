#!/usr/bin/env python3
"""Gaps between sums of two squares, and the near-pole probe.

G(Y) is the largest gap inside [Y, 2Y); the normalized ratio
G(Y)/Y^(1/4) stays bounded at every scale we can reach.  Lattice points
near the pole of the sphere of radius m turn into gap certificates:
x1^2 + x2^2 = (m - x3)(m + x3), and when m + x3 is a sum of two squares,
2m sits within m - x3 of the sequence.
"""

from threesq import twosquares

print("Y, largest gap G(Y), G(Y)/Y^(1/4):")
for y, g, ratio in twosquares.gap_scan([10**k for k in range(2, 8)]):
    print(f"  {y:>10,}  {g:>3}  {ratio:.3f}")

print("\nnear-pole probes (height 12, capped below 2m):")
print("  m      best x3   certified dist   exact dist")
for m in (5, 101, 1009, 99_991):
    res = twosquares.gap_probe(m, min(2 * m - 1, 12))
    best = "-" if res.best_x3 is None else res.best_x3
    cert = "-" if res.certified_distance is None else res.certified_distance
    print(f"  {m:>6}  {best:>8}   {cert:>9}        {res.distance:>5}")
