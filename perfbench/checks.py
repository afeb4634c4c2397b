"""Correctness checks for every job of the benchmark.

Each check takes a job's output and data computed apart from the program
(see reference.py), or a property the method must have, and raises
CheckFailed on the first disagreement.  Checks never compare against
saved output.  Several return the parsed output for later checks of the
same item (the pair table feeds the Ripley and Weyl checks).
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np

import reference as ref

REL = 1e-9  # float paths summed in another order agree far below this
# Monte Carlo allowances, in standard errors.  Ten runs of shells and
# uniform check 370 variance jobs: at 3 standard errors about one would fail
# on correct code, at 5 about one in five thousand sets of runs.
MC_SIGMAS = 5.0
MEAN_SIGMAS = 6.0


class CheckFailed(Exception):
    pass


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def close(a: float, b: float, what: str, rel: float = REL, abs_tol: float = 0.0) -> None:
    require(
        abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol,
        f"{what}: {a!r} vs reference {b!r}",
    )


def _csv_rows(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    require(lines[0].startswith("# config: "), "missing config comment")
    require(lines[1] == header, f"header {lines[1]!r} != {header!r}")
    body = [ln for ln in lines[2:] if not ln.startswith("#")]
    return np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2)


# --- shells -----------------------------------------------------------------


def enumerate_output(text: str, shell: ref.ShellReference) -> None:
    header, _, body = text.partition("\n")
    require(header == f"# n={shell.n} N={shell.size}", f"header {header!r}, own count {shell.size}")
    pts = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2)
    require(pts.shape == shell.points.shape, f"{len(pts)} points listed, own count {shell.size}")
    require(bool(np.all((pts * pts).sum(axis=1) == shell.n)), "a listed point is off the shell")
    require(bool(np.array_equal(pts, shell.points)), "point list differs from the own enumeration")


def pairs_output(text: str, shell: ref.ShellReference, sample_t, formula) -> tuple[np.ndarray, np.ndarray]:
    rows = _csv_rows(text, "t,count").astype(np.int64)
    t, c = rows[:, 0], rows[:, 1]
    N = shell.size
    require(int(c.sum()) == N * N, f"counts sum to {int(c.sum())}, not N^2 = {N * N}")
    require(bool(np.array_equal(t, -t[::-1]) and np.array_equal(c, c[::-1])), "table not symmetric in t")
    own_t, own_c = shell.ts()
    require(bool(np.array_equal(t, own_t) and np.array_equal(c, own_c)), "table differs from the own Gram histogram")
    counts = dict(zip(t.tolist(), c.tolist()))
    for s in sample_t:
        a = counts.get(s, 0)
        f = formula(shell.n, s)
        require(a in (0, f), f"count {a} at t={s} is neither 0 nor the formula value {f}")
    return t, c


def energy_output(text: str, expected: float) -> None:
    close(json.loads(text)["value"], expected, "energy")


def ripley_output(text: str, n: int, r: float, table) -> None:
    require(table is not None, "no pair table to compare with")
    out = json.loads(text)
    require(out["r"] == r, f"r echoed as {out['r']!r}")
    t, c = table
    # chord^2 = 2(n - t)/n < r^2, compared as exact rationals
    lim = Fraction(r) ** 2 * n
    d2 = 2 * (n - t)
    expected = int(c[(d2 > 0) & (d2 <= (lim.numerator - 1) // lim.denominator)].sum())
    require(out["k"] == expected, f"k = {out['k']}, inner-product band sum {expected}")


def spacing_output(text: str, mean: float, ks: float) -> None:
    out = json.loads(text)
    close(out["mean"], mean, "mean rescaled spacing")
    close(out["ks_distance"], ks, "KS distance", abs_tol=1e-9)


def covering_value(value: float, N: int, bracket: tuple[float, float]) -> None:
    lo, hi = bracket
    require(value >= 2.0 / math.sqrt(N) - 1e-12, f"covering radius {value} below 2/sqrt(N)")
    require(lo - 1e-12 <= value <= hi + 1e-12, f"covering radius {value} outside the grid bracket [{lo}, {hi}]")


def covering_output(text: str, N: int, bracket) -> None:
    covering_value(json.loads(text)["value"], N, bracket)


def series_value(value: float, tail: float, own: float) -> None:
    close(value, own, "truncated variance series")
    require(math.isfinite(tail) and tail >= 0.0, f"tail estimate {tail}")


def mc_mean(mean: float, expected: float, variance: float, samples: int) -> None:
    require(
        abs(mean - expected) <= MEAN_SIGMAS * math.sqrt(variance / samples),
        f"mean cap count {mean} far from N * area = {expected}",
    )


def mc_variance(variance: float, stderr: float, exact: float) -> None:
    require(
        abs(variance - exact) <= MC_SIGMAS * stderr,
        f"|MC variance {variance} - exact {exact}| > {MC_SIGMAS} * stderr {stderr}",
    )


def variance_output(text: str, shell: ref.ShellReference, samples: int, m_max: int) -> None:
    out = json.loads(text)
    sigma, N = out["sigma"], shell.size
    mc_mean(out["mc_mean"], N * sigma, out["mc_variance"], samples)
    own = ref.truncated_series(sigma, ref.legendre_sums_hist(shell, m_max))
    series_value(out["series_value"], out["series_tail_estimate"], own)
    t, c = shell.ts()
    mc_variance(out["mc_variance"], out["mc_stderr"], ref.exact_cap_variance(sigma, t / shell.n, c, N))


def box_sums(sum_counts: int, sum_squares: int, N: int, cells: int) -> None:
    require(sum_counts == N, f"sum_counts {sum_counts} != N = {N}")
    require(N * N <= cells * sum_squares and sum_squares <= N * N, "sum_squares outside [N^2/K, N^2]")
    require(sum_squares % 2 == N % 2, "sum of squared counts has the wrong parity")


def boxes_output(text: str, N: int, cells: int) -> None:
    out = json.loads(text)
    box_sums(out["sum_counts"], out["sum_squares"], N, cells)


def weyl_output(text: str, degree: int, shell: ref.ShellReference) -> None:
    lines = text.splitlines()
    require(lines[-1].startswith("# aggregate,"), "missing aggregate line")
    aggregate = float(lines[-1].split(",")[1])
    values = _csv_rows("\n".join(lines[:-1]), "j,value")[:, 1]
    require(len(values) == 2 * degree + 1, f"{len(values)} harmonic sums for degree {degree}")
    close(aggregate, float(np.dot(values, values)), "aggregate vs sum of squares", rel=1e-12)
    scale = (2 * degree + 1) / (4.0 * math.pi)
    expected = scale * ref.legendre_sum(shell, degree)
    close(aggregate, expected, "addition theorem", abs_tol=1e-12 * scale * shell.size**2)


# --- uniform ----------------------------------------------------------------


def baseline_result(text: str, stat: str, N: int) -> dict:
    out = json.loads(text)
    require(out["stat"] == stat and out["N"] == N, "baseline echoes the wrong stat or N")
    return out["result"]


# --- arith ------------------------------------------------------------------


def l_value(value: float, n: int, count: int) -> float:
    close(value, count * math.pi / (24.0 * math.sqrt(n)), "L(1, chi) vs N pi / (24 sqrt n)")
    return value


def class_number_value(h: int, n: int, count: int, l_one: float | None) -> None:
    factor = 24 if n % 8 == 3 else 12
    require(factor * h == count, f"{factor} h = {factor * h}, own point count {count}")
    require(l_one is not None, "no L-value to compare with")
    q = ref.fundamental_q(n)
    close(l_one, 2.0 * math.pi * h / (ref.units(q) * math.sqrt(q)), "L(1, chi) vs 2 pi h / (w sqrt q)")


def gauss_count_value(g: int, count: int) -> None:
    require(g == count, f"gauss_count {g}, own point count {count}")


def pair_count_value(value: int, own: int) -> None:
    require(own in (0, value), f"own pair count {own} is neither 0 nor the formula value {value}")


def verify_arith_output(text: str, n_max: int) -> None:
    out = json.loads(text)
    shells = [n for n in range(1, n_max + 1) if n % 8 != 7 and ref.is_squarefree(n)]
    require(out["mismatches"] == 0, f"{out['mismatches']} formula mismatches")
    require(out["bound_violations"] == 0, f"{out['bound_violations']} majorant violations")
    require(out["shells_checked"] == len(shells), f"{out['shells_checked']} shells, own count {len(shells)}")
    pairs = sum(2 * n - 1 for n in shells)
    require(out["pairs_checked"] == pairs, f"{out['pairs_checked']} pairs, own count {pairs}")


def twosq_gaps_output(text: str, ys: list[int]) -> None:
    rows = _csv_rows(text, "Y,G,ratio")
    require([int(y) for y in rows[:, 0]] == ys, "rows do not follow --y-list")
    for y, g, ratio in rows.tolist():
        own = ref.largest_gap(int(y))
        require(int(g) == own, f"G({int(y)}) = {int(g)}, own marking gives {own}")
        close(ratio, own / int(y) ** 0.25, "G / Y^(1/4)", rel=1e-12)


def twosq_probe_output(text: str, m: int) -> None:
    out = json.loads(text)
    own = ref.distance_to_two_squares(2 * m)
    require(out["exact_distance"] == own, f"exact distance {out['exact_distance']}, own scan {own}")
    require(out["pole_in_sequence"] == (own == 0), "pole_in_sequence disagrees with the own scan")
    cert = out["certified_distance"]
    require(cert is None or cert >= own, f"certified distance {cert} below the exact {own}")
