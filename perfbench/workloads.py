"""The three workloads: seeded inputs and the job list of one item.

A job is one call of `threesq.cli.main(argv)` or of one public library
function; `job(kind, call, check)` (see worker.py) times `call`, then runs
`check` on its output.  An item is a fixed sequence of jobs on fresh
inputs; a run is a whole number of items, so every run has the same
make-up whatever its seed.

Inputs come only from the workload seed.  Shells are drawn by point
count N, not by n, because the cost of a battery grows as N^2.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference as ref

# Item i of shells and of uniform has POINT_COUNTS[i % 3] points, so every
# run has the same multiset of N whatever its seed.  The band is narrow
# because the slowest and the median job kinds set the percentiles: a
# wide band spreads them by N^2 and makes each percentile an extreme of a
# few items.  Among squarefree n in SHELL_N_RANGE these counts have 243, 80
# and 233 shells, so every item gets a fresh n.
POINT_COUNTS = (2016, 2064, 2112)
SHELL_N_RANGE = (100_000, 120_000)
RIPLEY_C = 3.0  # ripley radius r = RIPLEY_C / sqrt(N): about 2N ordered pairs
ENERGY_S = 1.0
SIGMA = 0.01  # cap area for the count variance
# uniform sums the series at two cap areas.  Its cost does not depend on the
# area, so the two slowest of its nine jobs are one kind of equal cost, and
# the 90th percentile falls in the middle of that kind, not at an edge.
SERIES_SIGMAS = (SIGMA, 0.04)
SAMPLES = 10_000  # Monte Carlo centers per variance job
M_MAX = 16  # series degree: the series layer stays under half of a shell battery
WEYL_DEGREE = 6
CELLS_PER_POINT = 4  # boxes --cells N // 4
# uniform: covering_radius_mesh queries 7.5/res^2 = 469k mesh points, so it
# costs about half a series job and sits between the percentiles
MESH_RESOLUTION = 0.004

Q_RANGE = (1_000_000, 1_050_000)  # arith: |d| of Q(sqrt(-n)), both d = -n and d = -4n
L_TARGET_ERROR = 1e-10
PCF_N_RANGE = (1_000, 3_000)  # shell for pair_count_formula, checked by own pair count
VERIFY_N_MAX = range(50, 66)  # each run uses these in turn, in a seeded order
GAPS_Y = (1_900_000, 2_000_000)
# twosq-probe is the median arith job, and its cost varies threefold from
# one m to the next (6-18 ms at height 14), so a run's median probe would
# depend on which m the seed draws: each run uses these m in a seeded order
PROBE_MS = range(450_000, 460_000, 400)
PROBE_H = 14


class JobFailed(Exception):
    pass


def cli(*argv) -> Callable[[], str]:
    """A job calling `threesq.cli.main`; its output is the captured stdout."""
    args = [str(a) for a in argv]

    def call() -> str:
        from threesq import cli as _cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = _cli.main(args)
        if rc != 0:
            raise JobFailed(f"threesq {' '.join(args)}: exit {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    return call


def _fmt(x: float) -> str:
    return "%.6f" % x


# --- shells -----------------------------------------------------------------


@dataclass
class ShellItem:
    n: int
    N: int
    seed: int

    def reference(self) -> ref.ShellReference:
        return ref.shell_reference(self.n)


def shells_items(rng: np.random.Generator, count: int) -> list[ShellItem]:
    lo, hi = SHELL_N_RANGE
    counts = ref.shell_counts(lo, hi)
    pools = {
        N: [n for n in (np.flatnonzero(counts == N) + lo).tolist() if n % 8 != 7 and ref.is_squarefree(n)]
        for N in POINT_COUNTS
    }
    items = []
    for i in range(count):
        N = POINT_COUNTS[i % len(POINT_COUNTS)]
        n = pools[N].pop(int(rng.integers(len(pools[N]))))
        items.append(ShellItem(n, N, int(rng.integers(1 << 31))))
    return items


def shells_tiny() -> ShellItem:
    return ShellItem(101, len(ref.shell_points(101)), 1)


def run_shell(job, it: ShellItem, shell: ref.ShellReference | None) -> None:
    from threesq import arith

    n, N = it.n, it.N
    rng = np.random.default_rng(it.seed)
    r = _fmt(RIPLEY_C / math.sqrt(N))
    cells = max(2, N // CELLS_PER_POINT)

    def sample_t():
        t, _ = shell.ts()
        inner = t[np.abs(t) < n]
        return sorted(rng.choice(inner, 6, replace=False).tolist()) + rng.integers(-n + 1, n, 2).tolist()

    def nn_summary():
        return ref.spacing_summary((2.0 * n - 2.0 * shell.nn_dot) / n)

    job("enumerate", cli("enumerate", "--n", n), lambda out: checks.enumerate_output(out, shell))
    table = job(
        "pairs",
        cli("pairs", "--n", n),
        lambda out: checks.pairs_output(out, shell, sample_t(), arith.pair_count_formula),
    )
    job(
        "energy",
        cli("energy", "--n", n, "--s", ENERGY_S),
        lambda out: checks.energy_output(out, ref.energy_from_hist(shell, ENERGY_S)),
    )
    job(
        "ripley",
        cli("ripley", "--n", n, "--r", r),
        lambda out: checks.ripley_output(out, n, float(r), table),
    )
    job("spacing", cli("spacing", "--n", n), lambda out: checks.spacing_output(out, *nn_summary()))
    job(
        "covering",
        cli("covering", "--n", n),
        lambda out: checks.covering_output(out, N, ref.covering_bracket(shell.points / math.sqrt(n))),
    )
    job(
        "variance",
        cli("variance", "--n", n, "--sigma", SIGMA, "--samples", SAMPLES, "--seed", it.seed, "--m-max", M_MAX),
        lambda out: checks.variance_output(out, shell, SAMPLES, M_MAX),
    )
    job("boxes", cli("boxes", "--n", n, "--cells", cells), lambda out: checks.boxes_output(out, N, cells))
    job(
        "weyl",
        cli("weyl", "--n", n, "--degree", WEYL_DEGREE),
        lambda out: checks.weyl_output(out, WEYL_DEGREE, shell),
    )


# --- uniform ----------------------------------------------------------------


@dataclass
class UniformItem:
    N: int
    seed: int
    resolution: float = MESH_RESOLUTION

    def reference(self):
        return None


def uniform_items(rng: np.random.Generator, count: int) -> list[UniformItem]:
    return [UniformItem(POINT_COUNTS[i % len(POINT_COUNTS)], int(rng.integers(1 << 31))) for i in range(count)]


def uniform_tiny() -> UniformItem:
    return UniformItem(64, 1, 0.05)


def run_uniform(job, it: UniformItem, _ref=None) -> None:
    from threesq import harmonics, spatial

    N, seed = it.N, it.seed
    cells = max(2, N // CELLS_PER_POINT)
    sample = spatial.binomial_sample(N, seed)  # the program's own seeded sampler makes the input
    U = sample.points
    own: dict = {}

    def bracket():
        if "bracket" not in own:
            own["bracket"] = ref.covering_bracket(U)
        return own["bracket"]

    def baseline(stat, *extra):
        return cli("baseline", "--stat", stat, "--N", N, "--seed", seed, *extra)

    def check_ripley(r):
        def check(out):
            res = checks.baseline_result(out, "ripley", N)
            own = ref.ripley_pairs(U, float(r))
            checks.require(res["k"] == own, f"k = {res['k']}, own kd-tree count {own}")

        return check

    def check_energy(out):
        res = checks.baseline_result(out, "energy", N)
        value, rounding = ref.pair_energy(U, ENERGY_S)
        checks.close(res["value"], value, "energy", abs_tol=rounding)

    def check_spacing(out):
        res = checks.baseline_result(out, "spacing", N)
        mean, ks = ref.spacing_summary(ref.nn_sq_distances(U))
        checks.close(res["mean"], mean, "mean rescaled spacing")
        checks.close(res["ks_distance"], ks, "KS distance", abs_tol=1e-9)

    def check_covering(out):
        res = checks.baseline_result(out, "covering", N)
        checks.covering_value(res["value"], N, bracket())
        return res["value"]

    def check_variance(out):
        res = checks.baseline_result(out, "variance", N)
        checks.mc_mean(res["mean"], N * res["sigma"], res["variance"], SAMPLES)
        near = ref.close_pairs_dots(U, 2.0 * math.sin(ref.cap_angle(res["sigma"])))
        dots = np.concatenate([near, [1.0]])  # unordered close pairs, then the diagonal
        counts = np.concatenate([np.full(len(near), 2.0), [float(N)]])
        checks.mc_variance(res["variance"], res["stderr"], ref.exact_cap_variance(res["sigma"], dots, counts, N))
        return res

    def check_boxes(out):
        res = checks.baseline_result(out, "boxes", N)
        checks.box_sums(res["sum_counts"], res["sum_squares"], N, cells)

    def check_series(spec):
        def check(res):
            if "sums" not in own:
                own["sums"] = ref.legendre_sums_harmonics(U, M_MAX)
            checks.series_value(res.value, res.tail_estimate, ref.truncated_series(spec.area, own["sums"]))

        return check

    def check_mesh(value):
        checks.require(hull is not None, "no hull covering radius to compare with")
        checks.require(
            hull - it.resolution - 1e-12 <= value <= hull + 1e-12,
            f"mesh estimate {value} not within {it.resolution} below the hull value {hull}",
        )
        checks.require(value <= bracket()[1] + 1e-12, f"mesh estimate {value} above the grid bracket")

    r = _fmt(RIPLEY_C / math.sqrt(N))
    job("baseline-ripley", baseline("ripley", "--r", r), check_ripley(r))
    job("baseline-energy", baseline("energy", "--s", ENERGY_S), check_energy)
    job("baseline-spacing", baseline("spacing"), check_spacing)
    hull = job("baseline-covering", baseline("covering"), check_covering)
    job("baseline-variance", baseline("variance", "--sigma", SIGMA, "--samples", SAMPLES), check_variance)
    job("baseline-boxes", baseline("boxes", "--cells", cells), check_boxes)
    for sigma in SERIES_SIGMAS:
        spec = spatial.AnnulusSpec.cap_of_area(sigma)
        job("variance_series", lambda: harmonics.variance_series(None, spec, M_MAX, points=sample), check_series(spec))
    job("covering_radius_mesh", lambda: spatial.covering_radius_mesh(sample, it.resolution), check_mesh)


# --- arith ------------------------------------------------------------------


@dataclass
class ArithItem:
    n: int  # squarefree, for the L-value, class number and Gauss count
    pcf_n: int  # small shell for pair_count_formula
    pcf_t: int
    n_max: int
    y: int
    m: int
    h: int

    def reference(self) -> int:
        """The own count of points on the shell n."""
        return len(ref.shell_points(self.n))


def _squarefree_in(rng, lo: int, hi: int, ok) -> int:
    while True:
        n = int(rng.integers(lo, hi))
        if ok(n) and ref.is_squarefree(n):
            return n


def arith_items(rng: np.random.Generator, count: int) -> list[ArithItem]:
    items = []
    n_maxes = rng.permutation([VERIFY_N_MAX[i % len(VERIFY_N_MAX)] for i in range(count)]).tolist()
    probe_ms = rng.permutation([PROBE_MS[i % len(PROBE_MS)] for i in range(count)]).tolist()
    for i in range(count):
        # alternate d = -n (n = 3 mod 8) and d = -4n (n = 1, 2 mod 4) so the
        # mix is fixed and |d| stays in Q_RANGE either way
        if i % 2 == 0:
            n = _squarefree_in(rng, *Q_RANGE, lambda v: v % 8 == 3)
        else:
            n = _squarefree_in(rng, Q_RANGE[0] // 4, Q_RANGE[1] // 4, lambda v: v % 4 in (1, 2))
        pcf_n = _squarefree_in(rng, *PCF_N_RANGE, lambda v: v % 8 != 7)
        P = ref.shell_points(pcf_n)
        dots = P[int(rng.integers(len(P)))] @ P.T
        dots = dots[np.abs(dots) < pcf_n]
        items.append(
            ArithItem(
                n=n,
                pcf_n=pcf_n,
                pcf_t=int(rng.choice(dots)),
                n_max=n_maxes[i],
                y=int(rng.integers(*GAPS_Y)),
                m=probe_ms[i],
                h=PROBE_H,
            )
        )
    # ascending q: the SPF table is built at the smallest q and doubled once
    # at the next item in every run, so peak RSS does not depend on the order
    return sorted(items, key=lambda it: ref.fundamental_q(it.n))


def arith_tiny() -> ArithItem:
    return ArithItem(n=101, pcf_n=101, pcf_t=10, n_max=10, y=100, m=50, h=4)


def run_arith(job, it: ArithItem, count: int | None) -> None:
    from threesq import arith

    n = it.n
    d = -ref.fundamental_q(n)

    def own_pairs():
        P = ref.shell_points(it.pcf_n)
        return int(((P @ P.T) == it.pcf_t).sum())

    l_one = job(
        "dirichlet_l_one",
        lambda: arith.dirichlet_l_one(n, L_TARGET_ERROR),
        lambda v: checks.l_value(v, n, count),
    )
    job("class_number", lambda: arith.class_number(d), lambda h: checks.class_number_value(h, n, count, l_one))
    job("gauss_count", lambda: arith.gauss_count(n), lambda g: checks.gauss_count_value(g, count))
    job(
        "pair_count_formula",
        lambda: arith.pair_count_formula(it.pcf_n, it.pcf_t),
        lambda v: checks.pair_count_value(v, own_pairs()),
    )
    job(
        "verify-arith",
        cli("verify-arith", "--n-max", it.n_max),
        lambda out: checks.verify_arith_output(out, it.n_max),
    )
    job("twosq-gaps", cli("twosq-gaps", "--y-list", it.y), lambda out: checks.twosq_gaps_output(out, [it.y]))
    job("twosq-probe", cli("twosq-probe", "--m", it.m, "--h", it.h), lambda out: checks.twosq_probe_output(out, it.m))


@dataclass(frozen=True)
class Workload:
    make_items: Callable
    tiny: Callable
    run_item: Callable
    jobs_per_item: int
    item_seconds: float  # nominal cost of one item, sets items per run from --seconds


WORKLOADS = {
    "shells": Workload(shells_items, shells_tiny, run_shell, 9, 0.9),
    "uniform": Workload(uniform_items, uniform_tiny, run_uniform, 9, 1.5),
    "arith": Workload(arith_items, arith_tiny, run_arith, 7, 0.86),
}
