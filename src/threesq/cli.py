"""Command-line surface: reproducible experiments with frozen schemas.

Outputs are byte-deterministic for a fixed argument vector: JSON field
order is frozen in schema.json (shipped with the package, read by the
tests), floats are printed with 17 significant digits, and every
randomized command requires an explicit --seed which is echoed into the
output.  Exit codes: 0 success, 2 domain error, 3 internal invariant
violation.

This module alone formats JSON, CSV and the point list; the library
modules return numbers and arrays.  A handler returns a dict (printed as
canonical JSON) or finished text, every CSV goes through `_csv`, and each
config echo is read off the parsed arguments.  Each subcommand is declared
once, in `build_parser`, which attaches its handler to its parser, and
`main` calls the handler that the parsed arguments carry.  Every JSON
shell command is one field builder in `_FIELDS`, which maps a shell's
points and the arguments to the statistic's fields; the binomial baseline
reads the builders of the statistics it reports alike.

Each statistic declares its own options once, in `_STAT_OPTIONS`: its
shell command and `baseline --stat` take exactly those.  `baseline`
itself declares only --stat, --N, --seed and --out; `main` parses what
those leave with the statistic's own parser, so another statistic's
option exits 2.  So does an option that the run's other options leave
unread (--seed with no draw, --geodesic with --sigma, --zonal-out with no
series), rather than being dropped and echoed into the config; so
discrepancy --centers has no default, and draws its centers only when
given, with --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import arith, harmonics, lattice, spatial, twosquares
from .errors import DomainError, InvariantError, budget


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvariantError("non-finite value in output")
    return "%.17g" % x


def dumps_canonical(obj) -> str:
    """JSON with fixed field order and 17-significant-digit floats."""
    parts: list[str] = []
    _write(obj, parts.append)
    return "".join(parts)


def _write(o, emit) -> None:
    if o is None:
        emit("null")
    elif o is True:
        emit("true")
    elif o is False:
        emit("false")
    elif isinstance(o, str):
        emit(json.dumps(o))
    elif isinstance(o, (int, np.integer)):
        emit(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        emit(_fmt_float(float(o)))
    elif isinstance(o, dict):
        emit("{")
        for i, (k, v) in enumerate(o.items()):
            if i:
                emit(", ")
            emit(json.dumps(str(k)))
            emit(": ")
            _write(v, emit)
        emit("}")
    elif isinstance(o, (list, tuple, np.ndarray)):
        emit("[")
        seq = o.tolist() if isinstance(o, np.ndarray) else o
        for i, v in enumerate(seq):
            if i:
                emit(", ")
            _write(v, emit)
        emit("]")
    else:
        raise InvariantError(f"unserializable value of type {type(o)!r}")


def _csv(header: str, rows, config: dict | None = None) -> str:
    """An optional '# config:' line, the header, then pre-formatted rows.

    Rows arrive as finished strings: a per-cell type dispatch made the
    15 421-row pair table of n = 100 057 about 3.5 times slower to write.
    """
    head = [] if config is None else [f"# config: {dumps_canonical(config)}"]
    return "\n".join([*head, header, *rows]) + "\n"


def _config(args) -> dict:
    """`command`, every parsed option but `out` in parser order, then `seed`;
    the handler is no option.

    argparse fills the namespace in the order the options are declared.
    """
    cfg = {"command": args.command}
    for k, v in vars(args).items():
        if k not in ("command", "handler", "out", "seed"):
            cfg[k] = v
    cfg["seed"] = getattr(args, "seed", None)
    return cfg


def _shell_or_fail(n: int) -> spatial.UnitPointSet:
    pts = spatial.unit_shell(n)
    if pts.size == 0:
        raise DomainError(
            f"n = {n} has the form 4^a(8b+7): not a sum of three squares"
        )
    return pts


def _chord(r: float, geodesic: bool) -> float:
    # geodesic radii are accepted at the CLI and converted to chords; past
    # pi the chord would fold back to that of 2 pi - r
    if not geodesic:
        return r
    if not 0 <= r <= math.pi:
        raise DomainError(f"a geodesic radius must lie in [0, pi], not {r}")
    return 2.0 * math.sin(r / 2.0)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


# Field builders: each maps (points, args) to a statistic's fields, which a
# JSON shell command prints after its config, n and N.  The binomial
# baseline shares energy, ripley, spacing and boxes.

def _energy(pts, args) -> dict:
    value = spatial.riesz_energy(pts, args.s)
    baseline = spatial.uniform_energy_integral(args.s) * pts.size**2
    return {"s": args.s, "value": value, "baseline": baseline, "ratio": value / baseline}


def _ripley(pts, args) -> dict:
    r = _chord(args.r, args.geodesic)
    k = spatial.ripley_k(pts, r)
    baseline = spatial.ripley_baseline(pts.size, r)
    return {"r": r, "k": k, "baseline": baseline, "ratio": k / baseline if baseline else 0.0}


def _spacing(pts, args) -> dict:
    rep = spatial.nn_spacings(pts)
    return {"mean": rep.mean, "ks_distance": rep.ks_distance_to_exp}


def _boxes(pts, args) -> dict:
    sum_counts, sum_squares = spatial.box_moment(pts, args.cells)
    return {"cells": args.cells, "sum_counts": sum_counts, "sum_squares": sum_squares}


def _covering(pts, args) -> dict:
    value = spatial.covering_radius(pts)
    mesh = (
        spatial.covering_radius_mesh(pts, args.mesh_check)
        if args.mesh_check is not None
        else None
    )
    return {"value": value, "mesh_estimate": mesh, "lower_bound": 2.0 / math.sqrt(pts.size)}


def _resolve_annulus(args) -> spatial.AnnulusSpec:
    if args.sigma is not None:
        if args.rho1 != 0.0 or args.rho2 is not None or args.geodesic:
            raise DomainError("give either --sigma or radii (--rho2, optional --rho1 and --geodesic), not both")
        return spatial.AnnulusSpec.cap_of_area(args.sigma)
    if args.rho2 is None:
        raise DomainError("give either --sigma or --rho2 (with optional --rho1)")
    rho1 = _chord(args.rho1, args.geodesic)
    rho2 = _chord(args.rho2, args.geodesic)
    return spatial.AnnulusSpec(rho1, rho2)


def _variance(pts, args) -> dict:
    spec = _resolve_annulus(args)
    if args.samples is None and args.m_max is None:
        raise DomainError("request --samples (Monte Carlo) and/or --m-max (series)")
    if args.zonal_out and args.m_max is None:
        raise DomainError("--zonal-out writes the series' coefficient table and needs --m-max")
    if (args.seed is None) != (args.samples is None):
        raise DomainError("the Monte Carlo path takes --samples and an explicit --seed together")
    mc = None
    if args.samples is not None:
        mc = spatial.number_variance(pts, spec, args.samples, args.seed)
    series = None
    if args.m_max is not None:
        series = harmonics.variance_series(None, spec, args.m_max, points=pts)
        if args.zonal_out:
            h = harmonics.zonal_coeffs(spec, args.m_max).tolist()
            _write_file(args.zonal_out, _csv("m,h", (f"{m},{_fmt_float(v)}" for m, v in enumerate(h))))
    return {
        "rho1": spec.rho1,
        "rho2": spec.rho2,
        "sigma": spec.area,
        "expected_mean": pts.size * spec.area,
        "samples": args.samples,
        "seed": args.seed,
        "mc_mean": None if mc is None else mc.mean,
        "mc_variance": None if mc is None else mc.variance,
        "mc_stderr": None if mc is None else mc.variance_stderr,
        "m_max": args.m_max,
        "series_value": None if series is None else series.value,
        "series_last_term": None if series is None else series.last_term,
        "series_tail_estimate": None if series is None else series.tail_estimate,
    }


def _discrepancy(pts, args) -> dict:
    if (args.seed is None) != (args.centers is None):
        raise DomainError("the sampled estimate takes --centers and an explicit --seed together")
    bound = harmonics.discrepancy_bound(None, args.m_max, points=pts)
    estimate = None
    if args.centers is not None:
        grid = np.geomspace(2.0 / math.sqrt(pts.size), 2.0, 32)
        estimate = harmonics.cap_discrepancy_estimate(pts, args.centers, grid, args.seed)
    return {
        "m_max": args.m_max,
        "bound": bound,
        "centers": args.centers,
        "seed": args.seed,
        "estimate": estimate,
    }


_FIELDS = {"energy": _energy, "ripley": _ripley, "spacing": _spacing, "covering": _covering,
           "variance": _variance, "boxes": _boxes, "discrepancy": _discrepancy}


def _shell_stat(args) -> dict:
    pts = _shell_or_fail(args.n)
    fields = _FIELDS[args.command](pts, args)
    return {"config": _config(args), "n": args.n, "N": pts.size, **fields}


def _cmd_enumerate(args) -> str:
    ls = lattice.enumerate_points(args.n)
    if ls.size == 0:
        print(f"warning: n = {args.n} is not representable (4^a(8b+7))", file=sys.stderr)
    # the header '# n=<n> N=<N>', then one 'x1 x2 x3' per line
    return ("# n=%d N=%d\n" + "%d %d %d\n" * ls.size) % (args.n, ls.size, *ls.points.ravel().tolist())


def _cmd_pairs(args) -> str:
    tbl = lattice.pair_table(args.n)
    if tbl.empty:
        print(f"warning: n = {args.n} has no lattice points", file=sys.stderr)
    # one % format over the interleaved t, count list: half the time of a
    # format per row on the 15 467 rows of n = 100 117
    k = len(tbl.t)
    flat = np.column_stack((tbl.t, tbl.count)).ravel().tolist()
    rows = ["\n".join(["%d,%d"] * k) % tuple(flat)] if k else []
    return _csv("t,count", rows, _config(args))


def _cmd_weyl(args) -> str:
    pts = _shell_or_fail(args.n)
    tbl = harmonics.weyl_sums(None, args.degree, args.normalized, points=pts)
    rows = [f"{j},{_fmt_float(v)}" for j, v in enumerate(tbl.values.tolist())]
    rows.append(f"# aggregate,{_fmt_float(tbl.aggregate())}")
    return _csv("j,value", rows, _config(args))


def _verify_arith_work(n_max: int) -> int:
    return n_max * n_max * 263 // 160


def _cmd_verify_arith(args) -> dict:
    budget("verify_arith", _verify_arith_work(args.n_max), f"verify-arith --n-max {args.n_max}")
    shells, tables = [], []
    for n in range(1, args.n_max + 1):
        if not arith.is_squarefree(n):
            continue
        tbl = lattice.pair_table(n)
        if not tbl.empty:
            shells.append(n)
            tables.append(tbl)
    formula = arith.pair_count_formula_table(shells)
    counts = np.zeros(len(formula.t), dtype=np.int64)  # geometric count per row
    start = 0
    for n, tbl in zip(shells, tables):
        # the table's ends are t = -n and t = n; row t sits at start + t + n - 1
        counts[start + tbl.t[1:-1] + n - 1] = tbl.count[1:-1]
        start += 2 * n - 1
    return {
        "config": _config(args),
        "n_max": args.n_max,
        "shells_checked": len(shells),
        "pairs_checked": len(counts),
        "mismatches": int(np.count_nonzero((counts != 0) & (counts != formula.formula))),
        "bound_violations": int(np.count_nonzero(counts > 24 * formula.majorant)),
    }


def _cmd_twosq_gaps(args) -> str:
    try:
        ys = [int(v) for v in args.y_list.split(",")]
    except ValueError:
        raise DomainError(f"--y-list must be comma-separated integers, not {args.y_list!r}") from None
    rows = (f"{y},{g},{_fmt_float(ratio)}" for y, g, ratio in twosquares.gap_scan(ys))
    return _csv("Y,G,ratio", rows, _config(args))


def _cmd_twosq_probe(args) -> dict:
    res = twosquares.gap_probe(args.m, args.h)
    return {
        "config": _config(args),
        "m": res.m,
        "h": res.height,
        "best_x3": res.best_x3,
        "certified_distance": res.certified_distance,
        "exact_distance": res.distance,
        "pole_in_sequence": res.pole_in_sequence,
        "candidates": res.candidates,
    }


def _cmd_baseline(args) -> dict:
    pts = spatial.binomial_sample(args.N, args.seed)
    stat = args.stat
    if stat == "covering":
        value = spatial.covering_radius(pts)
        result = {"value": value, "lower_bound": 2.0 / math.sqrt(pts.size)}
    elif stat == "variance":
        spec = _resolve_annulus(args)
        if args.samples is None:
            raise DomainError("baseline variance needs --samples")
        mc = spatial.number_variance(pts, spec, args.samples, args.seed + 1)
        result = {
            "sigma": spec.area,
            "samples": args.samples,
            "mean": mc.mean,
            "variance": mc.variance,
            "stderr": mc.variance_stderr,
            "binomial_variance": pts.size * spec.area * (1 - spec.area),
        }
    else:
        result = _FIELDS[stat](pts, args)
    return {
        "config": _config(args),
        "stat": stat,
        "N": args.N,
        "seed": args.seed,
        "result": result,
    }


# Each statistic's own options, declared once: its shell command and
# `baseline --stat` take exactly these.
_GEODESIC = ("--geodesic", {"action": "store_true", "help": "interpret radii as geodesic"})
_STAT_OPTIONS = {
    "energy": [("--s", {"type": float, "default": 1.0})],
    "ripley": [("--r", {"type": float, "required": True}), _GEODESIC],
    "spacing": [],
    "covering": [],
    "variance": [("--rho1", {"type": float, "default": 0.0}), ("--rho2", {"type": float}),
                 ("--sigma", {"type": float, "help": "cap area (alternative to radii)"}),
                 ("--samples", {"type": int}), _GEODESIC],
    "boxes": [("--cells", {"type": int, "required": True})],
}


@functools.cache
def _stat_parser(stat: str) -> argparse.ArgumentParser:
    """A statistic's options: a parent of its shell command, and the
    parser of what `baseline --stat <stat>` leaves after its own options."""
    p = argparse.ArgumentParser(prog=f"threesq baseline --stat {stat}", add_help=False)
    for flag, kw in _STAT_OPTIONS[stat]:
        p.add_argument(flag, **kw)
    return p


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="threesq",
        description="Integer points on spheres and their spherical statistics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=handler)
        return p

    n_opt = argparse.ArgumentParser(add_help=False)
    n_opt.add_argument("--n", type=int, required=True)

    def shell_cmd(name, handler=_shell_stat, **kw):  # a command on the shell |x|^2 = n, with a statistic's own options
        stat = [_stat_parser(name)] if name in _STAT_OPTIONS else []
        return cmd(name, handler, parents=[n_opt, *stat], **kw)

    shell_cmd("enumerate", _cmd_enumerate, help="list all integer points with |x|^2 = n")

    shell_cmd("pairs", _cmd_pairs, help="inner-product histogram as CSV")

    shell_cmd("energy", help="Riesz s-energy of the projected shell")

    shell_cmd("ripley", help="pair count below chord distance r")

    shell_cmd("spacing", help="nearest-neighbour spacing summary")

    p = shell_cmd("covering", help="covering radius (convex-hull method)")
    p.add_argument("--mesh-check", type=float, default=None, help="also report the lower end of the certified covering interval (cube-sphere branch and bound) at this resolution")

    p = shell_cmd("variance", help="annulus count variance (Monte Carlo and/or series)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None, dest="m_max")
    p.add_argument("--zonal-out", default=None, dest="zonal_out",
                   help="also write the zonal coefficient table (CSV) here")

    shell_cmd("boxes", help="equal-area cell occupancy moments")

    p = shell_cmd("weyl", _cmd_weyl, help="harmonic sums of one degree as CSV")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--normalized", action="store_true")

    p = shell_cmd("discrepancy", help="discrepancy bound shape and sampled estimate")
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--centers", type=int)
    p.add_argument("--seed", type=int, default=None)

    p = cmd("verify-arith", _cmd_verify_arith, help="pair-count formula versus direct counting")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")

    p = cmd("twosq-gaps", _cmd_twosq_gaps, help="largest gaps between sums of two squares")
    p.add_argument("--y-list", required=True, dest="y_list", help="comma-separated window starts")

    p = cmd("twosq-probe", _cmd_twosq_probe, help="near-pole probe of dist(2m, sums of two squares)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=int, required=True)

    # --s would abbreviate --stat and --seed: a statistic's options are
    # left whole for its own parser
    p = cmd("baseline", _cmd_baseline, help="binomial-process analog of a statistic", description="--stat S takes the options of the shell command S", allow_abbrev=False)
    p.add_argument("--stat", required=True, choices=list(_STAT_OPTIONS))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
        if args.command == "baseline":
            _stat_parser(args.stat).parse_args(rest, args)
        elif rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.handler(args)
        text = out if isinstance(out, str) else dumps_canonical(out) + "\n"
        if args.out:
            _write_file(args.out, text)
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # treat unexpected failures as invariant breaks
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
