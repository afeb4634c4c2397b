"""Command-line surface: reproducible experiments with frozen schemas.

Outputs are byte-deterministic for a fixed argument vector: JSON field
order is fixed by schema.json (shipped with the package), floats are
printed with 17 significant digits, and every randomized command requires
an explicit --seed which is echoed into the output.  Exit codes: 0
success, 2 domain error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from importlib import resources

import numpy as np

from . import arith, harmonics, lattice, spatial, twosquares
from .errors import DomainError, InvariantError


def load_schema() -> dict:
    with resources.files("threesq").joinpath("schema.json").open() as fh:
        return json.load(fh)


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


def _csv_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return str(v)


def _config(args, keys) -> dict:
    cfg = {"command": args.command}
    for k in keys:
        cfg[k] = getattr(args, k)
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
    # geodesic radii are accepted at the CLI and converted to chords
    return 2.0 * math.sin(r / 2.0) if geodesic else r


def _cmd_enumerate(args) -> str:
    ls = lattice.enumerate_points(args.n)
    if ls.size == 0:
        print(f"warning: n = {args.n} is not representable (4^a(8b+7))", file=sys.stderr)
    buf = io.StringIO()
    lattice.save_points(ls, buf)
    return buf.getvalue()


def _cmd_pairs(args) -> str:
    tbl = lattice.pair_table(args.n)
    if tbl.empty:
        print(f"warning: n = {args.n} has no lattice points", file=sys.stderr)
    cfg = dumps_canonical(_config(args, ["n"]))
    return f"# config: {cfg}\n" + lattice.pair_table_csv(tbl)


def _cmd_energy(args) -> str:
    pts = _shell_or_fail(args.n)
    value = spatial.riesz_energy(pts, args.s)
    baseline = spatial.uniform_energy_integral(args.s) * pts.size**2
    out = {
        "config": _config(args, ["n", "s"]),
        "n": args.n,
        "N": pts.size,
        "s": args.s,
        "value": value,
        "baseline": baseline,
        "ratio": value / baseline,
    }
    return dumps_canonical(out) + "\n"


def _cmd_ripley(args) -> str:
    pts = _shell_or_fail(args.n)
    r = _chord(args.r, args.geodesic)
    k = spatial.ripley_k(pts, r)
    baseline = spatial.ripley_baseline(pts.size, r)
    out = {
        "config": _config(args, ["n", "r", "geodesic"]),
        "n": args.n,
        "N": pts.size,
        "r": r,
        "k": k,
        "baseline": baseline,
        "ratio": k / baseline if baseline else 0.0,
    }
    return dumps_canonical(out) + "\n"


def _cmd_spacing(args) -> str:
    pts = _shell_or_fail(args.n)
    rep = spatial.nn_spacings(pts)
    out = {
        "config": _config(args, ["n"]),
        "n": args.n,
        "N": pts.size,
        "mean": rep.mean,
        "ks_distance": rep.ks_distance_to_exp,
    }
    return dumps_canonical(out) + "\n"


def _cmd_covering(args) -> str:
    pts = _shell_or_fail(args.n)
    value = spatial.covering_radius(pts)
    mesh = (
        spatial.covering_radius_mesh(pts, args.mesh_check)
        if args.mesh_check
        else None
    )
    out = {
        "config": _config(args, ["n", "mesh_check"]),
        "n": args.n,
        "N": pts.size,
        "value": value,
        "mesh_estimate": mesh,
        "lower_bound": 2.0 / math.sqrt(pts.size),
    }
    return dumps_canonical(out) + "\n"


def _resolve_annulus(args) -> spatial.AnnulusSpec:
    if args.sigma is not None:
        return spatial.AnnulusSpec.cap_of_area(args.sigma)
    if args.rho2 is None:
        raise DomainError("give either --sigma or --rho2 (with optional --rho1)")
    rho1 = _chord(args.rho1, args.geodesic)
    rho2 = _chord(args.rho2, args.geodesic)
    return spatial.AnnulusSpec(rho1, rho2)


def _cmd_variance(args) -> str:
    pts = _shell_or_fail(args.n)
    spec = _resolve_annulus(args)
    if args.samples is None and args.m_max is None:
        raise DomainError("request --samples (Monte Carlo) and/or --m-max (series)")
    mc = None
    if args.samples is not None:
        if args.seed is None:
            raise DomainError("Monte Carlo path requires an explicit --seed")
        mc = spatial.number_variance(pts, spec, args.samples, args.seed)
    series = None
    if args.m_max is not None:
        series = harmonics.variance_series(None, spec, args.m_max, points=pts)
        if args.zonal_out:
            with open(args.zonal_out, "w") as fh:
                fh.write(harmonics.zonal_csv(harmonics.zonal_coeffs(spec, args.m_max)))
    out = {
        "config": _config(
            args, ["n", "rho1", "rho2", "sigma", "samples", "m_max", "geodesic", "zonal_out"]
        ),
        "n": args.n,
        "N": pts.size,
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
    return dumps_canonical(out) + "\n"


def _cmd_boxes(args) -> str:
    pts = _shell_or_fail(args.n)
    sum_counts, sum_squares = spatial.box_moment(pts, args.cells)
    out = {
        "config": _config(args, ["n", "cells"]),
        "n": args.n,
        "N": pts.size,
        "cells": args.cells,
        "sum_counts": sum_counts,
        "sum_squares": sum_squares,
    }
    return dumps_canonical(out) + "\n"


def _cmd_weyl(args) -> str:
    pts = _shell_or_fail(args.n)
    tbl = harmonics.weyl_sums(None, args.degree, args.normalized, points=pts)
    cfg = dumps_canonical(_config(args, ["n", "degree", "normalized"]))
    lines = [f"# config: {cfg}", "j,value"]
    for j, v in enumerate(tbl.values.tolist()):
        lines.append(f"{j},{_fmt_float(v)}")
    lines.append(f"# aggregate,{_fmt_float(tbl.aggregate())}")
    return "\n".join(lines) + "\n"


def _cmd_discrepancy(args) -> str:
    pts = _shell_or_fail(args.n)
    bound = harmonics.discrepancy_bound(None, args.m_max, points=pts)
    estimate = None
    if args.estimate:
        if args.seed is None:
            raise DomainError("--estimate requires an explicit --seed")
        grid = np.geomspace(2.0 / math.sqrt(pts.size), 2.0, 32)
        estimate = harmonics.cap_discrepancy_estimate(pts, args.centers, grid, args.seed)
    out = {
        "config": _config(args, ["n", "m_max", "estimate", "centers"]),
        "n": args.n,
        "N": pts.size,
        "m_max": args.m_max,
        "bound": bound,
        "centers": args.centers if args.estimate else None,
        "seed": args.seed,
        "estimate": estimate,
    }
    return dumps_canonical(out) + "\n"


def _cmd_verify_arith(args) -> str:
    shells = 0
    pairs = 0
    mismatches = 0
    bound_violations = 0
    for n in range(1, args.n_max + 1):
        if not arith.is_squarefree(n):
            continue
        tbl = lattice.pair_table(n)
        if tbl.empty:
            continue
        shells += 1
        dense = np.zeros(2 * n + 1, dtype=np.int64)  # count at t, index t + n
        dense[tbl.t + n] = tbl.count
        counts = dense.tolist()
        for t, formula, majorant in arith.shell_pair_values(n):
            a = counts[t + n]
            pairs += 1
            if a not in (0, formula):
                mismatches += 1
            if a > 24 * majorant:
                bound_violations += 1
    out = {
        "config": _config(args, ["n_max"]),
        "n_max": args.n_max,
        "shells_checked": shells,
        "pairs_checked": pairs,
        "mismatches": mismatches,
        "bound_violations": bound_violations,
    }
    return dumps_canonical(out) + "\n"


def _cmd_twosq_gaps(args) -> str:
    ys = [int(v) for v in args.y_list.split(",")]
    rows = twosquares.gap_scan(ys)
    cfg = dumps_canonical(_config(args, ["y_list"]))
    lines = [f"# config: {cfg}", "Y,G,ratio"]
    for y, g, ratio in rows:
        lines.append(f"{y},{g},{_fmt_float(ratio)}")
    return "\n".join(lines) + "\n"


def _cmd_twosq_probe(args) -> str:
    res = twosquares.gap_probe(args.m, args.h, args.delta)
    out = {
        "config": _config(args, ["m", "h", "delta"]),
        "m": res.m,
        "h": res.height,
        "best_x3": res.best_x3,
        "certified_distance": res.certified_distance,
        "exact_distance": res.distance,
        "pole_in_sequence": res.pole_in_sequence,
        "candidates": res.candidates,
    }
    return dumps_canonical(out) + "\n"


def _cmd_baseline(args) -> str:
    if args.seed is None:
        raise DomainError("baseline sampling requires an explicit --seed")
    pts = spatial.binomial_sample(args.N, args.seed)
    stat = args.stat
    if stat == "ripley":
        r = _chord(args.r, args.geodesic)
        k = spatial.ripley_k(pts, r)
        base = spatial.ripley_baseline(pts.size, r)
        result = {"r": r, "k": k, "baseline": base, "ratio": k / base if base else 0.0}
    elif stat == "energy":
        value = spatial.riesz_energy(pts, args.s)
        base = spatial.uniform_energy_integral(args.s) * pts.size**2
        result = {"s": args.s, "value": value, "baseline": base, "ratio": value / base}
    elif stat == "spacing":
        rep = spatial.nn_spacings(pts)
        result = {"mean": rep.mean, "ks_distance": rep.ks_distance_to_exp}
    elif stat == "covering":
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
    elif stat == "boxes":
        sc, ss = spatial.box_moment(pts, args.cells)
        result = {"cells": args.cells, "sum_counts": sc, "sum_squares": ss}
    else:
        raise DomainError(f"unknown baseline statistic {stat!r}")
    out = {
        "config": _config(
            args,
            ["stat", "N", "r", "s", "rho1", "rho2", "sigma", "samples", "cells", "geodesic"],
        ),
        "stat": stat,
        "N": args.N,
        "seed": args.seed,
        "result": result,
    }
    return dumps_canonical(out) + "\n"


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "pairs": _cmd_pairs,
    "energy": _cmd_energy,
    "ripley": _cmd_ripley,
    "spacing": _cmd_spacing,
    "covering": _cmd_covering,
    "variance": _cmd_variance,
    "boxes": _cmd_boxes,
    "weyl": _cmd_weyl,
    "discrepancy": _cmd_discrepancy,
    "verify-arith": _cmd_verify_arith,
    "twosq-gaps": _cmd_twosq_gaps,
    "twosq-probe": _cmd_twosq_probe,
    "baseline": _cmd_baseline,
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="threesq",
        description="Integer points on spheres and their spherical statistics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = cmd("enumerate", help="list all integer points with |x|^2 = n")
    p.add_argument("--n", type=int, required=True)

    p = cmd("pairs", help="inner-product histogram as CSV")
    p.add_argument("--n", type=int, required=True)

    p = cmd("energy", help="Riesz s-energy of the projected shell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=1.0)

    p = cmd("ripley", help="pair count below chord distance r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--geodesic", action="store_true", help="interpret radii as geodesic")

    p = cmd("spacing", help="nearest-neighbour spacing summary")
    p.add_argument("--n", type=int, required=True)

    p = cmd("covering", help="covering radius (convex-hull method)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mesh-check", type=float, default=None, help="also report the lower end of the certified covering interval (cube-sphere branch and bound) at this resolution")

    p = cmd("variance", help="annulus count variance (Monte Carlo and/or series)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho1", type=float, default=0.0)
    p.add_argument("--rho2", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None, help="cap area (alternative to radii)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None, dest="m_max")
    p.add_argument("--geodesic", action="store_true")
    p.add_argument("--zonal-out", default=None, dest="zonal_out",
                   help="also write the zonal coefficient table (CSV) here")

    p = cmd("boxes", help="equal-area cell occupancy moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)

    p = cmd("weyl", help="harmonic sums of one degree as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--normalized", action="store_true")

    p = cmd("discrepancy", help="discrepancy bound shape and sampled estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--centers", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)

    p = cmd("verify-arith", help="pair-count formula versus direct counting")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")

    p = cmd("twosq-gaps", help="largest gaps between sums of two squares")
    p.add_argument("--y-list", required=True, dest="y_list", help="comma-separated window starts")

    p = cmd("twosq-probe", help="near-pole probe of dist(2m, sums of two squares)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)

    p = cmd("baseline", help="binomial-process analog of a statistic")
    p.add_argument("--stat", required=True, choices=["ripley", "energy", "spacing", "covering", "variance", "boxes"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--rho1", type=float, default=0.0)
    p.add_argument("--rho2", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--cells", type=int, default=100)
    p.add_argument("--geodesic", action="store_true")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # treat unexpected failures as invariant breaks
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
