"""Self-test: every check accepts the program's output and rejects a wrong one.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs one small item of each workload through the same job lists the
benchmark uses.  Each job's real output must pass its check; then the
output is altered in one plausible way (a pair count off by one, an
energy off by 1e-6 relative, a distance one too large, ...) and the
check must raise CheckFailed.  Exits 1 if any check lets a wrong output
through or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

REL = 1e-6  # relative error planted in float outputs


def scale_json(*path, by=1.0 + REL, add=0):
    def mutate(text):
        obj = json.loads(text)
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = node[path[-1]] * by + add
        return json.dumps(obj)

    return mutate


def bump_csv_row(row: int, col: int, add: int):
    def mutate(text):
        lines = text.splitlines()
        i = [k for k, ln in enumerate(lines) if ln and not ln.startswith("#")][1:][row]
        cells = lines[i].split(",")
        cells[col] = str(int(cells[col]) + add)
        lines[i] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return mutate


def drop_last_point(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def scale_weyl(text):
    """Every harmonic sum scaled by sqrt(1 + REL), the aggregate by 1 + REL:
    still self-consistent, so only the addition theorem can catch it."""
    lines = text.splitlines()
    for i, ln in enumerate(lines[2:-1], start=2):
        j, v = ln.split(",")
        lines[i] = f"{j},{float(v) * (1 + REL) ** 0.5!r}"
    value = float(lines[-1].split(",")[1])
    lines[-1] = f"# aggregate,{value * (1 + REL)!r}"
    return "\n".join(lines) + "\n"


def variance_plus(text):
    obj = json.loads(text)
    obj["mc_variance"] += 10 * obj["mc_stderr"]
    return json.dumps(obj)


def baseline_variance_plus(text):
    obj = json.loads(text)
    obj["result"]["variance"] += 10 * obj["result"]["stderr"]
    return json.dumps(obj)


MUTATIONS = {
    # shells
    "enumerate": [("last point dropped", drop_last_point)],
    "pairs": [("one count off by one", bump_csv_row(5, 1, 1))],
    "energy": [("energy off by 1e-6 relative", scale_json("value"))],
    "ripley": [("k off by one", scale_json("k", by=1, add=1))],
    "spacing": [("mean spacing off by 1e-6 relative", scale_json("mean"))],
    "covering": [("covering radius 20% low", scale_json("value", by=0.8))],
    "variance": [
        ("series off by 1e-6 relative", scale_json("series_value")),
        ("MC variance 10 stderr high", variance_plus),
    ],
    "boxes": [("sum_counts off by one", scale_json("sum_counts", by=1, add=-1))],
    "weyl": [("harmonic sums off by 1e-6 relative in the aggregate", scale_weyl)],
    # uniform
    "baseline-ripley": [("k off by two", scale_json("result", "k", by=1, add=2))],
    "baseline-energy": [("energy off by 1e-6 relative", scale_json("result", "value"))],
    "baseline-spacing": [("KS distance off by 1e-6", scale_json("result", "ks_distance", by=1, add=1e-6))],
    "baseline-covering": [("covering radius 20% low", scale_json("result", "value", by=0.8))],
    "baseline-variance": [("MC variance 10 stderr high", baseline_variance_plus)],
    "baseline-boxes": [("sum of squares off by one", scale_json("result", "sum_squares", by=1, add=1))],
    "variance_series": [("series off by 1e-6 relative", lambda r: dataclasses.replace(r, value=r.value * (1 + REL)))],
    "covering_radius_mesh": [("mesh estimate above the hull value", lambda v: v + 0.01)],
    # arith
    "dirichlet_l_one": [("L-value off by 1e-6 relative", lambda v: v * (1 + REL))],
    "class_number": [("class number off by one", lambda h: h + 1)],
    "gauss_count": [("count off by 12", lambda g: g + 12)],
    "pair_count_formula": [("formula value off by 24", lambda v: v + 24)],
    "verify-arith": [
        ("one mismatch reported", scale_json("mismatches", by=1, add=1)),
        ("shells_checked off by one", scale_json("shells_checked", by=1, add=1)),
    ],
    "twosq-gaps": [("G off by one", bump_csv_row(0, 1, 1))],
    "twosq-probe": [("exact distance off by one", scale_json("exact_distance", by=1, add=1))],
}


class SelfTest:
    def __init__(self):
        self.errors = 0
        self.seen: set[str] = set()

    def job(self, kind, call, check):
        self.seen.add(kind)
        out = call()
        try:
            result = check(out)
        except checks.CheckFailed as exc:
            self.errors += 1
            print(f"FAIL {kind}: the program's own output was rejected: {exc}")
            return None
        for what, mutate in MUTATIONS[kind]:
            try:
                check(mutate(out))
            except checks.CheckFailed as exc:
                print(f"ok   {kind}: {what} -> rejected ({exc})")
            else:
                self.errors += 1
                print(f"FAIL {kind}: {what} was accepted")
        return out if result is None else result


def main() -> int:
    st = SelfTest()
    rng = np.random.default_rng(7)
    n = 3001  # squarefree, 3001 = 1 (mod 8): 480 points
    shell = workloads.ShellItem(n, len(ref.shell_points(n)), 5)
    workloads.run_shell(st.job, shell, shell.reference())
    workloads.run_uniform(st.job, workloads.UniformItem(400, 11, 0.01))
    item = workloads.arith_items(rng, 1)[0]
    workloads.run_arith(st.job, item, item.reference())
    missing = set(MUTATIONS) - st.seen
    if missing:
        st.errors += 1
        print(f"FAIL jobs never run: {sorted(missing)}")
    print("self-test", "passed" if st.errors == 0 else f"FAILED ({st.errors})")
    return 1 if st.errors else 0


if __name__ == "__main__":
    sys.exit(main())
