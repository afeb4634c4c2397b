"""Benchmark entry point for threesq.

    python3 perfbench/run.py --workload {shells,uniform,arith} --seed N \
        --seconds T --trace {0,1}

Run from the root of a checkout.  One untimed start-up writes bytecode and
warms the file cache.  Then SETUP_REPEATS fresh interpreters each import
threesq and run one tiny job of every kind the workload uses; setup_s is
the median of their wall times.  Then one fresh workload process runs the
seeded job list and checks every output.  The last line of stdout is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The same figures, with the set-up samples and the job and check
time per job kind, are written to perfbench/out/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
BLAS_THREADS = "1"
TIMEOUT_S = 170.0
WORKLOADS = ("shells", "uniform", "arith")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # start-ups load threesq from bytecode cached in the checkout (the untimed
    # first start-up writes it), whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its wall time and its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {' '.join(args)} did not finish in time")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {' '.join(args)} exited {proc.returncode}")
    return wall, json.loads(out.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "threesq", "cli.py")):
        print("error: run from the root of a threesq checkout (src/threesq is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    env = child_env(root)

    run_child(["--setup", a.workload], env, deadline)
    walls, imports, warmups = [], [], []
    for _ in range(SETUP_REPEATS):
        wall, probe = run_child(["--setup", a.workload], env, deadline)
        walls.append(wall)
        imports.append(probe["import_s"])
        warmups.append(probe["warmup_s"])

    _, res = run_child(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)],
        env,
        deadline,
    )
    metrics = res["metrics"]
    if a.trace:
        metrics["setup.import_s"] = {"value": statistics.median(imports), "unit": "s"}
        metrics["setup.warmup_s"] = {"value": statistics.median(warmups), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(walls), "unit": "s"}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{a.workload}-seed{a.seed}-trace{a.trace}.json"), "w") as fh:
        json.dump(dict(res, setup_wall_s=walls, setup_import_s=imports, setup_warmup_s=warmups), fh, indent=1)
    print(
        f"# {a.workload} seed={a.seed}: {res['items']} items, {res['jobs']} jobs checked, "
        f"nproc={os.cpu_count()}, BLAS threads={BLAS_THREADS}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
