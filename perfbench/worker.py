"""One fresh workload process: import threesq, run a seeded job list, check it.

    python3 perfbench/worker.py --setup WORKLOAD
        import threesq and threesq.cli, run one tiny job of every kind the
        workload uses, print {"import_s", "warmup_s"}.
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        warm up the same way, then run the job list and print one JSON line:
        end-to-end figures with --trace 0, per-layer figures with --trace 1.

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count fixed; it is not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback


def _import_program() -> float:
    t0 = time.perf_counter()
    import threesq  # noqa: F401
    import threesq.cli  # noqa: F401

    return time.perf_counter() - t0


def _untimed_job(kind, call, check=None):
    return call()


def setup_probe(workload: str) -> None:
    import_s = _import_program()
    import workloads

    wl = workloads.WORKLOADS[workload]
    t0 = time.perf_counter()
    wl.run_item(_untimed_job, wl.tiny(), None)
    print(json.dumps({"import_s": import_s, "warmup_s": time.perf_counter() - t0}))


class Runner:
    """Times each job, checks its output outside the timed region, counts failures.

    A job fails on an exception, a non-zero exit code or a failed check;
    only a failed check makes the run incorrect.
    """

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.check_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tracer = tracer

    def _quiet(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def job(self, kind, call, check):
        import checks
        import workloads

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = call()
            dt = time.perf_counter() - t0
        except workloads.JobFailed as exc:
            self.failed += 1
            print(f"FAILED {kind}: {exc}", file=sys.stderr)
            return None
        except Exception:
            self.failed += 1
            print(f"FAILED {kind}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if isinstance(out, str) and self.tracer:
            self.tracer.count("cli.output_bytes", len(out.encode()))
        try:
            t0 = time.perf_counter()
            with self._quiet():
                result = check(out)
            self.check_s[kind] = self.check_s.get(kind, 0.0) + time.perf_counter() - t0
        except Exception as exc:  # an unparsable output is a wrong output too
            self.failed += 1
            self.wrong += 1
            detail = exc if isinstance(exc, checks.CheckFailed) else traceback.format_exc()
            print(f"CHECK FAILED {kind}: {detail}", file=sys.stderr)
            return None
        self.latencies.append(dt)
        self.by_kind.setdefault(kind, []).append(dt)
        return out if result is None else result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    import numpy as np

    _import_program()
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.run_item(_untimed_job, wl.tiny(), None)  # lazy imports and first-call costs

    min_items = math.ceil(100 / wl.jobs_per_item)
    count = max(min_items, round(seconds / wl.item_seconds))
    rng = np.random.default_rng([seed, list(workloads.WORKLOADS).index(workload)])
    items = wl.make_items(rng, count)

    from threesq import lattice, primes

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    runner = Runner(tracer)
    caches = {"enumerate_points": lattice.enumerate_points, "pair_table": lattice.pair_table}
    before = {k: f.cache_info() for k, f in caches.items()}
    if tracer:
        tracer.install()
    for it in items:
        wl.run_item(runner.job, it, it.reference())
    if tracer:
        tracer.uninstall()

    lat = runner.latencies
    correct = runner.wrong == 0
    if trace:
        metrics = tracer.metrics()
        for k, f in caches.items():
            info = f.cache_info()
            hits = info.hits - before[k].hits
            misses = info.misses - before[k].misses
            metrics[f"lattice.{k}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        metrics["primes.spf_limit"] = (primes.spf_limit(), "count")
    else:
        metrics = {
            "jobs_per_s": (len(lat) / sum(lat), "1/s"),
            "job_p50_s": (statistics.median(lat), "s"),
            "job_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[-1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "jobs": len(lat),
                "items": len(items),
                "job_seconds": {
                    k: {"count": len(v), "total": sum(v), "median": statistics.median(v), "check": runner.check_s[k]}
                    for k, v in runner.by_kind.items()
                },
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--setup", default=None)
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    if a.setup:
        setup_probe(a.setup)
    else:
        run_workload(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    main()
