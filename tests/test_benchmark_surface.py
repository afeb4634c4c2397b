"""The names the benchmark in `perfbench/` reads of the package still work.

The benchmark runs the committed package from outside: its job lists call
the CLI and public functions, its tracer wraps every function named in
`tracer.LAYERS` and reads a few fields of their results, and its worker
reads `primes.spf_limit`.  A change to `src/` that drops or reshapes one
of these names fails here rather than in a benchmark run.  Both checks
run `perfbench/` in a fresh interpreter without writing bytecode, so the
directory is left as it was.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Installs the tracer, runs one call through each wrapped function whose
# result the tracer reads, and uninstalls it again.
TRACED_CALLS = """
import importlib, inspect, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracer
from threesq import arith, harmonics, lattice, primes, spatial, twosquares

modules = {{m: importlib.import_module(f"threesq.{{m}}") for m in tracer.LAYERS}}
originals = {{(m, f): getattr(modules[m], f) for m, fs in tracer.LAYERS.items() for f in fs}}
assert all(callable(fn) for fn in originals.values())
assert list(inspect.signature(harmonics.variance_series).parameters)[:4] == ["n", "spec", "m_max", "points"]
tr = tracer.Tracer()
tr.install()
try:
    assert not [k for k, fn in originals.items() if getattr(modules[k[0]], k[1]) is fn], "unwrapped"
    lattice.pair_table(5)
    pts = spatial.unit_shell(101)
    spec = spatial.AnnulusSpec.cap_of_area(0.05)
    harmonics.variance_series(None, spec, 4, points=pts)
    spatial.number_variance(pts, spec, 100, 1)
    twosquares.window(1000)
    arith.dirichlet_l_one(5, 1e-8)
    arith.pair_count_formula(5, 4)
    metrics = tr.metrics()
finally:
    tr.uninstall()
assert all(getattr(modules[m], f) is fn for (m, f), fn in originals.items()), "not restored"
for name in ("lattice.points", "lattice.pair_table.distinct_t", "harmonics.variance_series.terms",
             "spatial.number_variance.centers", "twosquares.window.integers", "arith.dirichlet_l_one.q",
             "arith.factorize.calls"):
    assert metrics[name][0] > 0, name
assert primes.spf_limit() > 0
print("traced")
"""


def perfbench_state() -> list[tuple[str, int, int]]:
    return sorted((str(p.relative_to(PERFBENCH)), p.stat().st_size, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_benchmark_selftest_passes():
    before = perfbench_state()
    out = run_python("perfbench/selftest.py")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert "self-test passed" in out.stdout
    assert perfbench_state() == before


def test_tracer_wraps_and_restores_every_layer():
    before = perfbench_state()
    out = run_python("-c", TRACED_CALLS.format(src=str(ROOT / "src"), perfbench=str(PERFBENCH)))
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "traced"
    assert perfbench_state() == before
