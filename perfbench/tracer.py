"""Per-layer tracing of threesq, wrapped from outside the package.

`Tracer.install` replaces each public function named in LAYERS by a
wrapper that records calls, self time (the span minus the spans of traced
functions it called) and, for the functions in PEAK, the largest rise of
resident memory above its level at entry.  Resident memory is read from
/proc/self/statm at entry and exit and about every millisecond in
between by a sampling thread (tracemalloc would see every allocation, but
it slowed dirichlet_l_one tenfold).  Every module of
the package that imported the function under its own name (for example
`spatial.enumerate_points` or `twosquares.factorize`) gets the wrapper
too, so internal calls are seen.  Spans stay in memory; `metrics()`
turns them into the per-layer figures once the job list has run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = {
    "lattice": ["enumerate_points", "pair_table"],
    "spatial": [
        "riesz_energy",
        "ripley_k",
        "nn_spacings",
        "covering_radius",
        "covering_radius_mesh",
        "number_variance",
        "box_moment",
    ],
    "harmonics": ["variance_series", "weyl_sums"],
    "arith": ["dirichlet_l_one", "class_number", "gauss_count", "pair_count_formula", "factorize"],
    "twosquares": ["window", "gap_probe", "is_sum_two_squares"],
    "cli": ["main"],
}
PEAK = {
    "lattice.pair_table",
    "spatial.number_variance",
    "harmonics.variance_series",
    "spatial.covering_radius_mesh",
    "arith.dirichlet_l_one",
    "twosquares.window",
}
COUNTS = [
    "lattice.points",
    "lattice.pair_table.pairs",
    "lattice.pair_table.distinct_t",
    "harmonics.variance_series.terms",
    "spatial.number_variance.centers",
    "spatial.covering_radius_mesh.mesh_points",
    "arith.dirichlet_l_one.q",
    "twosquares.window.integers",
    "cli.output_bytes",
]
_MB = float(1 << 20)


class _Frame:
    __slots__ = ("name", "start", "child", "base", "peak")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.base = 0
        self.peak = 0


class _RssSampler:
    """Running maximum of resident memory while at least one PEAK span is open."""

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._max = 0
        self._lock = threading.Lock()
        self._open = threading.Event()
        self._stop = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop:
            if self._open.wait(0.1):
                with self._lock:
                    self._max = max(self._max, self.rss())
                time.sleep(0.001)

    def take(self) -> tuple[int, int]:
        """(current, maximum since the last take); the maximum restarts from current."""
        with self._lock:
            cur = self.rss()
            peak = max(self._max, cur)
            self._max = cur
        return cur, peak

    def sampling(self, on: bool) -> None:
        (self._open.set if on else self._open.clear)()

    def close(self) -> None:
        self._stop = True
        self._open.set()
        self._thread.join()
        os.close(self._fd)


class Tracer:
    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, fs in LAYERS.items() for f in fs}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.peak_b = dict.fromkeys(PEAK, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[_Frame] = []
        self._peak_frames: list[_Frame] = []
        self._paused = 0
        self._restore: list[tuple[object, str, object]] = []
        self._rss: _RssSampler | None = None

    # -- spans ---------------------------------------------------------------

    def _fold_peak(self) -> int:
        cur, peak = self._rss.take()
        for f in self._peak_frames:
            f.peak = max(f.peak, peak)
        return cur

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, 0.0)
        if name in PEAK:
            frame.base = frame.peak = self._fold_peak()
            self._peak_frames.append(frame)
            self._rss.sampling(True)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        self.calls[frame.name] += 1
        self.self_s[frame.name] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        if frame.name in PEAK:
            self._fold_peak()
            self._peak_frames.pop()
            self.peak_b[frame.name] = max(self.peak_b[frame.name], frame.peak - frame.base)
            if not self._peak_frames:
                self._rss.sampling(False)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def count(self, name: str, amount: int) -> None:
        if not self._paused:
            self.counts[name] += amount

    def innermost(self) -> str | None:
        return self._stack[-1].name if self._stack and not self._paused else None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if hasattr(fn, "cache_info") else 0
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                missed = hasattr(fn, "cache_info") and fn.cache_info().misses > misses
                after(self, args, kwargs, result, missed)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        import threesq

        self._rss = _RssSampler()
        originals = {}
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"threesq.{mod_name}")
            for fn_name in names:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        package = [threesq] + [
            m for k, m in sys.modules.items() if k.startswith("threesq.") and m is not None
        ]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self._install_tree_counter()

    def _install_tree_counter(self) -> None:
        # covering_radius_mesh imports cKDTree when called; a subclass that
        # counts query points measures the mesh it actually queried
        import scipy.spatial

        base = scipy.spatial.cKDTree
        tracer = self

        class CountingTree(base):
            def query(self, x, *args, **kwargs):
                if tracer.innermost() == "spatial.covering_radius_mesh":
                    tracer.count("spatial.covering_radius_mesh.mesh_points", len(x))
                return super().query(x, *args, **kwargs)

        self._restore.append((scipy.spatial, "cKDTree", base))
        scipy.spatial.cKDTree = CountingTree

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        self._rss.close()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            if name in PEAK:
                out[f"{name}.peak_mb"] = (self.peak_b[name] / _MB, "MB")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out


# Exact work counts, taken from each call's arguments and result.


def _after_enumerate(tr, args, kwargs, result, missed):
    if missed:
        tr.count("lattice.points", result.size)


def _after_pair_table(tr, args, kwargs, result, missed):
    if missed:
        tr.count("lattice.pair_table.pairs", result.total)
        tr.count("lattice.pair_table.distinct_t", len(result.entries))


def _after_variance_series(tr, args, kwargs, result, missed):
    pts = kwargs.get("points", args[3] if len(args) > 3 else None)
    tr.count("harmonics.variance_series.terms", pts.size**2 * result.m_max)


def _after_number_variance(tr, args, kwargs, result, missed):
    tr.count("spatial.number_variance.centers", result.samples)


def _after_dirichlet(tr, args, kwargs, result, missed):
    n = args[0]
    tr.count("arith.dirichlet_l_one.q", n if n % 4 == 3 else 4 * n)


def _after_window(tr, args, kwargs, result, missed):
    tr.count("twosquares.window.integers", result.y)


_AFTER = {
    "lattice.enumerate_points": _after_enumerate,
    "lattice.pair_table": _after_pair_table,
    "harmonics.variance_series": _after_variance_series,
    "spatial.number_variance": _after_number_variance,
    "arith.dirichlet_l_one": _after_dirichlet,
    "twosquares.window": _after_window,
}
