"""Plumbing shared by the benchmark workloads.

Environment capture and guard, an in-memory span recorder that wraps
library functions by module attribute, summary statistics, process
memory and CPU probes, and the per-run ``Outcome`` that every workload
fills in.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Everything a run writes lives here (git-ignored).
WORK_ROOT = ROOT / ".perfbench"
#: Traced runs leave their span and peel files here.
TRACE_DIR = WORK_ROOT / "traces"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Settings that would route around the code paths the benchmark
#: measures: a forced posterior solver hides the dual/Kronecker dispatch,
#: a worker pool moves the CV grid out of the traced process.
FORBIDDEN_ENV = ("REPRO_POSTERIOR_SOLVER", "REPRO_MAX_WORKERS")


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    Spawning cluster shards starts it; left alone it outlives this
    process and is never reaped where init does not reap orphans.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def forbidden_settings() -> List[str]:
    """Names of set variables the benchmark refuses to run under."""
    return [name for name in FORBIDDEN_ENV if name in os.environ]


# ----------------------------------------------------------------------
# Environment capture
# ----------------------------------------------------------------------
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_QUERIES = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_blas_paths() -> List[str]:
    try:
        with open("/proc/self/maps") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split()
        if len(fields) >= 6 and "openblas" in fields[-1].lower():
            paths.add(fields[-1])
    return sorted(paths)


def blas_libraries() -> List[Dict]:
    """Every loaded OpenBLAS with its effective thread count.

    The count is read from the library itself, so it reflects the
    library default (one thread per core) or any ``*_NUM_THREADS``
    override actually in force.
    """
    found = []
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = None
        for name in _THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads = int(query())
                break
        config = None
        for name in _CONFIG_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_char_p
                config = query().decode(errors="replace").strip()
                break
        found.append(
            {"library": Path(path).name, "threads": threads, "config": config}
        )
    return found


def environment() -> Dict:
    """Versions, core count, BLAS threading and the relevant variables."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_libraries(),
        "variables": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_") or key.endswith("_NUM_THREADS")
        },
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def per_call_s(fn: Callable[[], object], calls: int) -> float:
    """Seconds per call of ``fn``, best of three batches of ``calls``."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - started) / calls)
    return best


# ----------------------------------------------------------------------
# Process probes (Linux /proc; RSS falls back to getrusage)
# ----------------------------------------------------------------------
def _status_kb(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids: Optional[Iterable[int]] = None) -> float:
    """Summed peak resident set (VmHWM) of ``pids`` (default: this one)."""
    if pids is None:
        kb = _status_kb(os.getpid(), "VmHWM")
        if kb is None:
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kb / 1024.0
    return sum(_status_kb(pid, "VmHWM") or 0 for pid in pids) / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return children


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(child_pids(current))
    return tree


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Spans kept in memory: name, start, end, parent, optional tags.

    Single-threaded by design — the fit path runs inline when
    ``REPRO_MAX_WORKERS`` is unset, which the guard enforces.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, tag=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper until ``unwrap``.

        ``tag(args, result)`` may return extra fields for the span.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if tag is not None:
                    record.update(tag(args, result))
            return result

        setattr(module, attr, wrapper)
        self._restore.append(lambda: setattr(module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            self._restore.pop()()

    @staticmethod
    def span_cost_s(calls: int = 5000) -> float:
        """Measured extra seconds of one wrapped call over a bare call."""
        holder = types.SimpleNamespace(fn=lambda: None)
        bare = holder.fn
        Tracer().wrap(holder, "fn", "probe")
        return max(0.0, per_call_s(holder.fn, calls) - per_call_s(bare, calls))

    def named(self, name: str, **match) -> List[Dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in match.items())
        ]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        ids = {s["id"] for s in self.named(name)}
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return self.total(name) - children

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            dict(s, start=s["start"] - origin, end=s["end"] - origin)
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


# ----------------------------------------------------------------------
# The outcome of one run
# ----------------------------------------------------------------------
class Outcome:
    """Metrics, operation counts and failed checks of one workload run.

    ``e2e`` holds the gated ``end_to_end`` metrics and ``layers`` the
    ``per_layer`` ones (by ``BENCHMARK.json`` name). ``headline`` holds
    the ungated end-to-end figures (``fit_s``, ``p99_ms``, ...), which
    exist on only some workloads or are too noisy to gate; ``extra``
    holds details for the human-readable report.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.headline: Dict[str, float] = {}
        self.extra: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.warnings: List[str] = []

    def operation(self, ok: bool = True, problem: str = "") -> None:
        """Count one operation; a failed one records why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
