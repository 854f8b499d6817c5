"""Deterministic process-pool mapping for embarrassingly parallel fits.

The fit path contains several independent-cell grids — the S-OMP
cross-validation cells (fold × r0 × σ0), the repeated-experiment seeds and
the error-vs-samples sweep points. ``parallel_map`` runs such cells on a
spawn-based process pool while guaranteeing **bit-identical results for
any worker count**:

* cells are pure functions of their inputs (no shared mutable state);
* results are returned in submission order, never completion order;
* randomness is derived *before* dispatch (:func:`derive_seeds` gives
  order-stable child seeds from one parent seed), so scheduling cannot
  perturb a single random draw.

Workers default to serial (``workers=1`` runs inline in this process, no
pool, no pickling) and are overridden globally with the
``REPRO_MAX_WORKERS`` environment variable or per call with
``max_workers``. The spawn start method is used everywhere — fork-unsafe
BLAS state can never leak into workers, and behavior matches across
Linux/macOS/Windows.

Fault tolerance: a crashed worker (segfault, OOM kill, ``os._exit``)
breaks the pool, but not the map — every task the pool failed to answer
is re-run inline in the parent, so the result list is still complete and
bit-identical (cells are pure functions). ``task_timeout`` (or the
``REPRO_TASK_TIMEOUT`` env var) additionally bounds how long any single
task may run; on expiry the pool's workers are terminated and the
unfinished tasks re-run inline. Chaos tests arm a one-shot worker crash
through the ``REPRO_FAULT_WORKER_CRASH`` token file (see
:class:`repro.faults.worker_crash_flag`).

BLAS threads: :func:`one_blas_thread` caps every loaded OpenBLAS at one
thread while it is entered. The fit path's dense algebra is a stream of
small calls (dual-space kernels of a few hundred rows, K×K and p×p
factorizations) whose cost on a few cores is dominated by waking
OpenBLAS's worker threads, not by flops; one thread was never slower at
any fit shape in the repository. ``parallel_map`` runs every cell inside
the scope — inline cells, and each spawned worker for its whole life —
so process-level ``REPRO_MAX_WORKERS`` stays the only parallelism
control, and answers stay bit-identical across worker counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

__all__ = [
    "parallel_map",
    "resolve_workers",
    "resolve_task_timeout",
    "derive_seeds",
    "one_blas_thread",
    "openblas_thread_counts",
]

T = TypeVar("T")
R = TypeVar("R")

#: Worker-local shared payload installed by the pool initializer.
_SHARED: Any = None

#: (getter, setter) thread-count symbols of an OpenBLAS build, in lookup
#: order: numpy's ILP64 copy, scipy's LP64 copy, then the names older
#: wheels export.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _BlasControl(NamedTuple):
    """Thread-count getter and setter of one loaded OpenBLAS."""

    path: str
    get: Callable[[], int]
    set: Callable[[int], None]


_BLAS_LOCK = threading.Lock()
#: Open :func:`one_blas_thread` entries across all threads.
_blas_depth = 0
#: Control and thread count saved when the scope capped each library.
_blas_saved: Dict[str, Tuple[_BlasControl, int]] = {}


def resolve_workers(
    max_workers: Optional[int] = None, *, n_items: Optional[int] = None
) -> int:
    """Resolve the worker count: explicit > ``REPRO_MAX_WORKERS`` env > 1.

    The result is clamped to ``n_items`` when given — a pool larger than
    the task list only burns interpreter start-ups.
    """
    if max_workers is None:
        env = os.environ.get("REPRO_MAX_WORKERS", "").strip()
        max_workers = int(env) if env else 1
    max_workers = int(max_workers)
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if n_items is not None:
        max_workers = max(1, min(max_workers, n_items))
    return max_workers


def resolve_task_timeout(
    task_timeout: Optional[float] = None,
) -> Optional[float]:
    """Resolve the per-task timeout: explicit > ``REPRO_TASK_TIMEOUT`` env.

    ``None`` (the default everywhere) disables the timeout.
    """
    if task_timeout is None:
        env = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
        task_timeout = float(env) if env else None
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(
            f"task_timeout must be > 0, got {task_timeout}"
        )
    return task_timeout


def derive_seeds(seed, count: int) -> List[np.random.SeedSequence]:
    """``count`` independent child seed sequences from one parent seed.

    Children are a pure function of ``(seed, index)`` — identical no
    matter how many workers later consume them, which is what keeps
    parallel stochastic cells bit-identical to their serial run.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        parent = seed.bit_generator.seed_seq
    elif isinstance(seed, np.random.SeedSequence):
        parent = seed
    else:
        parent = np.random.SeedSequence(seed)
    return list(parent.spawn(count))


def _resolve_blas_control(path: str) -> Optional[_BlasControl]:
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        getter = getattr(library, get_name, None)
        setter = getattr(library, set_name, None)
        if getter is not None and setter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return _BlasControl(path, getter, setter)
    return None


def _openblas_controls() -> List[_BlasControl]:
    """Thread controls of every OpenBLAS mapped into this process.

    Read from ``/proc/self/maps`` at each call, because scipy's copy is
    only loaded once ``scipy.linalg`` is imported. Empty where there is
    no ``/proc`` or no OpenBLAS.
    """
    try:
        with open("/proc/self/maps", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    paths = {
        fields[-1]
        for fields in map(str.split, lines)
        if len(fields) >= 6 and "openblas" in fields[-1].lower()
    }
    controls = [_resolve_blas_control(path) for path in sorted(paths)]
    return [control for control in controls if control is not None]


def openblas_thread_counts() -> Dict[str, int]:
    """Current thread count of every loaded OpenBLAS, by library path."""
    return {control.path: control.get() for control in _openblas_controls()}


def _enter_one_blas_thread() -> None:
    global _blas_depth
    with _BLAS_LOCK:
        _blas_depth += 1
        # Every entry looks again: a library loaded since the scope
        # opened (scipy's, in a fresh worker) is capped too.
        for control in _openblas_controls():
            if control.path not in _blas_saved:
                _blas_saved[control.path] = (control, control.get())
                control.set(1)


def _exit_one_blas_thread() -> None:
    global _blas_depth
    with _BLAS_LOCK:
        _blas_depth -= 1
        if _blas_depth == 0:
            for control, threads in _blas_saved.values():
                control.set(threads)
            _blas_saved.clear()


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the enclosed dense algebra on one OpenBLAS thread.

    Re-entrant and thread-safe: the first entry (from any thread) saves
    every loaded OpenBLAS's thread count and sets it to one; the last
    exit restores the saved counts, also when the body raises. Usable as
    a decorator (``@one_blas_thread()``). Without OpenBLAS, or on a
    1-core host where it already runs one thread, it changes nothing.
    """
    _enter_one_blas_thread()
    try:
        yield
    finally:
        _exit_one_blas_thread()


def _init_worker(shared: Any) -> None:
    """Pool initializer: stash the shared payload once per worker and
    hold the one-BLAS-thread scope for the worker's whole life."""
    global _SHARED
    _SHARED = shared
    _enter_one_blas_thread()


def _consume_crash_token() -> None:
    """Die mid-task if the chaos-test crash token names this process.

    ``REPRO_FAULT_WORKER_CRASH`` (exported by
    :class:`repro.faults.worker_crash_flag`, inherited by spawn workers)
    points at a token file; the first task to remove it hard-exits its
    worker. Exactly one task dies per armed token, and the atomic
    ``os.remove`` guarantees no double fire across racing workers.
    """
    token = os.environ.get("REPRO_FAULT_WORKER_CRASH", "")
    if not token:
        return
    try:
        os.remove(token)
    except OSError:
        return  # already consumed by another task
    os._exit(1)


def _invoke(fn: Callable, item: Any, with_shared: bool) -> Any:
    """Run one cell in a worker, forwarding the worker-local payload."""
    _consume_crash_token()
    # Nested inside the worker's lifetime scope: catches the libraries
    # unpickling ``fn`` loaded (scipy's OpenBLAS) after the initializer.
    with one_blas_thread():
        if with_shared:
            return fn(item, _SHARED)
        return fn(item)


def _terminate_workers(executor) -> None:
    """Hard-stop every pool process (stalled-task recovery path)."""
    for process in list(getattr(executor, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass


def parallel_map(
    fn: Callable[..., R],
    items: Sequence[T],
    *,
    shared: Any = None,
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally on a spawn process pool.

    Parameters
    ----------
    fn:
        A **module-level** function (picklable under spawn). Called as
        ``fn(item)`` — or ``fn(item, shared)`` when ``shared`` is given.
    items:
        The independent cells; results come back in this exact order.
    shared:
        Optional read-only payload shipped to each worker once (via the
        pool initializer) instead of once per task — pass the big arrays
        here, keep ``items`` small.
    max_workers:
        Worker count; ``None`` defers to ``REPRO_MAX_WORKERS`` (default
        1 = run serially inline, no subprocesses at all).
    task_timeout:
        Per-task wall-clock bound in seconds; ``None`` defers to
        ``REPRO_TASK_TIMEOUT`` (default: no bound). A task that exceeds
        it has the pool's workers terminated and is re-run inline.

    Tasks a worker crash (or the timeout) left unanswered are recomputed
    inline in the parent — cells are pure functions, so the completed
    result list is bit-identical to an undisturbed run, in submission
    order. Exceptions raised by ``fn`` itself still propagate.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_workers(max_workers, n_items=len(items))
    task_timeout = resolve_task_timeout(task_timeout)
    with_shared = shared is not None

    def run_inline(item: T) -> R:
        return fn(item, shared) if with_shared else fn(item)

    if workers == 1:
        with one_blas_thread():
            return [run_inline(item) for item in items]

    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    context = mp.get_context("spawn")
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(shared,),
    )
    results: List[Any] = []
    failed: List[int] = []
    killed = False
    try:
        futures = [
            executor.submit(_invoke, fn, item, with_shared)
            for item in items
        ]
        for index, future in enumerate(futures):
            try:
                results.append(future.result(timeout=task_timeout))
            except BrokenProcessPool:
                # A worker died; this future (and possibly every pending
                # one — each lands here in turn) is recomputed inline.
                results.append(None)
                failed.append(index)
            except FuturesTimeout:
                # A stalled worker never returns. Kill the pool — the
                # remaining futures fail fast as BrokenProcessPool — and
                # recompute inline.
                killed = True
                _terminate_workers(executor)
                results.append(None)
                failed.append(index)
    finally:
        executor.shutdown(wait=not killed, cancel_futures=True)
    with one_blas_thread():
        for index in failed:
            results[index] = run_inline(items[index])
    return results
