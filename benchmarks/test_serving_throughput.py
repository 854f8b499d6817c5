"""Serving-path throughput: one-row calls vs one bulk call.

The serving subsystem's claim is that sending requests together, so
they share one ``basis.expand + coef`` matmul per state group, beats
answering them one by one. This benchmark fits a small model set,
pushes it to a registry, then serves the same 10k mixed-state request
stream through

* one ``ModelService.predict`` call per row, and
* one ``ModelService.predict_many`` call for the whole stream,

asserting bit-equal answers and a >= 5x batched speedup (best-of-N
timing — the suite may share a noisy box). EXPERIMENTS.md records the
measured numbers.
"""

import contextlib
import gc
import time

import numpy as np
import pytest

from repro.modelset import PerformanceModelSet
from repro.serving import ModelRegistry, ModelService

N_REQUESTS = 10_000
N_POOL = 2_000
# Single-CPU CI boxes make one-shot timings bimodal (scheduler noise
# can double a run); both paths take the min over several passes.
TRIALS = 5


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """Registry with a pushed 4-state LNA model set + request stream."""
    from repro.circuits.lna import TunableLNA
    from repro.simulate.montecarlo import MonteCarloEngine

    lna = TunableLNA(n_states=4, n_variables=None)
    data = MonteCarloEngine(lna, seed=2016).run(18)
    train, _ = data.split(12)
    models = PerformanceModelSet.fit_dataset(train, method="somp", seed=0)
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.push("lna", models)

    rng = np.random.default_rng(2016)
    pool = rng.standard_normal((N_POOL, lna.n_variables))
    x = pool[rng.integers(0, N_POOL, N_REQUESTS)]
    states = rng.integers(0, models.n_states, N_REQUESTS)
    return registry, models, x, states


@contextlib.contextmanager
def _gc_paused():
    """Suppress collector pauses inside the timed region (both paths)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _time_single(registry, x, states):
    service = ModelService(registry)
    service.load("lna@latest")
    with _gc_paused():
        started = time.perf_counter()
        for i in range(len(states)):
            service.predict("lna", x[i], states[i])
        return time.perf_counter() - started


def _time_batched(registry, x, states):
    service = ModelService(registry)
    service.load("lna@latest")
    with _gc_paused():
        started = time.perf_counter()
        results = service.predict_many("lna", x, states)
        return time.perf_counter() - started, service, results


def test_batched_throughput_beats_single(benchmark, serving_setup):
    """One bulk call is >= 5x one-row calls on 10k requests."""
    registry, models, x, states = serving_setup
    _time_single(registry, x[:500], states[:500])  # warm numpy/BLAS
    _time_batched(registry, x, states)

    def measure():
        t_single = min(
            _time_single(registry, x, states) for _ in range(TRIALS)
        )
        best = [_time_batched(registry, x, states) for _ in range(TRIALS)]
        t_batched, service, results = min(best, key=lambda item: item[0])
        return t_single, t_batched, service, results

    t_single, t_batched, service, results = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = t_single / t_batched
    snapshot = service.metrics.snapshot()
    print(
        f"\nserving throughput — {N_REQUESTS} requests, "
        f"{N_POOL} unique points, K={models.n_states}\n"
        f"  single-request : {t_single:.3f}s "
        f"({N_REQUESTS / t_single:,.0f} req/s)\n"
        f"  bulk           : {t_batched:.3f}s "
        f"({N_REQUESTS / t_batched:,.0f} req/s)\n"
        f"  speedup        : {speedup:.1f}x\n"
        f"  batches        : {snapshot['batches']}"
    )
    assert speedup >= 5.0, (
        f"bulk speedup {speedup:.1f}x below the 5x floor "
        f"(single {t_single:.3f}s, batched {t_batched:.3f}s)"
    )

    # Answers equal the direct frozen-model predictions.
    frozen = models.freeze()
    check = np.random.default_rng(0).integers(0, N_REQUESTS, 50)
    for i in check:
        design = models.basis.expand(x[i][None, :])
        for metric, model in frozen.items():
            assert results[i].values[metric] == pytest.approx(
                float(model.predict(design, int(states[i]))[0]), abs=1e-12
            )


def test_streaming_coalescing_correct(serving_setup):
    """One-row requests from four concurrent threads stay correct."""
    import threading

    registry, models, x, states = serving_setup
    service = ModelService(registry)
    service.load("lna@latest")
    n = 400
    answers = [None] * n

    def worker(lo, hi):
        for i in range(lo, hi):
            answers[i] = service.predict("lna", x[i], states[i])

    threads = [
        threading.Thread(target=worker, args=(lo, lo + 100))
        for lo in range(0, n, 100)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    frozen = models.freeze()
    for i in range(0, n, 37):
        design = models.basis.expand(x[i][None, :])
        for metric, model in frozen.items():
            assert answers[i].values[metric] == pytest.approx(
                float(model.predict(design, int(states[i]))[0]), abs=1e-12
            )
