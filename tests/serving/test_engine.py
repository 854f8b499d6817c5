"""Tests for the micro-batching prediction engine."""

import threading
import time

import numpy as np
import pytest

from repro.basis.polynomial import LinearBasis
from repro.core.frozen import FrozenModel
from repro.serving import BatchConfig, PredictionEngine, ServedModel


def make_served(
    n_states=4, n_variables=6, seed=0, version=1, scale=1.0, name="lna"
):
    """A deterministic two-metric served model on a linear basis."""
    rng = np.random.default_rng(seed)
    basis = LinearBasis(n_variables)
    models = {
        metric: FrozenModel(
            scale * rng.standard_normal((n_states, basis.n_basis)),
            metric=metric,
        )
        for metric in ("nf_db", "gain_db")
    }
    return ServedModel(name, version, basis, models)


def direct(served, x, state):
    """Reference: FrozenModel.predict on the single-row design."""
    design = served.basis.expand(np.asarray(x, dtype=float)[None, :])
    return {
        metric: float(served.predict_design(design, state)[metric][0])
        for metric in served.metric_names
    }


class TestServedModel:
    def test_state_count_consistency(self):
        basis = LinearBasis(3)
        with pytest.raises(ValueError, match="state count"):
            ServedModel(
                "m", 1, basis,
                {
                    "a": FrozenModel(np.ones((2, 4))),
                    "b": FrozenModel(np.ones((3, 4))),
                },
            )

    def test_basis_dimension_checked(self):
        with pytest.raises(ValueError, match="basis"):
            ServedModel(
                "m", 1, LinearBasis(3), {"a": FrozenModel(np.ones((2, 9)))}
            )

    def test_requires_models(self):
        with pytest.raises(ValueError):
            ServedModel("m", 1, LinearBasis(3), {})


class TestSingleRequests:
    def test_matches_direct_prediction(self):
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=1, flush_interval=0.0)
        )
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(6)
            state = int(rng.integers(0, served.n_states))
            result = engine.predict(served, x, state)
            reference = direct(served, x, state)
            for metric, value in reference.items():
                assert result.values[metric] == pytest.approx(
                    value, abs=1e-12
                )
            assert result.version == 1

    def test_wrong_dimension_rejected(self):
        served = make_served()
        engine = PredictionEngine()
        with pytest.raises(ValueError, match="variables"):
            engine.predict(served, np.zeros(5), 0)

    def test_bad_state_rejected(self):
        served = make_served()
        engine = PredictionEngine()
        with pytest.raises(IndexError):
            engine.predict(served, np.zeros(6), 99)

    def test_batch_error_propagates_to_waiter(self):
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=1, flush_interval=0.0)
        )
        # Sneak past the early request check so the failure happens at
        # flush time, inside the batch computation.
        engine._check_request = lambda served, x, state: np.asarray(
            x, dtype=float
        )
        with pytest.raises(ValueError):
            engine.predict(served, np.zeros(3), 0)

    def test_matrix_shaped_x_rejected(self):
        """Regression: a (2, 3) array was flattened and answered as if
        it were one 6-vector."""
        served = make_served()
        engine = PredictionEngine()
        with pytest.raises(ValueError, match="one sample vector"):
            engine.predict(served, np.zeros((2, 3)), 0)

    def test_bad_request_fails_alone(self):
        """Regression: a non-finite request was queued unchecked and its
        flush failed every request coalesced with it."""
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=2, flush_interval=None)
        )
        x = np.linspace(-1.0, 1.0, 6)
        results = {}

        def good():
            results["good"] = engine.predict(served, x, 2)

        worker = threading.Thread(target=good, daemon=True)
        worker.start()
        deadline = time.monotonic() + 10.0
        while not engine._queue and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(engine._queue) == 1
        bad = x.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            engine.predict(served, bad, 2)
        assert len(engine._queue) == 1  # the bad call was not queued
        with pytest.raises(ValueError):
            engine.predict(served, x.reshape(2, 3), 2)
        assert len(engine._queue) == 1
        assert engine.flush() == 1
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        design = served.basis.expand(x[None, :])
        for metric, frozen in served.models.items():
            assert results["good"].values[metric] == float(
                frozen.predict(design, 2)[0]
            )


class TestMicroBatching:
    def test_bulk_equals_one_by_one(self):
        served = make_served(seed=3)
        rng = np.random.default_rng(4)
        n = 300
        x = rng.standard_normal((n, 6))
        states = rng.integers(0, served.n_states, n)

        one_by_one = PredictionEngine(
            batch=BatchConfig(max_batch_size=1, flush_interval=0.0)
        )
        singles = [
            one_by_one.predict(served, x[i], states[i]) for i in range(n)
        ]
        bulk = PredictionEngine()
        batched = bulk.predict_many(served, x, states)
        for single, many in zip(singles, batched):
            for metric in served.metric_names:
                assert single.values[metric] == pytest.approx(
                    many.values[metric], abs=1e-12
                )

    def test_one_matmul_per_state_group(self):
        served = make_served()
        engine = PredictionEngine()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        states = np.repeat(np.arange(4), 10)
        engine.predict_many(served, x, states)
        snapshot = engine.metrics.snapshot()
        assert snapshot["batches"] == 4
        assert snapshot["mean_batch_size"] == 10

    def test_queue_flushes_at_max_batch_size(self):
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=4, flush_interval=30.0)
        )
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 6))
        results = [None] * 4

        def worker(i):
            results[i] = engine.predict(served, x[i], 0)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            # Far below the 30s interval: only the size trigger can
            # have answered these.
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        for i in range(4):
            reference = direct(served, x[i], 0)
            for metric, value in reference.items():
                assert results[i].values[metric] == pytest.approx(
                    value, abs=1e-12
                )
        assert engine.metrics.snapshot()["max_batch_size"] == 4

    def test_identical_inflight_requests_coalesce(self):
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=8, flush_interval=0.05)
        )
        x = np.ones(6)
        results = []
        lock = threading.Lock()

        def worker():
            result = engine.predict(served, x, 1)
            with lock:
                results.append(result)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        # Coalesced, not deduplicated: every request is its own row.
        assert len(results) == 4
        reference = direct(served, x, 1)
        for result in results:
            assert not result.cached
            for metric, value in reference.items():
                assert result.values[metric] == pytest.approx(
                    value, rel=1e-12, abs=1e-12
                )
        snapshot = engine.metrics.snapshot()
        assert snapshot["requests"] == 4
        assert snapshot["batched_rows"] == 4

    def test_repeated_rows_are_each_computed(self):
        served = make_served()
        engine = PredictionEngine()
        row = np.linspace(0.0, 1.0, 6)
        x = np.vstack([row, row, -row, row, -row])
        states = [3, 3, 1, 1, 3]
        results = engine.predict_many(served, x, states)
        for state in (1, 3):
            rows = [i for i, s in enumerate(states) if s == state]
            design = served.basis.expand(x[rows])
            for metric, frozen in served.models.items():
                expected = frozen.predict(design, state)
                assert [results[i].values[metric] for i in rows] == list(
                    expected
                )
        assert not any(result.cached for result in results)
        snapshot = engine.metrics.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["batched_rows"] == 5


class TestConfigValidation:
    def test_batch_config(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchConfig(flush_interval=-1.0)


class TestFlushIntervalSemantics:
    """Regression: ``flush_interval=0`` must mean *immediate*, never
    *wait forever* — the old ``flush_interval or None`` coercion
    conflated the falsy 0 with None."""

    def test_wait_timeout_distinguishes_zero_from_none(self):
        assert BatchConfig(flush_interval=None).wait_timeout() is None
        zero = BatchConfig(flush_interval=0).wait_timeout()
        assert zero is not None and 0 < zero < 0.01
        assert BatchConfig(flush_interval=0.5).wait_timeout() == 0.5

    def test_zero_interval_answers_immediately(self):
        import time

        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=64, flush_interval=0.0)
        )
        x = np.zeros(served.basis.n_variables)
        started = time.perf_counter()
        result = engine.predict(served, x, 0)
        assert time.perf_counter() - started < 1.0
        assert result.values == direct(served, x, 0)

    def test_none_interval_waits_for_size_or_explicit_flush(self):
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=2, flush_interval=None)
        )
        x = np.zeros(served.basis.n_variables)
        results = {}

        def request():
            results["value"] = engine.predict(served, x, 0)

        worker = threading.Thread(target=request, daemon=True)
        worker.start()
        worker.join(timeout=0.2)
        assert worker.is_alive()  # parked: no timeout flush with None
        engine.flush()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert results["value"].values == direct(served, x, 0)

    def test_none_interval_size_triggered_flush(self):
        served = make_served()
        engine = PredictionEngine(
            batch=BatchConfig(max_batch_size=1, flush_interval=None),
        )
        x = np.ones(served.basis.n_variables)
        result = engine.predict(served, x, 1)
        assert result.values == direct(served, x, 1)
