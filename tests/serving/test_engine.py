"""Tests for the prediction engine."""

import threading

import numpy as np
import pytest

from repro.basis.polynomial import LinearBasis
from repro.core.frozen import FrozenModel
from repro.serving import PredictionEngine, ServedModel


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
        engine = PredictionEngine()
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

    def test_matrix_shaped_x_rejected(self):
        """Regression: a (2, 3) array was flattened and answered as if
        it were one 6-vector."""
        served = make_served()
        engine = PredictionEngine()
        with pytest.raises(ValueError, match="one sample vector"):
            engine.predict(served, np.zeros((2, 3)), 0)

    def test_non_finite_rejected(self):
        served = make_served()
        x = np.linspace(-1.0, 1.0, 6)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PredictionEngine().predict(served, x, 2)


class TestMicroBatching:
    def test_bulk_equals_one_by_one(self):
        served = make_served(seed=3)
        rng = np.random.default_rng(4)
        n = 300
        x = rng.standard_normal((n, 6))
        states = rng.integers(0, served.n_states, n)

        one_by_one = PredictionEngine()
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

    def test_identical_inflight_requests_coalesce(self):
        served = make_served()
        engine = PredictionEngine()
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
        # Not deduplicated: every request is its own row.
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
