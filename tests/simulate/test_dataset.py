"""Tests for dataset containers."""

import numpy as np
import pytest

from repro.simulate.dataset import Dataset, StateData


def make_state(n=10, n_vars=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n_vars))
    return StateData(
        x=x, y={"a": x[:, 0] * 2.0, "b": np.arange(float(n))}
    )


def make_dataset(n_states=3, n=10):
    return Dataset(
        "test",
        [make_state(n=n, seed=k) for k in range(n_states)],
    )


class TestStateData:
    def test_n_samples(self):
        assert make_state(7).n_samples == 7

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="length"):
            StateData(x=np.zeros((3, 2)), y={"a": np.zeros(4)})

    def test_rejects_empty_metrics(self):
        with pytest.raises(ValueError, match="at least one metric"):
            StateData(x=np.zeros((3, 2)), y={})

    def test_head(self):
        head = make_state(10).head(4)
        assert head.n_samples == 4
        assert head.y["b"][-1] == 3.0

    def test_tail(self):
        tail = make_state(10).tail(4)
        assert tail.n_samples == 4
        assert tail.y["b"][0] == 6.0

    def test_head_range_checked(self):
        with pytest.raises(ValueError):
            make_state(5).head(6)
        with pytest.raises(ValueError):
            make_state(5).tail(0)

    def test_head_returns_copy(self):
        state = make_state(5)
        head = state.head(2)
        head.x[0, 0] = 999.0
        assert state.x[0, 0] != 999.0


class TestDataset:
    def test_basic_shape(self):
        data = make_dataset()
        assert data.n_states == 3
        assert data.n_samples_per_state == (10, 10, 10)
        assert data.n_samples_total == 30
        assert data.n_variables == 4

    def test_metric_names_sorted_by_default(self):
        assert make_dataset().metric_names == ("a", "b")

    def test_inputs_and_targets(self):
        data = make_dataset()
        assert len(data.inputs()) == 3
        assert len(data.targets("a")) == 3
        with pytest.raises(KeyError):
            data.targets("missing")

    def test_rejects_inconsistent_variables(self):
        states = [make_state(n_vars=4), make_state(n_vars=5)]
        with pytest.raises(ValueError, match="variables"):
            Dataset("bad", states)

    def test_rejects_missing_metric(self):
        good = make_state()
        bad = StateData(x=np.zeros((3, 4)), y={"a": np.zeros(3)})
        with pytest.raises(ValueError, match="missing metrics"):
            Dataset("bad", [good, bad])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one state"):
            Dataset("bad", [])

    def test_head(self):
        head = make_dataset(n=10).head(3)
        assert head.n_samples_per_state == (3, 3, 3)

    def test_split(self):
        train, test = make_dataset(n=10).split(6)
        assert train.n_samples_per_state == (6, 6, 6)
        assert test.n_samples_per_state == (4, 4, 4)
        # Disjoint: train is head, test is tail.
        assert train.states[0].y["b"][-1] == 5.0
        assert test.states[0].y["b"][0] == 6.0

    def test_split_range_checked(self):
        with pytest.raises(ValueError):
            make_dataset(n=10).split(10)
        with pytest.raises(ValueError):
            make_dataset(n=10).split(0)

    def test_save_load_roundtrip(self, tmp_path):
        data = make_dataset()
        path = tmp_path / "data.npz"
        data.save(path)
        loaded = Dataset.load(path)
        assert loaded.circuit_name == data.circuit_name
        assert loaded.metric_names == data.metric_names
        assert loaded.n_states == data.n_states
        for a, b in zip(loaded.states, data.states):
            assert np.allclose(a.x, b.x)
            for metric in data.metric_names:
                assert np.allclose(a.y[metric], b.y[metric])
