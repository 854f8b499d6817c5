"""Tests for PerformanceModelSet."""

import numpy as np
import pytest

from repro.applications import Specification, TuningPolicy
from repro.basis.polynomial import LinearBasis
from repro.modelset import PerformanceModelSet


@pytest.fixture(scope="module")
def model_set(lna_dataset):
    train, _ = lna_dataset.split(25)
    return PerformanceModelSet.fit_dataset(train, method="somp", seed=0)


class TestFitDataset:
    def test_all_metrics_fitted(self, model_set, lna_dataset):
        assert set(model_set.metric_names) == set(lna_dataset.metric_names)
        assert model_set.n_states == lna_dataset.n_states

    def test_cbmf_method(self, lna_dataset):
        train, test = lna_dataset.split(12)
        models = PerformanceModelSet.fit_dataset(
            train, method="cbmf", metrics=("nf_db",), seed=0
        )
        x = test.states[0].x
        prediction = models.predict(x, 0)["nf_db"]
        truth = test.states[0].y["nf_db"]
        relative = np.mean(np.abs(prediction - truth)) / np.mean(
            np.abs(truth)
        )
        assert relative < 0.05

    def test_metric_subset(self, lna_dataset):
        train, _ = lna_dataset.split(25)
        subset = PerformanceModelSet.fit_dataset(
            train, method="ridge", metrics=("gain_db",), seed=0
        )
        assert subset.metric_names == ("gain_db",)

    def test_model_lookup(self, model_set):
        assert model_set.model("gain_db").n_states == model_set.n_states
        with pytest.raises(KeyError):
            model_set.model("zzz")

    def test_state_count_consistency_enforced(self):
        from repro.core.frozen import FrozenModel

        basis = LinearBasis(3)
        with pytest.raises(ValueError, match="state count"):
            PerformanceModelSet(
                {
                    "a": FrozenModel(np.ones((2, 4))),
                    "b": FrozenModel(np.ones((3, 4))),
                },
                basis,
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PerformanceModelSet({}, LinearBasis(3))


class TestPredict:
    def test_predict_matrix(self, model_set, lna_dataset):
        x = np.random.default_rng(0).standard_normal(
            (5, lna_dataset.n_variables)
        )
        out = model_set.predict(x, state=1)
        assert set(out) == set(model_set.metric_names)
        for values in out.values():
            assert values.shape == (5,)

    def test_predict_point(self, model_set, lna_dataset):
        x = np.zeros(lna_dataset.n_variables)
        out = model_set.predict_point(x, state=0)
        assert all(isinstance(v, float) for v in out.values())
        # At the typical corner the prediction approximates the nominal.
        assert 10.0 < out["gain_db"] < 35.0

    def test_predict_matches_underlying_model(self, model_set, lna_dataset):
        x = np.random.default_rng(1).standard_normal(
            (3, lna_dataset.n_variables)
        )
        design = model_set.basis.expand(x)
        direct = model_set.model("nf_db").predict(design, 2)
        via_set = model_set.predict(x, 2)["nf_db"]
        assert np.allclose(direct, via_set)

    def test_feeds_yield_estimator(self, model_set):
        policy = TuningPolicy(
            model_set.as_mapping(), model_set.basis,
            [Specification("nf_db", 2.0, "max")],
        )
        yields = policy.summarize(n_samples=500, seed=0).state_yields
        assert yields.shape == (model_set.n_states,)


class TestFreezeRoundtrip:
    def test_save_load_dir(self, model_set, lna_dataset, tmp_path):
        model_set.save_dir(tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.npz"))
        assert files == sorted(
            f"{m}.npz" for m in lna_dataset.metric_names
        )
        loaded = PerformanceModelSet.load_dir(
            tmp_path, LinearBasis(lna_dataset.n_variables)
        )
        x = np.random.default_rng(2).standard_normal(
            (4, lna_dataset.n_variables)
        )
        for metric in model_set.metric_names:
            assert np.allclose(
                loaded.predict(x, 0)[metric],
                model_set.predict(x, 0)[metric],
            )

    def test_load_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PerformanceModelSet.load_dir(tmp_path, LinearBasis(3))
