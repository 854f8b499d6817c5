"""Tests for the post-silicon tuning policy."""

import numpy as np
import pytest

from repro.applications.tuning import TuningPolicy
from repro.applications.yield_estimation import Specification
from repro.baselines.somp import SOMP
from repro.basis.polynomial import LinearBasis


@pytest.fixture(scope="module")
def policy(lna_dataset):
    train, _ = lna_dataset.split(30)
    basis = LinearBasis(lna_dataset.n_variables)
    designs = basis.expand_states(train.inputs())
    models = {
        metric: SOMP(n_select=20, seed=0).fit(designs, train.targets(metric))
        for metric in lna_dataset.metric_names
    }
    specs = [
        Specification("nf_db", 1.55, "max"),
        Specification("gain_db", 24.5, "min"),
    ]
    return TuningPolicy(models, basis, specs)


class TestSelectStates:
    def test_shape_and_range(self, policy):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, policy.basis.n_variables))
        choice = policy.select_states(x)
        assert choice.shape == (100,)
        assert np.all(choice >= -1)
        assert np.all(choice < policy.n_states)

    def test_deterministic(self, policy):
        x = np.random.default_rng(1).standard_normal(
            (20, policy.basis.n_variables)
        )
        assert np.array_equal(
            policy.select_states(x), policy.select_states(x)
        )

    def test_selected_state_actually_passes(self, policy):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, policy.basis.n_variables))
        choice = policy.select_states(x)
        passes = policy.pass_matrix(x)
        for row, state in enumerate(choice):
            if state >= 0:
                assert passes[row, state]
            else:
                assert not passes[row].any()


class TestSummarize:
    def test_tuned_at_least_fixed(self, policy):
        summary = policy.summarize(n_samples=3000, seed=0)
        assert summary.tuned_yield >= summary.best_fixed_yield - 1e-12
        assert summary.tuning_gain >= -1e-12

    def test_state_yields_consistent(self, policy):
        summary = policy.summarize(n_samples=3000, seed=1)
        assert summary.state_yields.shape == (policy.n_states,)
        best = summary.state_yields[summary.best_fixed_state]
        assert best == pytest.approx(summary.best_fixed_yield)
        assert best == summary.state_yields.max()

    def test_yields_in_unit_interval(self, policy):
        summary = policy.summarize(n_samples=1000, seed=2)
        assert 0.0 <= summary.best_fixed_yield <= 1.0
        assert 0.0 <= summary.tuned_yield <= 1.0


class TestValidation:
    def test_spec_metric_must_have_model(self, lna_dataset):
        train, _ = lna_dataset.split(30)
        basis = LinearBasis(lna_dataset.n_variables)
        designs = basis.expand_states(train.inputs())
        models = {
            "nf_db": SOMP(n_select=20, seed=0).fit(designs, train.targets("nf_db"))
        }
        with pytest.raises(KeyError):
            TuningPolicy(
                models, basis, [Specification("gain_db", 20.0, "min")]
            )
