"""Tests for yield specifications and the model-based yields."""

import numpy as np
import pytest

from repro.applications.tuning import TuningPolicy
from repro.applications.yield_estimation import (
    Specification,
    analytic_spec_yield,
    monte_carlo_yield,
)
from repro.baselines.least_squares import LeastSquares
from repro.baselines.somp import SOMP
from repro.basis.polynomial import LinearBasis
from repro.errors import NumericalError


class TestSpecification:
    def test_max_spec(self):
        spec = Specification("nf_db", 3.0, "max")
        assert spec.passes(np.array([2.0, 3.0, 4.0])).tolist() == [
            True,
            True,
            False,
        ]

    def test_min_spec(self):
        spec = Specification("gain_db", 15.0, "min")
        assert spec.passes(np.array([14.0, 16.0])).tolist() == [False, True]

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Specification("nf_db", 3.0, "between")

    def test_rejects_non_finite_bound(self):
        """A NaN/inf bound would silently pass or fail every sample."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                Specification("nf_db", bad, "max")


class TestSpecificationParse:
    def test_max(self):
        spec = Specification.parse("nf_db<=3.0")
        assert spec == Specification("nf_db", 3.0, "max")

    def test_min(self):
        spec = Specification.parse("gain_db>=15")
        assert spec == Specification("gain_db", 15.0, "min")

    def test_whitespace_tolerated(self):
        spec = Specification.parse("  s21_db >= 16.5 ")
        assert spec.metric == "s21_db"
        assert spec.bound == 16.5

    def test_negative_and_scientific_bounds(self):
        assert Specification.parse("iip3_dbm>=-5.5").bound == -5.5
        assert Specification.parse("leak<=1e-6").bound == 1e-6

    def test_missing_operator_rejected(self):
        with pytest.raises(ValueError, match="must look like"):
            Specification.parse("nf_db=3.0")

    def test_empty_metric_rejected(self):
        with pytest.raises(ValueError, match="empty metric"):
            Specification.parse("<=3.0")

    def test_non_numeric_bound_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            Specification.parse("nf_db<=low")

    def test_non_finite_bound_rejected_via_parse(self):
        with pytest.raises(ValueError, match="finite"):
            Specification.parse("nf_db<=inf")


@pytest.fixture(scope="module")
def fitted_models(lna_dataset):
    train, _ = lna_dataset.split(30)
    basis = LinearBasis(lna_dataset.n_variables)
    designs = basis.expand_states(train.inputs())
    models = {}
    for metric in lna_dataset.metric_names:
        models[metric] = SOMP(n_select=20, seed=0).fit(
            designs, train.targets(metric)
        )
    return models, basis


def state_yields(models, basis, specs, n_samples, seed):
    """Per-state model yields from one ``TuningPolicy.summarize`` draw."""
    policy = TuningPolicy(models, basis, specs)
    return policy.summarize(n_samples=n_samples, seed=seed).state_yields


class TestTuningPolicyYields:
    def test_state_yields_in_unit_interval(self, fitted_models):
        models, basis = fitted_models
        policy = TuningPolicy(
            models, basis, [Specification("nf_db", 1.6, "max")]
        )
        yields = policy.summarize(n_samples=2000, seed=0).state_yields
        assert yields.shape == (policy.n_states,)
        assert np.all((0.0 <= yields) & (yields <= 1.0))

    def test_loose_spec_full_yield(self, fitted_models):
        models, basis = fitted_models
        specs = [Specification("nf_db", 100.0, "max")]
        yields = state_yields(models, basis, specs, 500, seed=1)
        assert np.allclose(yields, 1.0)

    def test_impossible_spec_zero_yield(self, fitted_models):
        models, basis = fitted_models
        specs = [Specification("gain_db", 1000.0, "min")]
        yields = state_yields(models, basis, specs, 500, seed=2)
        assert np.allclose(yields, 0.0)

    def test_tunable_yield_at_least_best_state(self, fitted_models):
        models, basis = fitted_models
        specs = [
            Specification("nf_db", 1.55, "max"),
            Specification("gain_db", 24.0, "min"),
        ]
        summary = TuningPolicy(models, basis, specs).summarize(
            n_samples=3000, seed=3
        )
        assert summary.tuned_yield >= summary.state_yields.max() - 1e-12

    def test_tighter_spec_lowers_yield(self, fitted_models):
        models, basis = fitted_models
        loose = state_yields(
            models, basis, [Specification("nf_db", 2.0, "max")], 2000, seed=4
        )
        tight = state_yields(
            models, basis, [Specification("nf_db", 1.4, "max")], 2000, seed=4
        )
        assert np.all(tight <= loose + 1e-12)

    def test_unknown_metric_rejected(self, fitted_models):
        models, basis = fitted_models
        with pytest.raises(KeyError):
            TuningPolicy(models, basis, [Specification("zzz", 1.0, "max")])

    def test_empty_specs_rejected(self, fitted_models):
        models, basis = fitted_models
        with pytest.raises(ValueError, match="at least one"):
            TuningPolicy(models, basis, [])

    def test_model_yield_matches_direct_mc(self, fitted_models, tiny_lna):
        """Model-based yield should track the simulator's own yield."""
        models, basis = fitted_models
        spec = Specification("gain_db", 24.0, "min")
        model_yield = state_yields(models, basis, [spec], 4000, seed=5)[0]
        direct = monte_carlo_yield(tiny_lna, 0, [spec], 300, seed=5)
        assert abs(model_yield - direct) < 0.15


class _NanModel:
    """Stub estimator whose predictions go non-finite at one state."""

    n_states = 2

    def predict(self, design, state):
        values = np.ones(design.shape[0])
        if state == 1:
            values[0] = np.nan
        return values


class _LinearCircuit:
    """Duck-typed circuit whose metrics are exactly linear in x."""

    n_variables = 4
    states = ("s0", "s1", "s2")
    n_states = 3

    def __init__(self):
        rng = np.random.default_rng(17)
        self.intercepts = rng.normal(2.0, 0.3, self.n_states)
        self.weights = rng.normal(0.0, 0.5, (self.n_states, self.n_variables))

    def evaluate_x(self, x, state):
        k = self.states.index(state)
        return {
            "gain": float(self.intercepts[k] + self.weights[k] @ x)
        }


class TestNumericalErrors:
    def test_pass_matrix_rejects_non_finite_predictions(self):
        spec = Specification("m", 1.5, "max")
        policy = TuningPolicy({"m": _NanModel()}, LinearBasis(3), [spec])
        with pytest.raises(NumericalError, match="'m'.*state 1"):
            policy.pass_matrix(np.zeros((4, 3)))

    def test_monte_carlo_yield_rejects_non_finite_circuit_values(self):
        class NanCircuit(_LinearCircuit):
            def evaluate_x(self, x, state):
                return {"gain": float("nan")}

        spec = Specification("gain", 2.0, "min")
        with pytest.raises(NumericalError, match="non-finite 'gain'"):
            monte_carlo_yield(NanCircuit(), 0, [spec], 5, seed=0)


class TestLinearCircuitAgreement:
    """On an exactly-linear circuit the model fit is exact, so the
    model-based estimator, the direct circuit Monte Carlo and the
    closed-form normal-CDF yield must all agree tightly."""

    @pytest.fixture(scope="class")
    def fitted(self):
        circuit = _LinearCircuit()
        rng = np.random.default_rng(3)
        basis = LinearBasis(circuit.n_variables)
        inputs = [
            rng.standard_normal((60, circuit.n_variables))
            for _ in range(circuit.n_states)
        ]
        targets = [
            np.array([
                circuit.evaluate_x(row, circuit.states[k])["gain"]
                for row in x
            ])
            for k, x in enumerate(inputs)
        ]
        model = LeastSquares().fit(basis.expand_states(inputs), targets)
        return circuit, model, basis

    def test_estimator_matches_direct_mc(self, fitted):
        circuit, model, basis = fitted
        spec = Specification("gain", 2.0, "min")
        model_yields = state_yields({"gain": model}, basis, [spec], 20_000, 5)
        for k in range(circuit.n_states):
            direct = monte_carlo_yield(circuit, k, [spec], 2_000, seed=5)
            assert abs(model_yields[k] - direct) < 0.04

    def test_estimator_matches_analytic(self, fitted):
        circuit, model, basis = fitted
        spec = Specification("gain", 2.0, "min")
        model_yields = state_yields({"gain": model}, basis, [spec], 50_000, 6)
        for k in range(circuit.n_states):
            exact = analytic_spec_yield(model, basis, spec, k)
            assert abs(model_yields[k] - exact) < 0.015


class TestMonteCarloYield:
    def test_bounds(self, tiny_lna):
        spec = Specification("nf_db", 100.0, "max")
        assert monte_carlo_yield(tiny_lna, 0, [spec], 20, seed=0) == 1.0

    def test_state_range_checked(self, tiny_lna):
        spec = Specification("nf_db", 3.0, "max")
        with pytest.raises(IndexError):
            monte_carlo_yield(tiny_lna, 99, [spec], 10)

    def test_empty_specs_rejected(self, tiny_lna):
        with pytest.raises(ValueError):
            monte_carlo_yield(tiny_lna, 0, [], 10)
