"""Tests for sensitivity ranking and analytic yield."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.applications.sensitivity import format_ranking, rank_sensitivities
from repro.applications.tuning import TuningPolicy
from repro.applications.yield_estimation import (
    Specification,
    analytic_spec_yield,
)
from repro.basis.polynomial import LinearBasis, QuadraticBasis
from repro.core.frozen import FrozenModel


def planted_model(n_vars=6, n_states=2):
    """Frozen linear model with known coefficients."""
    coef = np.zeros((n_states, n_vars + 1))
    coef[0] = [10.0, 0.1, -3.0, 0.0, 1.0, 0.0, 0.5]
    coef[1] = [12.0, 0.2, -1.0, 0.0, 2.0, 0.0, 0.5]
    return FrozenModel(coef), LinearBasis(n_vars)


class TestRankSensitivities:
    def test_order_and_content(self):
        model, basis = planted_model()
        ranking = rank_sensitivities(model, basis, state=0, top=3)
        assert [e.index for e in ranking] == [1, 3, 5]  # |−3|, |1|, |0.5|
        assert ranking[0].coefficient == -3.0

    def test_custom_names(self):
        model, basis = planted_model()
        names = [f"dev{i}.vth" for i in range(6)]
        ranking = rank_sensitivities(
            model, basis, 0, variable_names=names, top=1
        )
        assert ranking[0].variable == "dev1.vth"

    def test_top_capped(self):
        model, basis = planted_model()
        ranking = rank_sensitivities(model, basis, 0, top=100)
        assert len(ranking) == 6

    def test_state_specific(self):
        model, basis = planted_model()
        r0 = rank_sensitivities(model, basis, 0, top=1)
        r1 = rank_sensitivities(model, basis, 1, top=1)
        assert r0[0].index == 1  # −3 dominates state 0
        assert r1[0].index == 3  # +2 dominates state 1

    def test_rejects_nonlinear_basis(self):
        model, _ = planted_model()
        with pytest.raises(TypeError, match="LinearBasis"):
            rank_sensitivities(model, QuadraticBasis(3), 0)

    def test_name_count_checked(self):
        model, basis = planted_model()
        with pytest.raises(ValueError, match="names"):
            rank_sensitivities(model, basis, 0, variable_names=["a"])

    def test_format(self):
        model, basis = planted_model()
        text = format_ranking(
            rank_sensitivities(model, basis, 0, top=3), unit="dB"
        )
        assert "variable" in text
        assert "-3" in text

    def test_lna_ranking_names_core_devices(self, tiny_lna, lna_dataset):
        """On the real LNA the top gain sensitivities should be physical
        (core/DAC/tank devices), not peripheral padding."""
        from repro.baselines.somp import SOMP

        train, _ = lna_dataset.split(30)
        basis = LinearBasis(lna_dataset.n_variables)
        model = SOMP(n_select=15, seed=0).fit(
            basis.expand_states(train.inputs()), train.targets("gain_db")
        )
        ranking = rank_sensitivities(
            model,
            basis,
            0,
            variable_names=tiny_lna.process_model.variable_names,
            top=5,
        )
        assert all("LNAPER" not in e.variable for e in ranking)


class TestAnalyticYield:
    def test_matches_normal_cdf(self):
        model, basis = planted_model()
        spec = Specification("m", 11.0, "max")
        sigma = np.linalg.norm(model.coef_[0][1:])
        expected = norm.cdf((11.0 - 10.0) / sigma)
        assert analytic_spec_yield(model, basis, spec, 0) == pytest.approx(
            expected
        )

    def test_min_spec(self):
        model, basis = planted_model()
        spec = Specification("m", 11.0, "min")
        a = analytic_spec_yield(model, basis, spec, 0)
        b = analytic_spec_yield(
            model, basis, Specification("m", 11.0, "max"), 0
        )
        assert a + b == pytest.approx(1.0)

    def test_matches_monte_carlo_estimator(self):
        model, basis = planted_model()
        spec = Specification("m", 11.0, "max")
        policy = TuningPolicy({"m": model}, basis, [spec])
        mc = policy.summarize(n_samples=200_000, seed=0).state_yields[0]
        exact = analytic_spec_yield(model, basis, spec, 0)
        assert mc == pytest.approx(exact, abs=0.01)

    def test_offsets_included(self):
        model, basis = planted_model()
        model.offsets_ = np.array([5.0, 0.0])
        spec = Specification("m", 16.0, "max")  # mean now 15
        sigma = np.linalg.norm(model.coef_[0][1:])
        assert analytic_spec_yield(model, basis, spec, 0) == pytest.approx(
            norm.cdf(1.0 / sigma)
        )

    def test_deterministic_model(self):
        model = FrozenModel(np.array([[7.0, 0.0, 0.0]]))
        basis = LinearBasis(2)
        assert analytic_spec_yield(
            model, basis, Specification("m", 8.0, "max"), 0
        ) == 1.0
        assert analytic_spec_yield(
            model, basis, Specification("m", 6.0, "max"), 0
        ) == 0.0

    def test_rejects_nonlinear_basis(self):
        model, _ = planted_model()
        with pytest.raises(TypeError):
            analytic_spec_yield(
                model, QuadraticBasis(3), Specification("m", 1.0), 0
            )
