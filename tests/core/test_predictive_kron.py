"""PosteriorPredictor on a Kronecker solve vs on a dual solve.

On state-balanced training data the predictor reads the Kronecker
solve's ``(Q, ω, P, γ)`` instead of a Cholesky factor of the NK × NK
kernel. Both condition on the same Gaussian, so mean, std and the dual
weights must agree to round-off; ``absorb`` breaks the Kronecker
structure and must continue from one dual factorization (never a wrong
answer).
"""

import numpy as np
import pytest

from repro.core.kronecker import KRON_MIN_STATES
from repro.core.predictive import PosteriorPredictor
from repro.core.prior import CorrelatedPrior, ar1_correlation


def make_balanced(seed, n_states, n_basis, n_per):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n_per, n_basis))
    designs = [design] * n_states
    targets = [rng.standard_normal(n_per) for _ in range(n_states)]
    prior = CorrelatedPrior(
        lambdas=rng.uniform(0.1, 1.5, n_basis),
        correlation=ar1_correlation(n_states, 0.9),
    )
    return designs, targets, prior


def build_pair(monkeypatch, seed=5, n_states=6, n_basis=5, n_per=7,
               noise_var=0.05):
    """The same model in both representations (forced via the env)."""
    designs, targets, prior = make_balanced(seed, n_states, n_basis, n_per)
    monkeypatch.setenv("REPRO_POSTERIOR_SOLVER", "kron")
    kron = PosteriorPredictor(designs, targets, prior, noise_var)
    monkeypatch.setenv("REPRO_POSTERIOR_SOLVER", "dual")
    dense = PosteriorPredictor(designs, targets, prior, noise_var)
    assert kron.solver == "kron"
    assert dense.solver == "dual"
    return kron, dense, prior


class TestKronPredictorParity:
    def test_mean_std_and_weights_match_dense(self, monkeypatch):
        kron, dense, prior = build_pair(monkeypatch)
        np.testing.assert_allclose(
            kron.dual_weights, dense.dual_weights, rtol=1e-9, atol=1e-12
        )
        rng = np.random.default_rng(17)
        query = rng.standard_normal((9, prior.n_basis))
        for state in range(prior.n_states):
            np.testing.assert_allclose(
                kron.predict_mean(query, state),
                dense.predict_mean(query, state),
                rtol=1e-9,
                atol=1e-11,
            )
            np.testing.assert_allclose(
                kron.predict_std(query, state),
                dense.predict_std(query, state),
                rtol=1e-8,
                atol=1e-11,
            )
            np.testing.assert_allclose(
                kron.predict_std(query, state, include_noise=True),
                dense.predict_std(query, state, include_noise=True),
                rtol=1e-8,
                atol=1e-11,
            )

    def test_auto_mode_selects_kron_at_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_POSTERIOR_SOLVER", raising=False)
        designs, targets, prior = make_balanced(
            3, KRON_MIN_STATES, 4, 6
        )
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        assert predictor.solver == "kron"

    def test_auto_mode_keeps_dense_when_unbalanced(self, monkeypatch):
        monkeypatch.delenv("REPRO_POSTERIOR_SOLVER", raising=False)
        rng = np.random.default_rng(4)
        n_states = KRON_MIN_STATES
        designs = [rng.standard_normal((5, 4)) for _ in range(n_states)]
        targets = [rng.standard_normal(5) for _ in range(n_states)]
        prior = CorrelatedPrior(
            lambdas=np.full(4, 0.8),
            correlation=ar1_correlation(n_states, 0.9),
        )
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        assert predictor.solver == "dual"


class TestAbsorbDensifies:
    def test_absorb_matches_from_scratch_rebuild(self, monkeypatch):
        """Absorbing into a Kronecker-mode predictor factors C once on
        the dual path and is then numerically identical to a fresh dual
        predictor built on the concatenated (now unbalanced) data."""
        kron, dense, prior = build_pair(monkeypatch)
        rng = np.random.default_rng(29)
        batch = rng.standard_normal((3, prior.n_basis))
        values = rng.standard_normal(3)
        state = 2

        kron.absorb(batch, values, state)
        assert kron.solver == "dual"
        dense.absorb(batch, values, state)

        np.testing.assert_allclose(
            kron.dual_weights, dense.dual_weights, rtol=1e-9, atol=1e-12
        )
        query = rng.standard_normal((6, prior.n_basis))
        for probe_state in (0, state, prior.n_states - 1):
            np.testing.assert_allclose(
                kron.predict_mean(query, probe_state),
                dense.predict_mean(query, probe_state),
                rtol=1e-9,
                atol=1e-11,
            )
            np.testing.assert_allclose(
                kron.predict_std(query, probe_state),
                dense.predict_std(query, probe_state),
                rtol=1e-8,
                atol=1e-11,
            )

    def test_absorb_still_validates_inputs(self, monkeypatch):
        kron, _, prior = build_pair(monkeypatch)
        bad = np.full((2, prior.n_basis), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            kron.absorb(bad, np.zeros(2), 0)
        # A rejected batch must not have flipped the representation.
        assert kron.solver == "kron"


class TestOnlineCBMFOnKronFit:
    def test_online_absorb_parity_with_dense_fitted_model(
        self, monkeypatch
    ):
        """Satellite: ``OnlineCBMF.absorb`` on a Kronecker-fitted model
        gives the same coefficients/predictions as on a dual-fitted one
        — the streaming path is representation-agnostic."""
        from repro.basis.polynomial import LinearBasis
        from repro.core.cbmf import CBMF
        from repro.streaming import OnlineCBMF

        rng = np.random.default_rng(53)
        n_states, n_vars, n_train = KRON_MIN_STATES, 4, 12
        basis = LinearBasis(n_vars)
        x = rng.standard_normal((n_train, n_vars))
        inputs = [x] * n_states
        coef = rng.standard_normal(n_vars + 1)
        targets = [
            np.column_stack([np.ones(n_train), x]) @ coef
            + 0.05 * rng.standard_normal(n_train)
            + 0.02 * k
            for k in range(n_states)
        ]
        designs = basis.expand_states(inputs)

        fitted = {}
        for mode in ("dual", "kron"):
            monkeypatch.setenv("REPRO_POSTERIOR_SOLVER", mode)
            fitted[mode] = CBMF(seed=7).fit(designs, targets)
        assert fitted["kron"].predictor.solver == "kron"
        assert fitted["dual"].predictor.solver == "dual"
        monkeypatch.delenv("REPRO_POSTERIOR_SOLVER", raising=False)

        probe = rng.standard_normal((5, n_vars))
        batch_x = rng.standard_normal((4, n_vars))
        batch_y = (
            np.column_stack([np.ones(4), batch_x]) @ coef
            + 0.05 * rng.standard_normal(4)
        )
        predictions = {}
        for mode, model in fitted.items():
            online = OnlineCBMF.from_cbmf(model, basis=basis)
            absorbed = online.absorb(batch_x, batch_y, state=1)
            assert absorbed == 4
            predictions[mode] = online.predict(probe, 1)
        np.testing.assert_allclose(
            predictions["kron"], predictions["dual"], rtol=1e-6, atol=1e-8
        )
