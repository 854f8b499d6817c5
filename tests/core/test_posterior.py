"""Tests for the dual-space MAP posterior against the textbook oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multistate import MultiStateData
from repro.core.posterior import compute_posterior, compute_posterior_dense
from repro.core.prior import CorrelatedPrior, ar1_correlation


def random_instance(seed, n_states=3, n_basis=5, n_samples=7, uneven=False):
    rng = np.random.default_rng(seed)
    counts = (
        [n_samples + k for k in range(n_states)] if uneven
        else [n_samples] * n_states
    )
    designs = [rng.standard_normal((n, n_basis)) for n in counts]
    targets = [rng.standard_normal(n) for n in counts]
    prior = CorrelatedPrior(
        lambdas=rng.uniform(0.05, 2.0, n_basis),
        correlation=ar1_correlation(n_states, rng.uniform(0.0, 0.95)),
    )
    return designs, targets, prior


class TestAgainstDenseOracle:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_matches_dense(self, seed):
        designs, targets, prior = random_instance(seed)
        fast = compute_posterior(designs, targets, prior, 0.4)
        dense = compute_posterior_dense(designs, targets, prior, 0.4)
        assert np.allclose(fast.mean, dense.mean, atol=1e-8)
        assert np.allclose(
            fast.covariance_blocks(), dense.covariance_blocks(), atol=1e-8
        )
        assert fast.nll == pytest.approx(dense.nll, rel=1e-8)
        assert fast.residual_sq == pytest.approx(
            dense.residual_sq, rel=1e-8
        )
        assert fast.trace_dsd == pytest.approx(dense.trace_dsd, rel=1e-6)

    def test_uneven_state_sample_counts(self):
        designs, targets, prior = random_instance(1, uneven=True)
        fast = compute_posterior(designs, targets, prior, 0.2)
        dense = compute_posterior_dense(designs, targets, prior, 0.2)
        assert np.allclose(fast.mean, dense.mean, atol=1e-8)
        assert np.allclose(
            fast.covariance_blocks(), dense.covariance_blocks(), atol=1e-8
        )


class TestSpecialCases:
    def test_single_state_identity_r_is_ridge(self):
        """K=1, R=[1], λ_m=λ: MAP == ridge with α = σ²/λ."""
        rng = np.random.default_rng(2)
        design = rng.standard_normal((20, 6))
        target = rng.standard_normal(20)
        lam, noise = 0.7, 0.3
        prior = CorrelatedPrior(np.full(6, lam), np.eye(1))
        posterior = compute_posterior([design], [target], prior, noise)
        alpha = noise / lam
        ridge = np.linalg.solve(
            design.T @ design + alpha * np.eye(6), design.T @ target
        )
        assert np.allclose(posterior.mean[:, 0], ridge, atol=1e-9)

    def test_zero_lambda_zeroes_coefficient(self):
        rng = np.random.default_rng(3)
        designs = [rng.standard_normal((8, 4)) for _ in range(2)]
        targets = [rng.standard_normal(8) for _ in range(2)]
        lambdas = np.array([1.0, 0.0, 1.0, 0.0])
        prior = CorrelatedPrior(lambdas, ar1_correlation(2, 0.5))
        posterior = compute_posterior(designs, targets, prior, 0.1)
        assert np.allclose(posterior.mean[1], 0.0)
        assert np.allclose(posterior.mean[3], 0.0)
        assert not np.allclose(posterior.mean[0], 0.0)

    def test_strong_noise_shrinks_to_zero(self):
        designs, targets, prior = random_instance(4)
        weak = compute_posterior(designs, targets, prior, 1e-3)
        strong = compute_posterior(designs, targets, prior, 1e6)
        assert np.linalg.norm(strong.mean) < 1e-3 * np.linalg.norm(weak.mean)

    def test_perfect_correlation_ties_states(self):
        """R → all-ones: coefficients forced (nearly) equal across states."""
        rng = np.random.default_rng(5)
        n_states, n_basis = 3, 4
        designs = [rng.standard_normal((10, n_basis)) for _ in range(n_states)]
        shared = rng.standard_normal(n_basis)
        targets = [d @ shared for d in designs]
        correlation = ar1_correlation(n_states, 0.999999)
        prior = CorrelatedPrior(np.ones(n_basis), correlation)
        posterior = compute_posterior(designs, targets, prior, 1e-4)
        for m in range(n_basis):
            assert np.ptp(posterior.mean[m]) < 1e-2

    def test_posterior_covariance_blocks_psd(self):
        designs, targets, prior = random_instance(6)
        posterior = compute_posterior(designs, targets, prior, 0.5)
        for block in posterior.covariance_blocks():
            eigenvalues = np.linalg.eigvalsh(0.5 * (block + block.T))
            assert eigenvalues.min() > -1e-10

    def test_posterior_variance_below_prior(self):
        """Observing data cannot increase variance (Gaussian model)."""
        designs, targets, prior = random_instance(7)
        posterior = compute_posterior(designs, targets, prior, 0.5)
        for m in range(prior.n_basis):
            prior_var = np.diag(prior.block_covariance(m))
            post_var = np.diag(posterior.covariance_blocks()[m])
            assert np.all(post_var <= prior_var + 1e-12)

    def test_want_blocks_false_skips_blocks(self):
        from repro.errors import NumericalError

        designs, targets, prior = random_instance(8)
        posterior = compute_posterior(
            designs, targets, prior, 0.5, want_blocks=False
        )
        for skipped in (
            posterior.covariance_blocks,
            lambda: posterior.mstep_lambda_stats(prior.correlation),
            lambda: posterior.mstep_scaled_moment(prior.lambdas),
        ):
            with pytest.raises(NumericalError, match="want_blocks"):
                skipped()
        # The skipped inverse leaves no trace term — asking for it is an
        # explicit error instead of a silent NaN flowing downstream.
        assert posterior.trace_dsd is None
        with pytest.raises(NumericalError, match="want_blocks"):
            posterior.require_trace_dsd()
        with_blocks = compute_posterior(designs, targets, prior, 0.5)
        assert np.allclose(posterior.mean, with_blocks.mean)
        assert with_blocks.require_trace_dsd() == with_blocks.trace_dsd

    def test_coef_layout(self):
        designs, targets, prior = random_instance(9)
        posterior = compute_posterior(designs, targets, prior, 0.5)
        assert posterior.coef.shape == (len(designs), prior.n_basis)
        assert np.allclose(posterior.coef, posterior.mean.T)


class TestMemoryContract:
    def test_em_step_never_allocates_covariance_blocks(self):
        """One dual E-step plus both M-step statistics at K = 64, two rows
        per state and M = 200 stays far below one (M, K, K) float64 array
        (6.6 MB): the covariance is read from C⁻¹ (n × n, n = 128)
        through full-width products, never expanded into blocks."""
        n_states, n_basis, n_per = 64, 200, 2
        rng = np.random.default_rng(21)
        designs = [
            rng.standard_normal((n_per, n_basis)) for _ in range(n_states)
        ]
        targets = [rng.standard_normal(n_per) for _ in range(n_states)]
        data = MultiStateData.from_states(designs, targets)
        prior = CorrelatedPrior(
            lambdas=rng.uniform(0.05, 2.0, n_basis),
            correlation=ar1_correlation(n_states, 0.9),
        )
        tracemalloc.start()
        try:
            posterior = compute_posterior(
                data, prior=prior, noise_var=0.1, method="dual"
            )
            quad, traces = posterior.mstep_lambda_stats(prior.correlation)
            moment = posterior.mstep_scaled_moment(prior.lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert posterior.solver == "dual"
        assert quad.shape == traces.shape == (n_basis,)
        assert moment.shape == (n_states, n_states)
        tensor = 8 * n_basis * n_states**2
        assert peak < tensor / 2, (
            f"peak {peak} bytes is within reach of the (M, K, K) blocks "
            f"({tensor} bytes)"
        )


class TestValidation:
    def test_rejects_nonpositive_noise(self):
        designs, targets, prior = random_instance(10)
        with pytest.raises(ValueError, match="noise_var"):
            compute_posterior(designs, targets, prior, 0.0)

    def test_rejects_prior_basis_mismatch(self):
        designs, targets, _ = random_instance(11)
        bad_prior = CorrelatedPrior(np.ones(99), ar1_correlation(3, 0.5))
        with pytest.raises(ValueError, match="bases"):
            compute_posterior(designs, targets, bad_prior, 0.1)

    def test_rejects_prior_state_mismatch(self):
        designs, targets, _ = random_instance(12)
        bad_prior = CorrelatedPrior(np.ones(5), ar1_correlation(9, 0.5))
        with pytest.raises(ValueError, match="states"):
            compute_posterior(designs, targets, bad_prior, 0.1)

    def test_rejects_mismatched_targets(self):
        designs, targets, prior = random_instance(13)
        targets[0] = targets[0][:-1]
        with pytest.raises(ValueError):
            compute_posterior(designs, targets, prior, 0.1)
