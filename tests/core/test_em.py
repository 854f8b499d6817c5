"""Tests for the EM hyper-parameter refinement."""

import numpy as np
import pytest

from repro.core.em import EmConfig, run_em
from repro.core.posterior import compute_posterior
from repro.core.prior import CorrelatedPrior, ar1_correlation


def correlated_problem(seed=0, n_states=6, n_basis=40, n=12, r0=0.9):
    rng = np.random.default_rng(seed)
    support = np.array([2, 9, 25])
    correlation = ar1_correlation(n_states, r0)
    chol = np.linalg.cholesky(correlation)
    coef = np.zeros((n_states, n_basis))
    for m in support:
        coef[:, m] = chol @ rng.standard_normal(n_states) * 2.0
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = [
        d @ coef[k] + 0.05 * rng.standard_normal(n)
        for k, d in enumerate(designs)
    ]
    return designs, targets, support, coef


def seed_prior(n_basis, n_states, support, r0=0.5):
    return CorrelatedPrior.from_support(
        n_basis, n_states, np.asarray(support), r0
    )


class TestEmBasics:
    def test_returns_full_width_mean(self):
        designs, targets, support, _ = correlated_problem()
        prior = seed_prior(40, 6, support)
        _, _, posterior, _ = run_em(designs, targets, prior, 0.04)
        assert posterior.mean.shape == (40, 6)

    def test_nll_monotone(self):
        designs, targets, support, _ = correlated_problem(1)
        prior = seed_prior(40, 6, support)
        config = EmConfig(max_iterations=15)
        _, _, _, trace = run_em(designs, targets, prior, 0.04, config)
        nll = trace.nll_history
        assert all(
            b <= a + 1e-6 * max(abs(a), 1.0) for a, b in zip(nll, nll[1:])
        )

    def test_irrelevant_lambdas_decay(self):
        designs, targets, support, _ = correlated_problem(2)
        # Seed with extra spurious bases; EM should shrink them.
        seeded = list(support) + [5, 30]
        prior = seed_prior(40, 6, seeded)
        final_prior, _, _, _ = run_em(
            designs, targets, prior, 0.04, EmConfig(max_iterations=40)
        )
        lam = final_prior.lambdas
        for m in support:
            for spurious in (5, 30):
                assert lam[spurious] < 0.2 * lam[m]

    def test_recovers_coefficients(self):
        designs, targets, support, coef = correlated_problem(3)
        prior = seed_prior(40, 6, support)
        _, _, posterior, _ = run_em(designs, targets, prior, 0.04)
        assert np.allclose(posterior.coef, coef, atol=0.2)

    def test_learns_noise_level(self):
        designs, targets, support, _ = correlated_problem(4)
        prior = seed_prior(40, 6, support)
        _, noise_var, _, _ = run_em(
            designs, targets, prior, 0.5**2, EmConfig(max_iterations=40)
        )
        # True noise std is 0.05; EM should land within an order of magnitude.
        assert 0.01**2 < noise_var < 0.2**2

    def test_learns_correlation(self):
        designs, targets, support, _ = correlated_problem(5, r0=0.95)
        prior = seed_prior(40, 6, support, r0=0.3)
        final_prior, _, _, _ = run_em(
            designs, targets, prior, 0.04, EmConfig(max_iterations=40)
        )
        r = final_prior.correlation
        off = r[np.triu_indices_from(r, k=1)]
        # Adjacent-state correlation should be strongly positive.
        assert r[0, 1] > 0.4
        assert np.mean(off) > 0.2


class TestEmOptions:
    def test_update_r_false_keeps_r(self):
        designs, targets, support, _ = correlated_problem(6)
        prior = seed_prior(40, 6, support, r0=0.5)
        final_prior, _, _, _ = run_em(
            designs,
            targets,
            prior,
            0.04,
            EmConfig(update_r=False, max_iterations=5),
        )
        assert np.allclose(
            final_prior.correlation, ar1_correlation(6, 0.5)
        )

    def test_diagonal_r_stays_diagonal(self):
        designs, targets, support, _ = correlated_problem(7)
        prior = CorrelatedPrior.from_support(40, 6, np.asarray(support), 0.0)
        final_prior, _, _, _ = run_em(
            designs,
            targets,
            prior,
            0.04,
            EmConfig(diagonal_r=True, max_iterations=10),
        )
        off_diagonal = final_prior.correlation - np.diag(
            np.diag(final_prior.correlation)
        )
        assert np.allclose(off_diagonal, 0.0)

    def test_r_scale_pinned(self):
        designs, targets, support, _ = correlated_problem(9)
        prior = seed_prior(40, 6, support)
        final_prior, _, _, _ = run_em(designs, targets, prior, 0.04)
        assert np.mean(np.diag(final_prior.correlation)) == pytest.approx(
            1.0
        )

    def test_trace_records_iterations(self):
        designs, targets, support, _ = correlated_problem(10)
        prior = seed_prior(40, 6, support)
        config = EmConfig(max_iterations=7, tolerance=1e-15)
        _, _, _, trace = run_em(designs, targets, prior, 0.04, config)
        assert trace.n_iterations == 7
        assert trace.seconds > 0.0

    def test_convergence_stops_early(self):
        designs, targets, support, _ = correlated_problem(11)
        prior = seed_prior(40, 6, support)
        config = EmConfig(max_iterations=60, tolerance=0.5)
        _, _, _, trace = run_em(designs, targets, prior, 0.04, config)
        assert trace.converged
        assert trace.n_iterations < 60

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EmConfig(tolerance=0.0)

