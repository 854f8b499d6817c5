"""Statistical-oracle tests: shrinkage vs synthetic populations.

The oracle is exact by construction — Gaussian per-state truths drawn
from the very model family the shrinkage assumes (and a binomial yield
variant that only *approximately* matches it). Acceptance: at equal
sampling budget the correlation-shared estimator beats the independent
one in paired, seeded replicates, and its confidence intervals hit
nominal coverage within binomial tolerance.
"""

import numpy as np
import pytest

from repro.applications.yield_estimation import Specification
from repro.basis.polynomial import LinearBasis
from repro.core.frozen import FrozenModel
from repro.yields import (
    binomial_moments,
    compute_yield_report,
    correlation_shrink,
)


def ar1(n, rho):
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def draw_population(rng, correlation, mu, tau):
    """One fleet truth y ~ N(μ·1, τ²·R) via the Cholesky factor."""
    chol = np.linalg.cholesky(
        correlation + 1e-12 * np.eye(correlation.shape[0])
    )
    return mu + tau * (chol @ rng.standard_normal(correlation.shape[0]))


class TestGaussianOracle:
    """Truths drawn from the assumed model: the cleanest win condition."""

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    def test_shrunk_beats_independent_rmse_paired(self, rho):
        """Paired over seeded replicates: same truth, same noisy draws
        for both estimators — the only difference is the sharing."""
        n_states, n_reps = 30, 80
        correlation = ar1(n_states, rho)
        noise_sd = 0.08
        variances = np.full(n_states, noise_sd**2)
        rng = np.random.default_rng(20160607)
        sq_err_raw = sq_err_shrunk = 0.0
        wins = 0
        for _ in range(n_reps):
            truth = draw_population(rng, correlation, mu=0.5, tau=0.1)
            raw = truth + noise_sd * rng.standard_normal(n_states)
            result = correlation_shrink(raw, variances, correlation)
            err_raw = float(np.sum((raw - truth) ** 2))
            err_shrunk = float(np.sum((result.shrunk - truth) ** 2))
            sq_err_raw += err_raw
            sq_err_shrunk += err_shrunk
            wins += int(err_shrunk < err_raw)
        assert sq_err_shrunk < sq_err_raw
        assert wins >= n_reps // 2

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    def test_ci_coverage_within_binomial_tolerance(self, rho):
        """95% nominal → empirical coverage must stay above the 3σ
        binomial lower bound; the deliberate τ̂² inflation makes the
        intervals conservative, so no upper bound is enforced."""
        n_states, n_reps, confidence = 30, 60, 0.95
        correlation = ar1(n_states, rho)
        noise_sd = 0.06
        variances = np.full(n_states, noise_sd**2)
        rng = np.random.default_rng(42)
        covered = total = 0
        for _ in range(n_reps):
            truth = draw_population(rng, correlation, mu=0.5, tau=0.08)
            raw = truth + noise_sd * rng.standard_normal(n_states)
            result = correlation_shrink(
                raw, variances, correlation, confidence=confidence
            )
            covered += int(np.sum(
                (result.ci_lower <= truth) & (truth <= result.ci_upper)
            ))
            total += n_states
        three_sigma = 3.0 * np.sqrt(confidence * (1 - confidence) / total)
        assert covered / total >= confidence - three_sigma

    def test_independent_intervals_also_cover(self):
        """The fallback path has exact normal-theory coverage — the
        oracle validates both reporting modes."""
        from repro.yields import independent_intervals

        n_states, n_reps = 40, 60
        noise_sd = 0.05
        variances = np.full(n_states, noise_sd**2)
        rng = np.random.default_rng(7)
        covered = total = 0
        for _ in range(n_reps):
            truth = rng.normal(0.5, 0.1, n_states)
            raw = truth + noise_sd * rng.standard_normal(n_states)
            result = independent_intervals(raw, variances)
            covered += int(np.sum(
                (result.ci_lower <= truth) & (truth <= result.ci_upper)
            ))
            total += n_states
        three_sigma = 3.0 * np.sqrt(0.95 * 0.05 / total)
        assert abs(covered / total - 0.95) <= three_sigma


class TestBinomialYieldOracle:
    """Yield variant: binomial pass counts over correlated true yields —
    the moments only approximately match the Gaussian model, which is
    exactly the regime the service runs in."""

    def test_shrunk_beats_independent_yield_rmse(self):
        from scipy.stats import norm

        n_states, n_reps, budget = 40, 50, 150
        correlation = ar1(n_states, 0.93)
        rng = np.random.default_rng(99)
        sq_err_raw = sq_err_shrunk = 0.0
        for _ in range(n_reps):
            latent = draw_population(rng, correlation, mu=0.3, tau=0.35)
            true_yield = norm.cdf(latent)
            successes = rng.binomial(budget, true_yield).astype(float)
            raw, variances = binomial_moments(successes, budget)
            result = correlation_shrink(
                raw, variances, correlation, clip=(0.0, 1.0)
            )
            sq_err_raw += float(np.sum((raw - true_yield) ** 2))
            sq_err_shrunk += float(
                np.sum((result.shrunk - true_yield) ** 2)
            )
        assert sq_err_shrunk < sq_err_raw

    def test_yield_ci_coverage(self):
        from scipy.stats import norm

        n_states, n_reps, budget = 40, 40, 150
        correlation = ar1(n_states, 0.93)
        rng = np.random.default_rng(123)
        covered = total = 0
        for _ in range(n_reps):
            latent = draw_population(rng, correlation, mu=0.3, tau=0.35)
            true_yield = norm.cdf(latent)
            successes = rng.binomial(budget, true_yield).astype(float)
            raw, variances = binomial_moments(successes, budget)
            result = correlation_shrink(
                raw, variances, correlation, clip=(0.0, 1.0)
            )
            covered += int(np.sum(
                (result.ci_lower <= true_yield)
                & (true_yield <= result.ci_upper)
            ))
            total += n_states
        three_sigma = 3.0 * np.sqrt(0.95 * 0.05 / total)
        # The Gaussian model is misspecified for binomial tails, so allow
        # one extra σ of slack below nominal.
        assert covered / total >= 0.95 - three_sigma - 0.017


class TestFittedModelShapes:
    """The oracle must hold on real model artifacts, not just vectors:
    random K/M shapes, pruned (zero) columns, and a genuinely
    Kronecker-fitted C-BMF model."""

    @pytest.mark.parametrize("n_states,n_variables", [(3, 6), (17, 2),
                                                      (41, 9)])
    def test_random_shapes_with_pruned_columns(self, n_states, n_variables):
        rng = np.random.default_rng(n_states)
        basis = LinearBasis(n_variables)
        coef = np.zeros((n_states, basis.n_basis))
        coef[:, 0] = rng.normal(1.0, 0.1, n_states)
        keep = rng.choice(
            np.arange(1, basis.n_basis),
            size=max(1, n_variables // 2),
            replace=False,
        )
        coef[:, keep] = rng.normal(0.0, 0.5, (n_states, keep.size))
        models = {
            "m": FrozenModel(
                coef=coef, metric="m", correlation=ar1(n_states, 0.9)
            )
        }
        report = compute_yield_report(
            models, basis, [Specification("m", 1.0, "min")], n_samples=150
        )
        assert report.correlation_shared
        assert report.yield_shrunk.shape == (n_states,)
        assert np.all(report.yield_ci_lower <= report.yield_ci_upper)
        assert np.all(np.isfinite(report.yield_shrunk))

    def test_kronecker_fitted_model(self, tmp_path):
        """A state-balanced shared-sample sweep fit takes the Kronecker
        solver (32 states, above ``KRON_MIN_STATES``); its frozen
        artifact must feed the oracle end-to-end with the learned
        correlation attached."""
        from repro.core.cbmf import CBMF
        from repro.core.em import EmConfig
        from repro.core.somp_init import InitConfig
        from repro.modelset import PerformanceModelSet
        from repro.paper import simulate_sweep

        train = simulate_sweep(
            n_points=32, n_samples_per_state=8, seed=11,
            cache_dir=tmp_path,
        )
        basis = LinearBasis(train.n_variables)
        designs = basis.expand_states(train.inputs())
        model = CBMF(
            init_config=InitConfig(
                r0_grid=(0.9,), sigma0_grid=(0.15,), n_basis_grid=(10,),
                n_folds=2,
            ),
            em_config=EmConfig(max_iterations=5),
            seed=11,
        ).fit(designs, train.targets("s21_db"))
        assert model.predictor.solver == "kron"
        frozen = PerformanceModelSet(
            {"s21_db": model}, basis
        ).freeze()
        assert frozen["s21_db"].correlation_ is not None
        report = compute_yield_report(
            frozen,
            basis,
            [Specification("s21_db", 15.0, "min")],
            n_samples=200,
        )
        assert report.correlation_shared
        assert report.n_states == 32
        assert np.isfinite(report.tau2)
        assert np.all(
            (0.0 <= report.yield_shrunk) & (report.yield_shrunk <= 1.0)
        )
