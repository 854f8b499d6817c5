"""Tests for posterior-predictive uncertainty."""

import numpy as np
import pytest

from repro.core.cbmf import CBMF
from repro.core.em import EmConfig
from repro.core.posterior import compute_posterior
from repro.core.predictive import PosteriorPredictor
from repro.core.prior import CorrelatedPrior, ar1_correlation
from repro.core.somp_init import InitConfig

from tests.conftest import make_synthetic

FAST_INIT = InitConfig(
    r0_grid=(0.0, 0.9), sigma0_grid=(0.1,), n_basis_grid=(4, 8), n_folds=4
)
FAST_EM = EmConfig(max_iterations=15)


def small_instance(seed=0, n_states=3, n_basis=6, n=10):
    rng = np.random.default_rng(seed)
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = [rng.standard_normal(n) for _ in range(n_states)]
    prior = CorrelatedPrior(
        lambdas=rng.uniform(0.2, 1.5, n_basis),
        correlation=ar1_correlation(n_states, 0.7),
    )
    return designs, targets, prior


class TestPosteriorPredictor:
    def test_mean_matches_map_prediction(self):
        designs, targets, prior = small_instance()
        noise = 0.2
        predictor = PosteriorPredictor(designs, targets, prior, noise)
        posterior = compute_posterior(
            designs, targets, prior, noise, want_blocks=False
        )
        for k, design in enumerate(designs):
            via_map = design @ posterior.mean[:, k]
            via_gp = predictor.predict_mean(design, k)
            assert np.allclose(via_map, via_gp, atol=1e-9)

    def test_std_nonnegative(self):
        designs, targets, prior = small_instance(1)
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        query = np.random.default_rng(2).standard_normal((20, 6))
        std = predictor.predict_std(query, 1)
        assert np.all(std >= 0.0)

    def test_training_points_have_low_latent_std(self):
        """At a training input the latent std is far below the prior."""
        designs, targets, prior = small_instance(3)
        predictor = PosteriorPredictor(designs, targets, prior, 1e-4)
        design = designs[0]
        at_train = predictor.predict_std(design, 0)
        prior_scale = np.sqrt(
            np.einsum("ij,j,ij->i", design, prior.lambdas, design)
        )
        assert np.all(at_train < 0.35 * prior_scale)

    def test_include_noise_adds_floor(self):
        designs, targets, prior = small_instance(4)
        noise = 0.3
        predictor = PosteriorPredictor(designs, targets, prior, noise)
        query = np.random.default_rng(5).standard_normal((5, 6))
        latent = predictor.predict_std(query, 0)
        observed = predictor.predict_std(query, 0, include_noise=True)
        assert np.all(observed >= np.sqrt(noise) - 1e-12)
        assert np.allclose(observed**2 - latent**2, noise, atol=1e-9)

    def test_more_data_shrinks_uncertainty(self):
        rng = np.random.default_rng(6)
        prior = CorrelatedPrior(np.ones(5), ar1_correlation(2, 0.5))
        query = rng.standard_normal((10, 5))

        def build(n):
            designs = [rng.standard_normal((n, 5)) for _ in range(2)]
            targets = [rng.standard_normal(n) for _ in range(2)]
            return PosteriorPredictor(designs, targets, prior, 0.2)

        few = build(4).predict_std(query, 0).mean()
        many = build(60).predict_std(query, 0).mean()
        assert many < few

    def test_std_shrinks_monotonically_with_nested_data(self):
        """On nested designs (each a prefix of the next) the predictive
        variance is monotone in N point-wise, not just on average."""
        rng = np.random.default_rng(8)
        prior = CorrelatedPrior(
            rng.uniform(0.3, 1.5, 5), ar1_correlation(3, 0.6)
        )
        query = rng.standard_normal((25, 5))
        full = [rng.standard_normal((64, 5)) for _ in range(3)]
        values = [rng.standard_normal(64) for _ in range(3)]
        previous = None
        for n in (4, 8, 16, 32, 64):
            predictor = PosteriorPredictor(
                [d[:n] for d in full], [t[:n] for t in values], prior, 0.2
            )
            std = predictor.predict_std(query, 0)
            if previous is not None:
                assert np.all(std <= previous + 1e-10)
                assert std.mean() < previous.mean()
            previous = std

    def test_variance_matches_brute_force_gp_identity(self):
        """σ² = k** − kᵀ C⁻¹ k computed with dense solves on a tiny case."""
        designs, targets, prior = small_instance(9, n_states=2, n_basis=4, n=5)
        noise = 0.3
        predictor = PosteriorPredictor(designs, targets, prior, noise)
        phi = np.vstack(designs)
        state_of_row = np.repeat([0, 1], 5)
        gram = (phi * prior.lambdas) @ phi.T
        c_matrix = gram * prior.correlation[
            np.ix_(state_of_row, state_of_row)
        ] + noise * np.eye(10)
        query = np.random.default_rng(10).standard_normal((7, 4))
        for state in range(2):
            cross = (phi * prior.lambdas) @ query.T
            cross *= prior.correlation[state_of_row, state][:, None]
            prior_var = prior.correlation[state, state] * np.einsum(
                "ij,j,ij->i", query, prior.lambdas, query
            )
            expected = np.sqrt(
                prior_var
                - np.einsum(
                    "iq,iq->q", cross, np.linalg.solve(c_matrix, cross)
                )
            )
            assert np.allclose(
                predictor.predict_std(query, state), expected, atol=1e-9
            )

    def test_validation(self):
        designs, targets, prior = small_instance(7)
        with pytest.raises(ValueError, match="noise_var"):
            PosteriorPredictor(designs, targets, prior, 0.0)
        bad_prior = CorrelatedPrior(np.ones(99), np.eye(3))
        with pytest.raises(ValueError, match="bases"):
            PosteriorPredictor(designs, targets, bad_prior, 0.1)
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        with pytest.raises(IndexError):
            predictor.predict_std(np.zeros((1, 6)), 99)


class TestAugmented:
    def test_mean_unchanged_variance_shrinks(self):
        """Fantasy conditioning: mean function fixed, variance tightened."""
        designs, targets, prior = small_instance(12)
        predictor = PosteriorPredictor(designs, targets, prior, 0.2)
        rng = np.random.default_rng(13)
        extra = rng.standard_normal((3, 6))
        query = rng.standard_normal((15, 6))
        conditioned = predictor.augmented(extra, 1)
        for state in range(3):
            assert np.allclose(
                predictor.predict_mean(query, state),
                conditioned.predict_mean(query, state),
                atol=1e-8,
            )
            before = predictor.predict_std(query, state)
            after = conditioned.predict_std(query, state)
            assert np.all(after <= before + 1e-10)
        # at the conditioned points themselves the shrink is strict
        assert np.all(
            conditioned.predict_std(extra, 1)
            < predictor.predict_std(extra, 1)
        )

    def test_matches_real_observation_variance(self):
        """The variance after a fantasy update equals the variance after
        conditioning on a *real* observation at the same point (the GP
        posterior variance never sees the targets)."""
        designs, targets, prior = small_instance(14)
        predictor = PosteriorPredictor(designs, targets, prior, 0.2)
        rng = np.random.default_rng(15)
        point = rng.standard_normal((1, 6))
        query = rng.standard_normal((10, 6))
        fantasy = predictor.augmented(point, 0)
        real_designs = [d.copy() for d in designs]
        real_targets = [t.copy() for t in targets]
        real_designs[0] = np.vstack([real_designs[0], point])
        real_targets[0] = np.append(real_targets[0], 123.456)
        real = PosteriorPredictor(real_designs, real_targets, prior, 0.2)
        for state in range(3):
            assert np.allclose(
                fantasy.predict_std(query, state),
                real.predict_std(query, state),
                atol=1e-9,
            )

    def test_validation(self):
        designs, targets, prior = small_instance(16)
        predictor = PosteriorPredictor(designs, targets, prior, 0.2)
        with pytest.raises(IndexError):
            predictor.augmented(np.zeros((1, 6)), 42)
        with pytest.raises(ValueError):
            predictor.augmented(np.zeros((1, 99)), 0)


class TestAgainstDenseCovariance:
    def test_variance_matches_dense_posterior(self, monkeypatch):
        """Predictive latent variance equals φᵀ Σ_full^{(k)} φ with the
        full (cross-basis) dense posterior covariance — the oracle both
        the dual-space shortcut and the Kronecker rotated frame must
        agree with, on unbalanced data, on balanced data and on
        balanced data with a λ_m = 0 basis."""
        from repro.core.posterior import compute_posterior_dense

        rng = np.random.default_rng(11)
        n_states, n_basis, n = 3, 4, 6
        for layout, solver in [
            ("unbalanced", "dual"),
            ("balanced", "kron"),
            ("balanced-zero-lambda", "kron"),
        ]:
            if layout == "unbalanced":
                designs = [
                    rng.standard_normal((n, n_basis))
                    for _ in range(n_states)
                ]
            else:
                designs = [rng.standard_normal((n, n_basis))] * n_states
            targets = [rng.standard_normal(n) for _ in range(n_states)]
            lambdas = rng.uniform(0.3, 1.2, n_basis)
            if layout == "balanced-zero-lambda":
                lambdas[1] = 0.0
            prior = CorrelatedPrior(lambdas, ar1_correlation(n_states, 0.6))
            noise = 0.25

            # Dense full covariance: rebuild Σ_p over the (m, k) layout.
            dense = compute_posterior_dense(designs, targets, prior, noise)
            # Σ_p rebuilt entry-wise from the dense computation internals.
            from repro.core.posterior import _stack

            phi, y, state_of_row = _stack(designs, targets)
            d_matrix = np.zeros((phi.shape[0], n_basis * n_states))
            for i in range(phi.shape[0]):
                for m in range(n_basis):
                    d_matrix[i, m * n_states + state_of_row[i]] = phi[i, m]
            a_matrix = prior.full_covariance()
            c_inv = np.linalg.inv(
                noise * np.eye(phi.shape[0])
                + d_matrix @ a_matrix @ d_matrix.T
            )
            ad_t = a_matrix @ d_matrix.T
            sigma_full = a_matrix - ad_t @ c_inv @ ad_t.T

            monkeypatch.setenv("REPRO_POSTERIOR_SOLVER", solver)
            predictor = PosteriorPredictor(designs, targets, prior, noise)
            assert predictor.solver == solver, layout
            query = rng.standard_normal((5, n_basis))
            for state in range(n_states):
                # State-k coefficient covariance: rows/cols (m, state).
                idx = [m * n_states + state for m in range(n_basis)]
                cov_k = sigma_full[np.ix_(idx, idx)]
                expected = np.sqrt(
                    np.maximum(
                        np.einsum("qi,ij,qj->q", query, cov_k, query), 0
                    )
                )
                via_predictor = predictor.predict_std(query, state)
                assert np.allclose(via_predictor, expected, atol=1e-8), layout
                np.testing.assert_allclose(
                    predictor.predict_mean(query, state),
                    query @ dense.mean[:, state],
                    rtol=1e-9,
                    atol=1e-11,
                    err_msg=layout,
                )


class TestOnePosteriorPerFit:
    """``CBMF.fit`` builds its predictor from EM's final solve."""

    def test_predictor_mean_is_the_model_prediction(self):
        """The predictor conditions on the posterior the coefficients
        came from."""
        problem = make_synthetic(seed=0)
        designs, targets = problem.sample(15)
        model = CBMF(
            init_config=FAST_INIT,
            em_config=EmConfig(max_iterations=30),
            seed=0,
        ).fit(designs, targets)
        query, _ = problem.sample(20)
        for k in range(problem.n_states):
            expected = model.predict(query[k], k)
            got = (
                model.predictor.predict_mean(query[k], k) * model.scale_
                + model.center_
            )
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("solver", ["dual", "kron"])
    def test_fit_solves_nothing_after_em(self, monkeypatch, solver):
        """No Cholesky factorization and no eigendecomposition runs once
        ``run_em`` has returned: the predictor reads EM's final solve."""
        import repro.core.cbmf as cbmf_module
        import repro.core.kronecker as kronecker_module
        import repro.core.posterior as posterior_module
        import repro.core.predictive as predictive_module

        calls = {"em": 0, "after": 0}
        em_done = []
        real_run_em = cbmf_module.run_em

        def run_em(*args, **kwargs):
            result = real_run_em(*args, **kwargs)
            em_done.append(True)
            return result

        monkeypatch.setattr(cbmf_module, "run_em", run_em)
        for module in (
            kronecker_module, posterior_module, predictive_module
        ):
            for name in ("cholesky_factor", "_psd_eigh", "_thin_gram_eigh"):
                if not hasattr(module, name):
                    continue

                def counted(*args, _real=getattr(module, name), **kwargs):
                    calls["after" if em_done else "em"] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

        if solver == "dual":
            designs, targets = make_synthetic(seed=0).sample(15)
        else:
            from repro.core.kronecker import KRON_MIN_STATES

            rng = np.random.default_rng(53)
            shared = rng.standard_normal((12, 5))
            designs = [shared] * KRON_MIN_STATES
            targets = [
                shared @ rng.standard_normal(5)
                + 0.05 * rng.standard_normal(12)
                for _ in range(KRON_MIN_STATES)
            ]
        model = CBMF(init_config=FAST_INIT, em_config=FAST_EM, seed=0).fit(
            designs, targets
        )
        assert model.predictor.solver == solver
        assert calls["em"] > 0  # the spies see EM's own solves
        assert calls["after"] == 0


class TestCbmfPredictStd:
    def test_units_and_shape(self):
        problem = make_synthetic(seed=0)
        designs, targets = problem.sample(15)
        model = CBMF(init_config=FAST_INIT, em_config=FAST_EM, seed=0).fit(
            designs, targets
        )
        std = model.predict_std(designs[0], 0)
        assert std.shape == (15,)
        assert np.all(std >= 0.0)

    def test_coverage_calibration(self):
        """Roughly 2/3 of held-out residuals inside one predictive sigma."""
        problem = make_synthetic(seed=1, noise_std=0.1)
        designs, targets = problem.sample(25)
        model = CBMF(init_config=FAST_INIT, em_config=FAST_EM, seed=0).fit(
            designs, targets
        )
        test_d, test_t = problem.sample(200)
        inside = total = 0
        for k in range(problem.n_states):
            prediction = model.predict(test_d[k], k)
            std = model.predict_std(test_d[k], k, include_noise=True)
            inside += int(np.sum(np.abs(prediction - test_t[k]) <= std))
            total += test_t[k].size
        coverage = inside / total
        assert 0.4 < coverage <= 1.0

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            CBMF().predict_std(np.zeros((1, 3)), 0)


class TestFiniteVariance:
    def test_non_finite_variance_raises_numerical_error(self):
        """Corrupted training state propagates NaN into the variance —
        the guard must raise, never return NaN 'uncertainties' that an
        acquisition strategy would silently rank."""
        from repro.errors import NumericalError, ReproError

        designs, targets, prior = small_instance(5)
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        predictor._phi[0, 0] = np.nan
        query = np.ones((4, 6))
        with pytest.raises(NumericalError, match="non-finite predictive"):
            predictor.predict_std(query, 0)
        with pytest.raises(ReproError):
            predictor.predict_std(query, 0)

    def test_error_counts_bad_queries(self):
        from repro.errors import NumericalError

        designs, targets, prior = small_instance(6)
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        predictor._factor[:] = np.inf
        with pytest.raises(NumericalError, match="5 of 5"):
            predictor.predict_std(np.ones((5, 6)), 1)

    def test_mean_unaffected_by_guard(self):
        """The guard lives on the variance path only."""
        designs, targets, prior = small_instance(7)
        predictor = PosteriorPredictor(designs, targets, prior, 0.1)
        assert np.all(
            np.isfinite(predictor.predict_mean(np.ones((3, 6)), 0))
        )
