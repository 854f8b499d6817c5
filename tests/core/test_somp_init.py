"""Tests for the modified S-OMP hyper-parameter initializer."""

import numpy as np
import pytest

from repro.core.somp_init import InitConfig, somp_initialize


def problem(seed=0, n_states=5, n_basis=50, n=16, r0=0.9, noise=0.05):
    rng = np.random.default_rng(seed)
    support = np.array([4, 18, 33])
    correlation = r0 ** np.abs(
        np.subtract.outer(np.arange(n_states), np.arange(n_states))
    )
    chol = np.linalg.cholesky(correlation)
    coef = np.zeros((n_states, n_basis))
    for m in support:
        coef[:, m] = chol @ rng.standard_normal(n_states) * 2.0
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = [
        d @ coef[k] + noise * rng.standard_normal(n)
        for k, d in enumerate(designs)
    ]
    return designs, targets, support


class TestInitConfig:
    def test_defaults_valid(self):
        InitConfig()

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            InitConfig(r0_grid=())

    def test_rejects_bad_r0(self):
        with pytest.raises(ValueError):
            InitConfig(r0_grid=(1.0,))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            InitConfig(sigma0_grid=(0.0,))

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            InitConfig(n_basis_grid=(0,))

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError):
            InitConfig(n_folds=1)


class TestInitializer:
    def test_finds_true_support(self):
        designs, targets, support = problem()
        config = InitConfig(n_basis_grid=(3, 6, 12))
        result = somp_initialize(designs, targets, config, seed=0)
        assert set(support).issubset(set(result.support))

    def test_chosen_values_come_from_grid(self):
        designs, targets, _ = problem(1)
        config = InitConfig(
            r0_grid=(0.2, 0.8), sigma0_grid=(0.1, 0.3), n_basis_grid=(3, 8)
        )
        result = somp_initialize(designs, targets, config, seed=0)
        assert result.r0 in config.r0_grid
        assert result.sigma0 in config.sigma0_grid
        assert result.n_basis in config.n_basis_grid

    def test_prior_encodes_support(self):
        designs, targets, _ = problem(2)
        result = somp_initialize(designs, targets, seed=1)
        lam = result.prior.lambdas
        for m in result.support:
            assert lam[m] == 1.0
        inactive = np.setdiff1d(np.arange(lam.size), result.support)
        assert np.allclose(lam[inactive], 1e-5)

    def test_noise_var_is_sigma_squared(self):
        designs, targets, _ = problem(3)
        result = somp_initialize(designs, targets, seed=2)
        assert result.noise_var == pytest.approx(result.sigma0**2)

    def test_cv_errors_recorded(self):
        designs, targets, _ = problem(4)
        config = InitConfig(
            r0_grid=(0.5,), sigma0_grid=(0.1,), n_basis_grid=(3, 6)
        )
        result = somp_initialize(designs, targets, config, seed=3)
        assert len(result.cv_errors) == 2
        for error in result.cv_errors.values():
            assert error > 0.0

    def test_correlated_truth_prefers_high_r0(self):
        """With strongly correlated coefficients and few samples, CV should
        not pick the uncorrelated end of the grid."""
        designs, targets, _ = problem(
            5, n_states=8, n=6, r0=0.98, noise=0.2
        )
        config = InitConfig(
            r0_grid=(0.0, 0.95), sigma0_grid=(0.1,), n_basis_grid=(3,),
            n_folds=3,
        )
        result = somp_initialize(designs, targets, config, seed=5)
        key_low = (0.0, 0.1, 3)
        key_high = (0.95, 0.1, 3)
        assert result.cv_errors[key_high] <= result.cv_errors[key_low]

    def test_deterministic_given_seed(self):
        designs, targets, _ = problem(6)
        a = somp_initialize(designs, targets, seed=7)
        b = somp_initialize(designs, targets, seed=7)
        assert a.support == b.support
        assert a.r0 == b.r0 and a.sigma0 == b.sigma0

    def test_theta_capped_by_dictionary_size(self):
        designs, targets, _ = problem(7, n=6)
        config = InitConfig(n_basis_grid=(2, 4, 1000), n_folds=3)
        result = somp_initialize(designs, targets, config, seed=8)
        assert len(result.support) <= designs[0].shape[1]

    def test_support_may_exceed_sample_count(self):
        """The Bayesian solve is well-posed for θ > N (unlike LS)."""
        designs, targets, _ = problem(8, n=5)
        config = InitConfig(
            r0_grid=(0.5,), sigma0_grid=(0.1,), n_basis_grid=(9,),
            n_folds=3,
        )
        result = somp_initialize(designs, targets, config, seed=9)
        assert len(result.support) == 9


def balanced_problem(seed=0, n_states=201, n_basis=40, n=8):
    """``problem`` with every state fitted on one shared design."""
    designs, targets, support = problem(seed, n_states, n_basis, n)
    rng = np.random.default_rng(seed + 1)
    shared = designs[0]
    targets = [
        shared @ (0.1 * rng.standard_normal(n_basis)) + t for t in targets
    ]
    return [shared] * n_states, targets, support


#: (problem, InitConfig kwargs, pooled worker count) per input. The
#: small input never reaches OpenBLAS's threading thresholds. The second
#: one does: its train splits hold 201 × 4 = 804 rows and its Kronecker
#: greedy solver eigendecomposes a 201 × 201 correlation matrix, whose
#: result changes in the last bits with the thread count. A worker left
#: on the default threads while inline cells run on one thread shows up
#: here as a bit difference. (On OpenBLAS 0.3 the Woodbury solver's CV
#: cells and the Kronecker ones up to K = 128 measured thread-invariant
#: at 192-800 rows, so a smaller input cannot catch that.)
_PARALLEL_CASES = {
    "small": (
        lambda: problem(3, n_states=4, n=12),
        dict(
            r0_grid=(0.3, 0.9),
            sigma0_grid=(0.1, 0.3),
            n_basis_grid=(3, 6),
            n_folds=2,
        ),
        4,
    ),
    "threaded_size": (
        lambda: balanced_problem(5),
        dict(
            r0_grid=(0.9,), sigma0_grid=(0.1,), n_basis_grid=(3, 6),
            n_folds=2,
        ),
        2,
    ),
}


class TestParallelCV:
    """The CV grid must be bit-identical for any worker count."""

    def test_workers_bit_identical(self):
        for case, (make_problem, config_kwargs, workers) in (
            _PARALLEL_CASES.items()
        ):
            designs, targets, _ = make_problem()
            config = InitConfig(**config_kwargs)
            serial = somp_initialize(
                designs, targets, config, seed=17, max_workers=1
            )
            pooled = somp_initialize(
                designs, targets, config, seed=17, max_workers=workers
            )
            assert serial.support == pooled.support, case
            assert serial.r0 == pooled.r0, case
            assert serial.sigma0 == pooled.sigma0, case
            assert serial.n_basis == pooled.n_basis, case
            assert serial.noise_var == pooled.noise_var, case
            assert serial.cv_errors.keys() == pooled.cv_errors.keys(), case
            for key in serial.cv_errors:
                assert serial.cv_errors[key] == pooled.cv_errors[key], (
                    case, key
                )
            np.testing.assert_array_equal(
                serial.prior.lambdas, pooled.prior.lambdas, err_msg=case
            )
            np.testing.assert_array_equal(
                serial.prior.correlation, pooled.prior.correlation,
                err_msg=case,
            )


class TestBalancedCV:
    """CV scoring on balanced folds: one GEMM per θ, same scores."""

    def test_cell_scores_match_per_state_reference(self):
        from repro.core.multistate import MultiStateData
        from repro.core.somp_init import KroneckerBayesSolver, _score_cv_cell

        designs, targets, _ = balanced_problem(4, n_states=24, n=12)
        data = MultiStateData.from_states(designs, targets)
        test_rows = np.array([2, 9, 5])
        payload = {
            "folds": [data.split([test_rows] * data.n_states)],
            "theta_set": frozenset({2, 5, 8}),
            "theta_max": 8,
            "solver": KroneckerBayesSolver,
        }
        scores = _score_cv_cell((0, 0.7, 0.15), payload)

        # Per-state reference: explicit train/test lists, the literal
        # greedy loop, per-state predictions and error sums.
        mask = np.ones(designs[0].shape[0], dtype=bool)
        mask[test_rows] = False
        train_d = [d[mask] for d in designs]
        train_t = [t[mask] for t in targets]
        test_d = [d[test_rows] for d in designs]
        test_t = [t[test_rows] for t in targets]
        solver = KroneckerBayesSolver(0.7, 0.15)
        solver.begin(train_d, train_t)
        support, residuals, want = [], [t.copy() for t in train_t], []
        for _ in range(8):
            score = sum(np.abs(d.T @ r) for d, r in zip(train_d, residuals))
            score[support] = -np.inf
            support.append(int(np.argmax(score)))
            coefficients = solver.extend(support[-1])
            residuals = [
                t - d[:, support] @ coefficients[:, k]
                for k, (d, t) in enumerate(zip(train_d, train_t))
            ]
            if len(support) in payload["theta_set"]:
                num = sum(
                    float(np.sum((d[:, support] @ coefficients[:, k] - t) ** 2))
                    for k, (d, t) in enumerate(zip(test_d, test_t))
                )
                den = sum(float(np.sum(t**2)) for t in test_t)
                want.append((len(support), float(np.sqrt(num / den))))

        assert [theta for theta, _ in scores] == [2, 5, 8]
        assert [theta for theta, _ in want] == [2, 5, 8]
        for (_, got), (_, expected) in zip(scores, want):
            assert abs(got - expected) <= 1e-12

    def test_balance_checked_once_per_fit(self, monkeypatch):
        from repro.core.multistate import MultiStateData

        designs, targets, _ = balanced_problem(6, n_states=24, n=12)
        original = MultiStateData._check_balanced
        calls = []

        def counting(self):
            calls.append(self.n_rows)
            return original(self)

        monkeypatch.setattr(MultiStateData, "_check_balanced", counting)
        config = InitConfig(
            r0_grid=(0.5, 0.9), sigma0_grid=(0.1,), n_basis_grid=(2, 4),
            n_folds=3,
        )
        result = somp_initialize(designs, targets, config, seed=1)
        assert calls == [24 * 12]
        assert result.n_basis in (2, 4)
