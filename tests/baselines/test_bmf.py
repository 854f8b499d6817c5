"""Tests for the uncorrelated-BMF ablation estimator."""

import numpy as np

from repro.baselines.bmf import UncorrelatedBMF
from repro.core.cbmf import CBMF
from repro.core.em import EmConfig
from repro.core.somp_init import InitConfig

from tests.conftest import make_synthetic

FAST_INIT = InitConfig(
    r0_grid=(0.0, 0.9), sigma0_grid=(0.1,), n_basis_grid=(4, 8), n_folds=4
)
FAST_EM = EmConfig(max_iterations=15)


class TestUncorrelatedBMF:
    def test_correlation_stays_diagonal(self):
        problem = make_synthetic(seed=0)
        designs, targets = problem.sample(15)
        model = UncorrelatedBMF(
            init_config=FAST_INIT, em_config=FAST_EM, seed=0
        ).fit(designs, targets)
        r = model.prior_.correlation
        assert np.allclose(r, np.diag(np.diag(r)))

    def test_r0_grid_collapsed_to_identity(self):
        model = UncorrelatedBMF(init_config=FAST_INIT)
        assert model.init_config.r0_grid == (0.0,)

    def test_fits_and_predicts(self):
        problem = make_synthetic(seed=1)
        designs, targets = problem.sample(20)
        model = UncorrelatedBMF(
            init_config=FAST_INIT, em_config=FAST_EM, seed=0
        ).fit(designs, targets)
        assert np.allclose(model.coef_, problem.coef, atol=0.4)

    def test_cbmf_beats_bmf_on_strongly_correlated_truth(self):
        """The ablation the paper's argument rests on: adding magnitude
        correlation helps when coefficients really are correlated."""
        problem = make_synthetic(
            seed=2, n_states=12, n_basis=80, n_support=6, r0=0.97
        )
        designs, targets = problem.sample(8)
        test_d, test_t = problem.sample(200)

        def error(model):
            num = den = 0.0
            for k in range(problem.n_states):
                p = model.predict(test_d[k], k)
                num += float(np.sum((p - test_t[k]) ** 2))
                den += float(np.sum((test_t[k] - test_t[k].mean()) ** 2))
            return float(np.sqrt(num / den))

        shared_init = InitConfig(
            r0_grid=(0.0, 0.95),
            sigma0_grid=(0.05, 0.2),
            n_basis_grid=(4, 8),
            n_folds=4,
        )
        cbmf = CBMF(
            init_config=shared_init, em_config=FAST_EM, seed=0
        ).fit(designs, targets)
        bmf = UncorrelatedBMF(
            init_config=shared_init, em_config=FAST_EM, seed=0
        ).fit(designs, targets)
        assert error(cbmf) < error(bmf)

    def test_preserves_custom_em_flags(self):
        em = EmConfig(max_iterations=7, update_r=False)
        model = UncorrelatedBMF(em_config=em)
        assert model.em_config.max_iterations == 7
        assert model.em_config.diagonal_r is True
        assert model.em_config.update_r is False
