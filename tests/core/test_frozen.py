"""Tests for frozen models."""

import numpy as np
import pytest

from repro.baselines.least_squares import LeastSquares
from repro.core.base import rowwise_predict
from repro.core.cbmf import CBMF
from repro.core.em import EmConfig
from repro.core.frozen import FrozenModel
from repro.core.somp_init import InitConfig

from tests.conftest import make_synthetic


def fitted_cbmf(seed=0):
    problem = make_synthetic(seed=seed)
    designs, targets = problem.sample(15)
    model = CBMF(
        init_config=InitConfig(
            r0_grid=(0.8,), sigma0_grid=(0.1,), n_basis_grid=(6,), n_folds=4
        ),
        em_config=EmConfig(max_iterations=8),
        seed=0,
    ).fit(designs, targets)
    return model, designs


class TestConstruction:
    def test_default_offsets_zero(self):
        frozen = FrozenModel(np.ones((3, 4)))
        assert np.allclose(frozen.offsets_, 0.0)

    def test_offsets_length_checked(self):
        with pytest.raises(ValueError):
            FrozenModel(np.ones((3, 4)), offsets=np.zeros(2))

    def test_basis_names_length_checked(self):
        with pytest.raises(ValueError, match="basis_names"):
            FrozenModel(np.ones((2, 3)), basis_names=("a",))

    def test_fit_is_forbidden(self):
        with pytest.raises(NotImplementedError):
            FrozenModel(np.ones((2, 3))).fit([], [])


class TestFromEstimator:
    def test_predictions_identical(self):
        model, designs = fitted_cbmf()
        frozen = FrozenModel.from_estimator(model, metric="y")
        for k, design in enumerate(designs):
            assert np.allclose(
                frozen.predict(design, k), model.predict(design, k)
            )

    def test_offsets_carried(self):
        model, designs = fitted_cbmf(1)
        # Strip the intercept so the estimator uses explicit offsets.
        stripped = [d[:, 1:] for d in designs]
        problem = make_synthetic(seed=1)
        _, targets = problem.sample(15)
        model = CBMF(
            init_config=InitConfig(
                r0_grid=(0.8,), sigma0_grid=(0.1,), n_basis_grid=(6,),
                n_folds=4,
            ),
            em_config=EmConfig(max_iterations=8),
            seed=0,
        ).fit(stripped, [t + 3.0 for t in targets])
        frozen = FrozenModel.from_estimator(model)
        assert np.allclose(frozen.offsets_, model.offsets_)
        assert np.allclose(
            frozen.predict(stripped[0], 0), model.predict(stripped[0], 0)
        )

    def test_requires_fitted(self):
        with pytest.raises(RuntimeError):
            FrozenModel.from_estimator(LeastSquares())

    def test_coefficients_copied(self):
        model, designs = fitted_cbmf(2)
        frozen = FrozenModel.from_estimator(model)
        frozen.coef_[0, 0] += 100.0
        assert model.coef_[0, 0] != frozen.coef_[0, 0]


class TestRoundtrip:
    def test_save_load(self, tmp_path):
        model, designs = fitted_cbmf(3)
        frozen = FrozenModel.from_estimator(
            model, metric="gain_db", basis_names=tuple(
                f"b{i}" for i in range(model.coef_.shape[1])
            )
        )
        path = tmp_path / "model.npz"
        frozen.save(path)
        loaded = FrozenModel.load(path)
        assert loaded.metric == "gain_db"
        assert loaded.basis_names == frozen.basis_names
        assert np.allclose(loaded.coef_, frozen.coef_)
        for k, design in enumerate(designs):
            assert np.allclose(
                loaded.predict(design, k), frozen.predict(design, k)
            )

    def test_save_load_without_names(self, tmp_path):
        frozen = FrozenModel(np.ones((2, 3)), metric="nf")
        path = tmp_path / "m.npz"
        frozen.save(path)
        loaded = FrozenModel.load(path)
        assert loaded.basis_names is None
        assert loaded.metric == "nf"

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, weights=np.ones((2, 3)))
        with pytest.raises(ValueError, match="coef"):
            FrozenModel.load(path)

    def test_load_names_each_missing_key(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez_compressed(path, coef=np.ones((2, 3)))
        with pytest.raises(ValueError, match="offsets"):
            FrozenModel.load(path)


class TestRowwisePredict:
    """The one prediction kernel behind every ``predict`` and the
    serving engine."""

    def wide(self, n_basis=3000, n_states=5, n_rows=100):
        rng = np.random.default_rng(4)
        frozen = FrozenModel(
            rng.standard_normal((n_states, n_basis)),
            offsets=rng.standard_normal(n_states),
        )
        design = rng.standard_normal((n_rows, n_basis))
        return frozen, design, rng.integers(0, n_states, n_rows)

    def test_matches_the_matmul_reference(self):
        frozen, design, _ = self.wide()
        for k in range(frozen.n_states):
            expected = design @ frozen.coef_[k] + frozen.offsets_[k]
            assert np.allclose(
                frozen.predict(design, k), expected, rtol=1e-12, atol=0
            )

    def test_gathered_rows_equal_each_row_alone(self):
        """M = 3000 puts ~21 rows in each gathered block, so the 100
        rows span five blocks; F-ordered copies of the operands give
        the same bits as C-ordered ones."""
        frozen, design, states = self.wide()
        alone = [
            frozen.predict(design[i:i + 1], int(state))[0]
            for i, state in enumerate(states)
        ]
        gathered = rowwise_predict(
            design, frozen.coef_, states, frozen.offsets_
        )
        assert gathered.tolist() == alone
        fortran = rowwise_predict(
            np.asfortranarray(design), np.asfortranarray(frozen.coef_),
            states, frozen.offsets_,
        )
        assert fortran.tolist() == alone
        for k in range(frozen.n_states):
            rows = np.flatnonzero(states == k)
            assert frozen.predict(design[rows], k).tolist() == [
                alone[i] for i in rows
            ]
