"""PerformanceModelSet: every metric of a circuit behind one handle.

The estimators model one metric at a time (as in the paper); real flows
need all of them — NF *and* gain *and* IIP3 — plus the basis bookkeeping.
``PerformanceModelSet`` fits one estimator per metric from a dataset,
predicts dictionaries of metrics, freezes/saves the whole set, and plugs
directly into the yield/tuning applications.

    models = PerformanceModelSet.fit_dataset(train, method="cbmf", seed=0)
    models.predict(x, state=3)           # {"nf_db": ..., "gain_db": ...}
    models.save_dir("models/")           # one npz per metric
    TuningPolicy(models.as_mapping(), models.basis, specs).summarize()
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.basis.dictionary import BasisDictionary
from repro.basis.polynomial import LinearBasis
from repro.core.base import MultiStateRegressor
from repro.core.frozen import FrozenModel
from repro.evaluation.methods import make_estimator
from repro.simulate.dataset import Dataset
from repro.utils.rng import SeedLike
from repro.utils.validation import check_matrix

__all__ = ["PerformanceModelSet"]


class PerformanceModelSet:
    """A fitted estimator per metric, sharing one basis dictionary."""

    def __init__(
        self,
        models: Mapping[str, MultiStateRegressor],
        basis: BasisDictionary,
    ) -> None:
        if not models:
            raise ValueError("at least one metric model is required")
        states = {model.n_states for model in models.values()}
        if len(states) != 1:
            raise ValueError(
                f"models disagree on the state count: {sorted(states)}"
            )
        for metric, model in models.items():
            if model.n_basis != basis.n_basis:
                raise ValueError(
                    f"model {metric!r} has {model.n_basis} coefficients "
                    f"but the basis has {basis.n_basis} functions"
                )
        self._models: Dict[str, MultiStateRegressor] = dict(models)
        self.basis = basis
        self.n_states = states.pop()

    # ------------------------------------------------------------------
    @classmethod
    def fit_dataset(
        cls,
        train: Dataset,
        method: str = "cbmf",
        basis: Optional[BasisDictionary] = None,
        metrics: Optional[Sequence[str]] = None,
        seed: SeedLike = None,
    ) -> "PerformanceModelSet":
        """Fit one registry estimator per metric of a training dataset."""
        basis = basis or LinearBasis(train.n_variables)
        metric_names = tuple(metrics) if metrics else train.metric_names
        designs = basis.expand_states(train.inputs())
        models: Dict[str, MultiStateRegressor] = {}
        for metric in metric_names:
            estimator = make_estimator(method, seed)
            estimator.fit(designs, train.targets(metric))
            models[metric] = estimator
        return cls(models, basis)

    # ------------------------------------------------------------------
    @property
    def metric_names(self):
        """Fitted metrics, sorted."""
        return tuple(sorted(self._models))

    def model(self, metric: str) -> MultiStateRegressor:
        """The estimator of one metric."""
        if metric not in self._models:
            raise KeyError(
                f"no model for {metric!r}; have {self.metric_names}"
            )
        return self._models[metric]

    def as_mapping(self) -> Dict[str, MultiStateRegressor]:
        """Plain dict view (for TuningPolicy)."""
        return dict(self._models)

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, state: int) -> Dict[str, np.ndarray]:
        """All metrics for raw samples ``x`` (n × n_variables) at a state."""
        x = check_matrix(x, "x", shape=(None, self.basis.n_variables))
        design = self.basis.expand(x)
        return {
            metric: model.predict(design, state)
            for metric, model in self._models.items()
        }

    def predict_point(self, x: np.ndarray, state: int) -> Dict[str, float]:
        """All metrics for a single sample vector."""
        x = np.asarray(x, dtype=float)
        results = self.predict(x[None, :], state)
        return {metric: float(v[0]) for metric, v in results.items()}

    # ------------------------------------------------------------------
    def freeze(self) -> Dict[str, FrozenModel]:
        """Frozen (coefficient-only) snapshot of every metric model."""
        return {
            metric: FrozenModel.from_estimator(
                model, metric=metric, basis_names=self.basis.names
            )
            for metric, model in self._models.items()
        }

    def save_dir(self, directory) -> None:
        """Save one ``<metric>.npz`` per metric into ``directory``.

        Routed through the serving registry's serialization: alongside
        the npz files a ``manifest.json`` records the metric list, the
        basis reconstruction spec and per-file sha256 checksums, so the
        directory doubles as a registry artifact and reloads without
        the caller re-supplying the basis.
        """
        from repro.serving.registry import write_model_dir

        write_model_dir(directory, self.freeze(), basis=self.basis)

    @classmethod
    def load_dir(
        cls, directory, basis: Optional[BasisDictionary] = None
    ) -> "PerformanceModelSet":
        """Load the frozen metric models saved under ``directory``.

        With a ``manifest.json`` present (written by :meth:`save_dir` or
        a registry push), checksums are verified and the basis is
        rebuilt from its stored spec — ``basis`` then only overrides it.
        Directories of loose ``*.npz`` files (the pre-registry layout)
        still load, but require an explicit ``basis``.
        """
        from repro.serving.registry import read_model_dir

        directory = Path(directory)
        models, manifest_basis, _ = read_model_dir(directory)
        if not models:
            raise FileNotFoundError(f"no .npz models under {directory}")
        basis = basis if basis is not None else manifest_basis
        if basis is None:
            raise ValueError(
                f"{directory} has no manifest with a basis spec; pass "
                "the basis explicitly"
            )
        return cls(models, basis)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PerformanceModelSet(metrics={list(self.metric_names)}, "
            f"K={self.n_states})"
        )
