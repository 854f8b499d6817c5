"""Frozen (deployable) performance models.

A fitted estimator carries training data, hyper-parameters and diagnostics;
what downstream tools need is only the coefficient matrix. ``FrozenModel``
captures that — the (K × M) coefficients, per-state offsets and metadata —
and round-trips through a single ``.npz`` file, so a model fitted once can
be shipped to yield/corner/tuning flows without the fitting stack.

    frozen = FrozenModel.from_estimator(model, metric="nf_db")
    frozen.save("lna_nf.npz")
    ...
    frozen = FrozenModel.load("lna_nf.npz")
    frozen.predict(design, state)
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.base import MultiStateRegressor
from repro.utils.validation import check_matrix, check_vector

__all__ = ["FrozenModel"]


class FrozenModel(MultiStateRegressor):
    """An immutable coefficient-only performance model.

    Parameters
    ----------
    coef:
        Coefficient matrix, shape (K, M).
    offsets:
        Optional per-state additive offsets (length K); zero when absent.
    metric:
        Optional metric name carried as metadata.
    basis_names:
        Optional basis-function names (length M) for reporting.
    correlation:
        Optional learned (K × K) inter-state correlation matrix. A
        C-BMF fit learns it as part of the prior; carrying it with the
        frozen artifact lets downstream consumers (the yield/moment
        estimation service) share statistical strength across states
        long after the fitting stack is gone.
    """

    def __init__(
        self,
        coef: np.ndarray,
        offsets: Optional[np.ndarray] = None,
        metric: str = "",
        basis_names: Optional[tuple] = None,
        correlation: Optional[np.ndarray] = None,
    ) -> None:
        self.coef_ = check_matrix(coef, "coef")
        n_states = self.coef_.shape[0]
        if offsets is None:
            offsets = np.zeros(n_states)
        self.offsets_ = check_vector(offsets, "offsets", length=n_states)
        self.metric = str(metric)
        if basis_names is not None:
            if len(basis_names) != self.coef_.shape[1]:
                raise ValueError(
                    f"basis_names has {len(basis_names)} entries for "
                    f"{self.coef_.shape[1]} coefficients"
                )
            basis_names = tuple(str(name) for name in basis_names)
        self.basis_names = basis_names
        if correlation is not None:
            correlation = check_matrix(
                correlation, "correlation", shape=(n_states, n_states)
            )
        self.correlation_ = correlation

    # ------------------------------------------------------------------
    @classmethod
    def from_estimator(
        cls,
        estimator: MultiStateRegressor,
        metric: str = "",
        basis_names: Optional[tuple] = None,
    ) -> "FrozenModel":
        """Freeze any fitted estimator's coefficients."""
        estimator._require_fitted()
        offsets = getattr(estimator, "offsets_", None)
        prior = getattr(estimator, "prior_", None)
        correlation = getattr(prior, "correlation", None)
        return cls(
            coef=np.array(estimator.coef_, copy=True),
            offsets=None if offsets is None else np.array(offsets, copy=True),
            metric=metric,
            basis_names=basis_names,
            correlation=(
                None if correlation is None else np.array(correlation, copy=True)
            ),
        )

    # ------------------------------------------------------------------
    def fit(self, designs, targets) -> "FrozenModel":
        raise NotImplementedError(
            "FrozenModel is immutable; fit the original estimator and "
            "freeze it again"
        )

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialize to a compressed ``.npz`` file."""
        payload = {
            "coef": self.coef_,
            "offsets": self.offsets_,
            "metric": np.array(self.metric),
        }
        if self.basis_names is not None:
            payload["basis_names"] = np.array(list(self.basis_names))
        if self.correlation_ is not None:
            payload["correlation"] = self.correlation_
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load(cls, path) -> "FrozenModel":
        """Load a model written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            missing = [key for key in ("coef", "offsets") if key not in data]
            if missing:
                raise ValueError(
                    f"{path} is not a FrozenModel archive: missing "
                    f"key(s) {', '.join(missing)} "
                    f"(found: {', '.join(sorted(data.files)) or 'none'})"
                )
            basis_names = None
            if "basis_names" in data:
                basis_names = tuple(str(n) for n in data["basis_names"])
            correlation = data["correlation"] if "correlation" in data else None
            return cls(
                coef=data["coef"],
                offsets=data["offsets"],
                metric=str(data["metric"]),
                basis_names=basis_names,
                correlation=correlation,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrozenModel(metric={self.metric!r}, K={self.coef_.shape[0]}, "
            f"M={self.coef_.shape[1]})"
        )
