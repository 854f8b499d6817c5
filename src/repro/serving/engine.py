"""Prediction engine: one array computation per request list.

C-BMF models are linear in one shared basis, so ``predict_array``
expands a request's rows once and fills each metric's column of one
``(rows, metrics)`` array with one gathered row-wise product,
``φ(x_i)·coef[s_i] + offset[s_i]``. That product is
:func:`repro.core.base.rowwise_predict`, the kernel
``FrozenModel.predict`` runs too, so every answer is bit-identical to
``FrozenModel.predict`` of that row alone.
``predict_many`` wraps the array in :class:`PredictionResult` rows,
``predict`` answers one sample vector as a one-row request, and the
cluster shards send the array's columns as they are.

The engine holds no queue: callers that want their requests computed
together send them together (``predict_many``), and the cluster
gateway's asyncio coalescer merges concurrent remote requests before
they reach a shard. Repeated rows are computed each time: Monte-Carlo
sign-off and post-silicon tuning traffic never repeats an
``(x, state)`` pair, so a result cache would only add a lookup per row.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.basis import BasisDictionary
from repro.core.base import rowwise_predict
from repro.core.frozen import FrozenModel
from repro.serving.metrics import ServingMetrics
from repro.serving.requests import PredictionResult, results_from_columns

__all__ = ["PredictionEngine", "ServedModel"]


class ServedModel:
    """An immutable, fully-resolved model version ready to serve.

    Bundles the basis with one :class:`FrozenModel` per metric under a
    ``(name, version)`` identity. The service swaps whole ``ServedModel``
    objects atomically, and every request captures one reference before
    computing — so a single answer can never mix two versions'
    coefficients.
    """

    def __init__(
        self,
        name: str,
        version: int,
        basis: BasisDictionary,
        models: Mapping[str, FrozenModel],
    ) -> None:
        if not models:
            raise ValueError("at least one metric model is required")
        states = {frozen.coef_.shape[0] for frozen in models.values()}
        if len(states) != 1:
            raise ValueError(
                f"metric models disagree on the state count: {sorted(states)}"
            )
        for metric, frozen in models.items():
            if frozen.coef_.shape[1] != basis.n_basis:
                raise ValueError(
                    f"model {metric!r} has {frozen.coef_.shape[1]} "
                    f"coefficients but the basis has {basis.n_basis} "
                    "functions"
                )
        self.name = str(name)
        self.version = int(version)
        self.basis = basis
        self._models = dict(models)
        self.n_states = states.pop()

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Served metrics, sorted."""
        return tuple(sorted(self._models))

    @property
    def models(self) -> Mapping[str, FrozenModel]:
        """Read-only metric → frozen-model mapping (do not mutate)."""
        return MappingProxyType(self._models)

    def predict_design(
        self, design: np.ndarray, state: int
    ) -> Dict[str, np.ndarray]:
        """One ``FrozenModel.predict`` per metric on one state's design."""
        return {
            metric: frozen.predict(design, state)
            for metric, frozen in self._models.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServedModel({self.name}@v{self.version}, "
            f"metrics={list(self.metric_names)}, K={self.n_states})"
        )


def _check_rows(
    served: ServedModel, x, states
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a bulk request: finite ``(rows, n_variables)`` ``x`` and
    one in-range state per row. Returns both as arrays."""
    x = np.asarray(x, dtype=float)
    n_variables = served.basis.n_variables
    if x.ndim != 2 or x.shape[1] != n_variables:
        raise ValueError(
            f"x has shape {x.shape}; model {served.name}@v{served.version} "
            f"expects rows of {n_variables} variables"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    states = np.asarray(states, dtype=int)
    if states.shape != (x.shape[0],):
        raise ValueError(
            f"got {x.shape[0]} rows but {states.shape} states"
        )
    bad = states[(states < 0) | (states >= served.n_states)]
    if bad.size:
        raise IndexError(
            f"state {bad[0]} out of range 0..{served.n_states - 1}"
        )
    return x, states


class PredictionEngine:
    """Answers request lists with one expand and one kernel call."""

    def __init__(self, metrics: Optional[ServingMetrics] = None) -> None:
        self.metrics = metrics if metrics is not None else ServingMetrics()

    def predict_array(
        self,
        served: ServedModel,
        x: np.ndarray,
        states: Sequence[int],
    ) -> np.ndarray:
        """Answer a request list as one ``(rows, metrics)`` array.

        Columns follow ``served.metric_names``; the array is
        column-major, so each metric's column — and any row range of
        it — is contiguous. Each column is one
        :func:`~repro.core.base.rowwise_predict` call in which every row
        gathers its own state's coefficients.
        """
        started = time.perf_counter()
        x, states = _check_rows(served, x, states)
        metrics = served.metric_names
        n = x.shape[0]
        out = np.empty((n, len(metrics)), order="F")
        if not n:
            return out
        design = served.basis.expand(x)
        for j, metric in enumerate(metrics):
            frozen = served.models[metric]
            out[:, j] = rowwise_predict(
                design, frozen.coef_, states, frozen.offsets_
            )
        self.metrics.record_batch(n)
        self.metrics.record_request(
            (time.perf_counter() - started) / n, count=n
        )
        return out

    def predict_many(
        self,
        served: ServedModel,
        x: np.ndarray,
        states: Sequence[int],
    ) -> List[PredictionResult]:
        """:meth:`predict_array` as one :class:`PredictionResult` per row."""
        out = self.predict_array(served, x, states)
        return results_from_columns(
            served.metric_names, served.version, out.T
        )

    def predict(
        self, served: ServedModel, x: np.ndarray, state: int
    ) -> PredictionResult:
        """Answer one sample vector as a one-row request."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(
                f"x must be one sample vector, got shape {x.shape}"
            )
        return self.predict_many(served, x[None, :], [state])[0]
