"""Micro-batching prediction engine.

The hot path of serving is a matmul — ``basis.expand(x) @ coef[state]``
— and a matmul over one stacked design matrix is far cheaper than the
same rows one by one. The engine therefore never computes a request in
isolation if it can help it:

* ``predict_array`` (the bulk path) groups the rows by state and runs
  one ``basis.expand`` plus one :meth:`ServedModel.predict_design` per
  group, filling one ``(rows, metrics)`` array — so every answer is an
  element of ``FrozenModel.predict`` on that state's stacked rows, in
  request order. ``predict_many`` wraps it in :class:`PredictionResult`
  rows; the cluster shards send the array's columns as they are.
* ``predict`` (the streaming path) parks each request in a queue; the
  queue flushes when it reaches ``BatchConfig.max_batch_size`` rows or
  when ``flush_interval`` elapses, whichever comes first, and the flush
  hands each served model's queued rows to the bulk path. Concurrent
  callers coalesce; a lone caller pays at most one flush interval of
  latency.

Repeated rows are computed each time: Monte-Carlo sign-off and
post-silicon tuning traffic never repeats an ``(x, state)`` pair, so a
result cache would only add a lookup per row.
"""

from __future__ import annotations

import threading
import time
from types import MappingProxyType
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.basis import BasisDictionary
from repro.core.frozen import FrozenModel
from repro.serving.metrics import ServingMetrics
from repro.serving.requests import PredictionResult, results_from_columns

__all__ = ["BatchConfig", "PredictionEngine", "ServedModel"]


@dataclass(frozen=True)
class BatchConfig:
    """Micro-batching knobs.

    ``max_batch_size`` rows force a flush; otherwise the oldest queued
    request waits at most ``flush_interval`` seconds. The two sentinel
    intervals are distinct: ``flush_interval=0`` means *flush
    immediately* (the "unbatched" baseline, like ``max_batch_size=1``),
    while ``flush_interval=None`` means *never flush on time* — a
    request waits, indefinitely if need be, until the batch fills or
    someone flushes explicitly.
    """

    max_batch_size: int = 64
    flush_interval: Optional[float] = 0.002

    def __post_init__(self) -> None:
        """Validate the configuration."""
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.flush_interval is not None and self.flush_interval < 0:
            raise ValueError(
                f"flush_interval must be >= 0 or None, "
                f"got {self.flush_interval}"
            )

    def wait_timeout(self) -> Optional[float]:
        """Event-wait timeout for the streaming path.

        ``None`` (size-triggered flushing only) waits without a timeout;
        ``0`` polls on a short interval so an immediate-flush engine can
        never park a request forever — the regression the old
        ``flush_interval or None`` coercion caused by conflating the
        falsy ``0`` with ``None``.
        """
        if self.flush_interval is None:
            return None
        if self.flush_interval == 0.0:
            return 5e-4
        return self.flush_interval


class ServedModel:
    """An immutable, fully-resolved model version ready to serve.

    Bundles the basis with one :class:`FrozenModel` per metric under a
    ``(name, version)`` identity. The service swaps whole ``ServedModel``
    objects atomically, and every batch captures one reference before
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
        """One ``FrozenModel.predict`` per metric on a stacked design.

        This is the single compute path of the whole serving layer:
        batched answers are literally elements of these arrays, which is
        what makes them bit-identical to direct ``FrozenModel.predict``
        calls on the same matrix.
        """
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


@dataclass
class _Pending:
    """One queued streaming request awaiting a batch flush."""

    served: ServedModel
    x: np.ndarray
    state: int
    event: threading.Event = field(default_factory=threading.Event)
    row: Optional[np.ndarray] = None  # (1, metrics) answer
    error: Optional[Exception] = None


class PredictionEngine:
    """Coalesces prediction requests into vectorized batched matmuls."""

    def __init__(
        self,
        metrics: Optional[ServingMetrics] = None,
        batch: Optional[BatchConfig] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.batch = batch if batch is not None else BatchConfig()
        self._lock = threading.Lock()
        self._queue: List[_Pending] = []

    # -- bulk path ------------------------------------------------------
    def _compute(
        self, served: ServedModel, x: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """``(rows, metrics)`` answers, one expand + predict per state.

        Column-major, so each metric's column — and any row range of
        it — is contiguous.
        """
        metrics = served.metric_names
        n = x.shape[0]
        out = np.empty((n, len(metrics)), order="F")
        if not n:
            return out
        # A stable sort keeps each state's rows in request order.
        order = np.argsort(states, kind="stable")
        ordered = states[order]
        starts = (np.flatnonzero(np.diff(ordered)) + 1).tolist()
        for start, stop in zip([0] + starts, starts + [n]):
            rows = order[start:stop]
            answers = served.predict_design(
                served.basis.expand(x[rows]), int(ordered[start])
            )
            for j, metric in enumerate(metrics):
                out[rows, j] = answers[metric]
            self.metrics.record_batch(rows.size)
        return out

    def predict_array(
        self,
        served: ServedModel,
        x: np.ndarray,
        states: Sequence[int],
    ) -> np.ndarray:
        """Answer a request list as one ``(rows, metrics)`` array.

        Columns follow ``served.metric_names``. Rows are grouped by
        state and each group is one ``FrozenModel.predict`` per metric
        on its stacked rows in request order, so every answer is
        bit-identical to that call.
        """
        started = time.perf_counter()
        x, states = _check_rows(served, x, states)
        out = self._compute(served, x, states)
        n = x.shape[0]
        if n:
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

    # -- streaming path -------------------------------------------------
    @staticmethod
    def _check_request(
        served: ServedModel, x: np.ndarray, state: int
    ) -> np.ndarray:
        """Validate one sample vector with the bulk path's check."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(
                f"x must be one sample vector, got shape {x.shape}"
            )
        _check_rows(served, x[None, :], [state])
        return x

    def predict(
        self, served: ServedModel, x: np.ndarray, state: int
    ) -> PredictionResult:
        """Answer one request, coalescing with concurrent ones.

        The request is validated before it is queued, so a bad one
        fails alone. Blocks until the request's batch flushes — at most
        one ``flush_interval`` after enqueueing (a full queue, another
        thread's flush or this thread's own timeout flush, whichever
        happens first).
        """
        started = time.perf_counter()
        x = self._check_request(served, x, int(state))
        item = _Pending(served=served, x=x, state=int(state))
        with self._lock:
            self._queue.append(item)
            flush_now = (
                len(self._queue) >= self.batch.max_batch_size
                or self.batch.flush_interval == 0.0
            )
        if flush_now:
            self.flush()
        timeout = self.batch.wait_timeout()
        while not item.event.wait(timeout=timeout):
            self.flush()
        if item.error is not None:
            raise item.error
        self.metrics.record_request(time.perf_counter() - started)
        return results_from_columns(
            served.metric_names, served.version, item.row.T
        )[0]

    def flush(self) -> int:
        """Drain the queue now; returns how many requests were answered.

        Each served model's queued rows go through the bulk path's
        computation as one request list.
        """
        with self._lock:
            pending, self._queue = self._queue, []
        by_model: Dict[int, List[_Pending]] = {}
        for item in pending:
            by_model.setdefault(id(item.served), []).append(item)
        answered = 0
        for items in by_model.values():
            try:
                out = self._compute(
                    items[0].served,
                    np.stack([item.x for item in items]),
                    np.array([item.state for item in items]),
                )
            except Exception as error:  # propagate to every waiter
                for item in items:
                    item.error = error
                    item.event.set()
                continue
            for j, item in enumerate(items):
                item.row = out[j:j + 1]
                item.event.set()
            answered += len(items)
        return answered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PredictionEngine(batch={self.batch})"
