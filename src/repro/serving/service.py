"""Thread-safe serving façade: registry + engine + metrics in one handle.

``ModelService`` is what an application embeds: it resolves ``name@vN``
keys against a :class:`~repro.serving.registry.ModelRegistry`, keeps one
immutable :class:`~repro.serving.engine.ServedModel` per name, and routes
every prediction through one
:class:`~repro.serving.engine.PredictionEngine`.

Hot swap: ``load``/``swap`` build the replacement ``ServedModel`` fully
*before* publishing it under the service lock, and every request
computes against the reference it captured when it started — so under a
concurrent swap each request is answered entirely by the old or entirely
by the new version, never a mixture. Nothing is cached across requests,
so a swap leaves no stale answers behind.

Because the replacement is built fully before publication, a *failed*
swap — corrupt artifact, checksum mismatch, missing basis — can never
disturb the version already serving: the previous ``ServedModel`` stays
installed, the failure is counted in
:meth:`ServingMetrics.record_swap_failure`, and the caller gets a
:class:`~repro.errors.ServingError` wrapping the cause.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ServingError
from repro.serving.engine import PredictionEngine, ServedModel
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry, RegistryError
from repro.serving.requests import PredictionResult

__all__ = ["ModelService"]


class ModelService:
    """Serve registry models through one prediction engine.

    Parameters
    ----------
    registry:
        The model store to resolve keys against.
    metrics:
        Optional shared :class:`ServingMetrics`; one is created if absent.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Optional[ServingMetrics] = None,
    ) -> None:
        self.registry = registry
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.engine = PredictionEngine(metrics=self.metrics)
        self._lock = threading.RLock()
        self._served: Dict[str, ServedModel] = {}

    # -- model lifecycle ------------------------------------------------
    def load(
        self,
        key: str,
        alias: Optional[str] = None,
        fault_plan=None,
    ) -> ServedModel:
        """Resolve, verify and install a registry entry for serving.

        ``alias`` overrides the serving name (default: the registry
        name), so two versions of one artifact can be served side by
        side. Returns the installed :class:`ServedModel`. Loading onto a
        name that is already serving performs a hot swap; a swap that
        fails to build its replacement (corrupt artifact, missing basis,
        an injected ``fault_plan`` firing its ``"swap"`` site) leaves
        the previous version serving, counts a
        :meth:`~repro.serving.metrics.ServingMetrics.record_swap_failure`
        and raises :class:`~repro.errors.ServingError`. A *first* load's
        failure has nothing to fall back to and re-raises unchanged.

        ``fault_plan`` is a chaos-testing hook: a
        :class:`~repro.faults.FaultPlan` fired at site ``"swap"`` after
        the artifact resolves but before publication.
        """
        try:
            entry, models, basis = self.registry.load_models(key)
            if basis is None:
                raise RegistryError(
                    f"entry {entry.key} carries no basis spec; it cannot "
                    "serve raw-x requests"
                )
            if fault_plan is not None:
                from repro.faults import raise_serving_fault

                raise_serving_fault(fault_plan)
            served = ServedModel(
                name=alias or entry.name,
                version=entry.version,
                basis=basis,
                models=models,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            name = alias or str(key).partition("@")[0]
            with self._lock:
                previous = self._served.get(name)
            if previous is None:
                raise
            self.metrics.record_swap_failure()
            raise ServingError(
                f"hot swap of {name!r} to {key!r} failed; version "
                f"{previous.version} is still serving: "
                f"{type(error).__name__}: {error}"
            ) from error
        with self._lock:
            swapping = served.name in self._served
            self._served[served.name] = served
        if swapping:
            self.metrics.record_hot_swap()
        return served

    def swap(
        self,
        key: str,
        alias: Optional[str] = None,
        fault_plan=None,
    ) -> ServedModel:
        """Hot-swap a serving name to another registry version.

        Alias for :meth:`load`; kept separate so call sites read as the
        operation they perform.
        """
        return self.load(key, alias=alias, fault_plan=fault_plan)

    def unload(self, name: str) -> None:
        """Stop serving ``name``."""
        with self._lock:
            if name not in self._served:
                raise KeyError(f"{name!r} is not being served")
            del self._served[name]

    def served_model(self, name: str) -> ServedModel:
        """The currently-installed model version behind ``name``."""
        with self._lock:
            if name not in self._served:
                raise KeyError(
                    f"{name!r} is not being served; loaded: "
                    f"{sorted(self._served)}"
                )
            return self._served[name]

    @property
    def serving(self) -> List[str]:
        """Names currently being served, sorted."""
        with self._lock:
            return sorted(self._served)

    # -- prediction -----------------------------------------------------
    def predict(
        self, name: str, x: np.ndarray, state: int
    ) -> PredictionResult:
        """Answer one sample vector against the current version of
        ``name``, as a one-row request."""
        return self.engine.predict(self.served_model(name), x, state)

    def predict_many(
        self, name: str, x: np.ndarray, states: Sequence[int]
    ) -> List[PredictionResult]:
        """Answer a bulk request list (one matmul per state group)."""
        return self.engine.predict_many(self.served_model(name), x, states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelService(serving={self.serving}, "
            f"registry={self.registry!r})"
        )
