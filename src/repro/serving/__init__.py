"""Model serving: versioned registry, prediction engine, service.

A fitted performance model's life after ``fit`` lives here:

* :class:`ModelRegistry` — versioned on-disk store of frozen models
  (``name@vN`` keys, JSON manifests, sha256 integrity checks).
* :class:`PredictionEngine` — answers a request list with one basis
  expansion and one gathered row-wise product per metric, each row
  bit-identical to ``FrozenModel.predict`` of that row alone; every
  row is computed, and answers stay column arrays until a public
  method returns
  :class:`PredictionResult` rows. Requests computed together are sent
  together (``predict_many``); the cluster gateway merges concurrent
  remote requests before they reach a shard.
* :class:`ServingMetrics` — counters and latency quantiles behind a
  ``snapshot()`` dict.
* :class:`ModelService` — the thread-safe façade wiring the three
  together, with graceful hot-swap of model versions under load.

    registry = ModelRegistry("models/")
    registry.push("lna", PerformanceModelSet.fit_dataset(train))
    service = ModelService(registry)
    service.load("lna@latest")
    service.predict("lna", x, state=3).values   # {"nf_db": ..., ...}
"""

from repro.serving.engine import PredictionEngine, ServedModel
from repro.serving.metrics import ServingMetrics, aggregate_snapshots
from repro.serving.registry import (
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    read_model_dir,
    write_model_dir,
)
from repro.serving.requests import PredictionResult
from repro.serving.service import ModelService

__all__ = [
    "ModelRegistry",
    "ModelService",
    "PredictionEngine",
    "PredictionResult",
    "RegistryEntry",
    "RegistryError",
    "ServedModel",
    "ServingMetrics",
    "aggregate_snapshots",
    "read_model_dir",
    "write_model_dir",
]
