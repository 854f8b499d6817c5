"""Model serving: versioned registry, micro-batching engine, service.

A fitted performance model's life after ``fit`` lives here:

* :class:`ModelRegistry` — versioned on-disk store of frozen models
  (``name@vN`` keys, JSON manifests, sha256 integrity checks).
* :class:`PredictionEngine` — coalesces single and bulk requests into
  one vectorized matmul per (model, state) group; every row is
  computed, and answers stay column arrays until a public method
  returns :class:`PredictionResult` rows.
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

from repro.serving.engine import BatchConfig, PredictionEngine, ServedModel
from repro.serving.metrics import ServingMetrics, aggregate_snapshots
from repro.serving.registry import (
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    read_model_dir,
    write_model_dir,
)
from repro.serving.requests import PredictionRequest, PredictionResult
from repro.serving.service import ModelService

__all__ = [
    "BatchConfig",
    "ModelRegistry",
    "ModelService",
    "PredictionEngine",
    "PredictionRequest",
    "PredictionResult",
    "RegistryEntry",
    "RegistryError",
    "ServedModel",
    "ServingMetrics",
    "aggregate_snapshots",
    "read_model_dir",
    "write_model_dir",
]
