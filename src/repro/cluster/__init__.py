"""Horizontal serving cluster: gateway, shard workers, shared store.

This package scales the single-process serving stack
(:mod:`repro.serving`) across worker processes without multiplying the
model memory footprint::

    callers ──► ClusterService (asyncio gateway)
                  │ route by name, canary split, admission control
                  ├──► shard 0 ─┐  PredictionEngine over name@vN subset
                  ├──► shard 1 ─┤
                  └──► shard N ─┘
                        │ numpy.memmap (read-only, pages shared)
                        ▼
                  ModelStore on disk (raw blocks + sha256 manifest)

- :mod:`repro.cluster.store` — registry artifacts exported once into a
  flat block layout every shard memmaps (one physical copy).
- :mod:`repro.cluster.protocol` — length-prefixed zero-copy frames
  between gateway and shards.
- :mod:`repro.cluster.shard` — the worker process entry point.
- :mod:`repro.cluster.gateway` — the asyncio gateway and its sync
  façade, :class:`ClusterService`.
- :mod:`repro.cluster.metrics` — per-shard / per-version telemetry and
  the text report.
- :mod:`repro.cluster.net` — the TCP / Unix-domain
  :class:`ClusterListener` in front of the gateway, plus the blocking
  :class:`ClusterClient` library.
"""

from repro.cluster.gateway import ClusterConfig, ClusterService
from repro.cluster.metrics import ClusterMetrics, format_cluster_report
from repro.cluster.net import (
    ClusterClient,
    ClusterListener,
    parse_address,
)
from repro.cluster.protocol import ProtocolError
from repro.cluster.shard import shard_main
from repro.cluster.store import (
    ModelStore,
    export_model_store,
    process_pss_bytes,
)

__all__ = [
    "ClusterClient",
    "ClusterConfig",
    "ClusterListener",
    "ClusterMetrics",
    "ClusterService",
    "ModelStore",
    "ProtocolError",
    "export_model_store",
    "format_cluster_report",
    "parse_address",
    "process_pss_bytes",
    "shard_main",
]
