"""Lightweight serving telemetry: counters, batch sizes, latency quantiles.

``ServingMetrics`` is a thread-safe bag of counters the engine and
service update on the hot path (a lock plus integer adds — cheap enough
for a micro-benchmark loop) and a ``snapshot()`` that folds them into a
plain dict: request/batch counts, batch-size stats and p50/p95 latency.
Latencies go into a bounded ring so a long-lived service cannot grow
without bound.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["ServingMetrics", "aggregate_snapshots"]

#: Snapshot fields that sum across processes.
_ADDITIVE_FIELDS = (
    "requests",
    "batches",
    "batched_rows",
    "hot_swaps",
    "swap_failures",
)


def aggregate_snapshots(
    snapshots: Sequence[Dict[str, Optional[float]]],
) -> Dict[str, Optional[float]]:
    """Fold per-process :meth:`ServingMetrics.snapshot` dicts into one.

    Each shard worker owns a private ``PredictionEngine`` whose
    ``ServingMetrics`` counters live in that process only — a cluster
    report that showed a single shard's snapshot would under-count
    every other shard's traffic. This helper sums the additive counters
    (requests, batches, rows, swaps) across *all* shards and recomputes
    the mean batch size from the sums. Latency percentiles are **not**
    mergeable from snapshots (the raw windows stay in the workers), so
    ``p50_latency_ms`` / ``p95_latency_ms`` come back ``None`` — read
    per-shard percentiles from the individual snapshots instead.
    """
    out: Dict[str, Optional[float]] = {
        field: 0 for field in _ADDITIVE_FIELDS
    }
    max_batch = 0
    for snapshot in snapshots:
        for field in _ADDITIVE_FIELDS:
            out[field] += int(snapshot.get(field) or 0)
        max_batch = max(max_batch, int(snapshot.get("max_batch_size") or 0))
    out["mean_batch_size"] = (
        out["batched_rows"] / out["batches"] if out["batches"] else 0.0
    )
    out["max_batch_size"] = max_batch
    out["p50_latency_ms"] = None
    out["p95_latency_ms"] = None
    out["n_processes"] = len(snapshots)
    return out


class ServingMetrics:
    """Thread-safe counters and histograms for the serving subsystem.

    Parameters
    ----------
    latency_window:
        How many of the most recent per-request latencies to keep for
        the p50/p95 estimates (a sliding window, not a full history).
    """

    def __init__(self, latency_window: int = 10_000) -> None:
        if latency_window < 1:
            raise ValueError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=latency_window)
        self._requests = 0
        self._batches = 0
        self._batched_rows = 0
        self._max_batch = 0
        self._hot_swaps = 0
        self._swap_failures = 0

    # ------------------------------------------------------------------
    def record_request(self, latency_s: float, count: int = 1) -> None:
        """Count ``count`` requests sharing one observed latency."""
        with self._lock:
            self._requests += count
            self._latencies.append(float(latency_s))

    def record_batch(self, size: int) -> None:
        """Count one coalesced matmul over ``size`` rows."""
        with self._lock:
            self._batches += 1
            self._batched_rows += int(size)
            self._max_batch = max(self._max_batch, int(size))

    def record_hot_swap(self) -> None:
        """Count one model-version swap."""
        with self._lock:
            self._hot_swaps += 1

    def record_swap_failure(self) -> None:
        """Count one failed hot swap (previous version kept serving)."""
        with self._lock:
            self._swap_failures += 1

    @property
    def swap_failures(self) -> int:
        """Hot swaps that failed and fell back to the previous version."""
        with self._lock:
            return self._swap_failures

    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        """Total requests served so far."""
        with self._lock:
            return self._requests

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Fold every counter into one plain, JSON-friendly dict."""
        with self._lock:
            latencies = np.array(self._latencies, dtype=float)
            batches = self._batches
            out: Dict[str, Optional[float]] = {
                "requests": self._requests,
                "batches": batches,
                "batched_rows": self._batched_rows,
                "mean_batch_size": (
                    self._batched_rows / batches if batches else 0.0
                ),
                "max_batch_size": self._max_batch,
                "hot_swaps": self._hot_swaps,
                "swap_failures": self._swap_failures,
            }
        if latencies.size:
            out["p50_latency_ms"] = float(
                np.percentile(latencies, 50.0) * 1e3
            )
            out["p95_latency_ms"] = float(
                np.percentile(latencies, 95.0) * 1e3
            )
        else:
            out["p50_latency_ms"] = None
            out["p95_latency_ms"] = None
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingMetrics(requests={self.requests})"
