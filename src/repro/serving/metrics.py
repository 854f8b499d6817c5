"""Serving telemetry: request and batch counters, latency quantiles.

``ServingMetrics`` counts what one :class:`PredictionEngine` did on the
:mod:`repro.obs` core: one lock, integer adds on the hot path, and a
log-bucketed latency histogram whose memory is bounded by its bucket
layout. ``snapshot()`` folds them into a plain, JSON-friendly dict that
carries the histogram itself, so :func:`aggregate_snapshots` can merge
the snapshots of many shard processes into true fleet quantiles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.obs import Counters, Histogram

__all__ = ["ServingMetrics", "aggregate_snapshots"]

#: Snapshot fields that sum across processes.
_ADDITIVE_FIELDS = (
    "requests",
    "batches",
    "batched_rows",
    "hot_swaps",
    "swap_failures",
)
_QUANTILES = (50, 95, 99)


def _digest(out: Dict, latency: Histogram) -> Dict:
    """Add the mean batch size and the latency quantiles to ``out``."""
    batches = out["batches"]
    out["mean_batch_size"] = out["batched_rows"] / batches if batches else 0.0
    out.update(latency.quantiles_ms("latency", _QUANTILES))
    return out


def aggregate_snapshots(
    snapshots: Sequence[Dict[str, Optional[float]]],
) -> Dict[str, Optional[float]]:
    """Fold per-process :meth:`ServingMetrics.snapshot` dicts into one.

    Each shard worker owns a private engine whose counters live in that
    process only. This sums the additive counters, recomputes the mean
    batch size from the sums, and merges the latency histograms, so
    ``p50``/``p95``/``p99_latency_ms`` are the fleet's quantiles (within
    one 2.2 % bucket), not one shard's.
    """
    out: Dict[str, Optional[float]] = dict.fromkeys(_ADDITIVE_FIELDS, 0)
    latency = Histogram()
    for snapshot in snapshots:
        for field in _ADDITIVE_FIELDS:
            out[field] += int(snapshot.get(field) or 0)
        if snapshot.get("latency_histogram"):
            latency.merge(Histogram.from_dict(snapshot["latency_histogram"]))
    out["max_batch_size"] = max(
        (int(s.get("max_batch_size") or 0) for s in snapshots), default=0
    )
    out["n_processes"] = len(snapshots)
    return _digest(out, latency)


class ServingMetrics:
    """Thread-safe counters and request latencies of one serving engine."""

    def __init__(self) -> None:
        self._counters = Counters(*_ADDITIVE_FIELDS, "max_batch_size")

    def record_request(self, latency_s: float, count: int = 1) -> None:
        """Count ``count`` requests sharing one observed latency."""
        self._counters.add(latency_s=latency_s, requests=count)

    def record_batch(self, size: int) -> None:
        """Count one coalesced matmul over ``size`` rows."""
        size = int(size)
        with self._counters.lock:
            counts = self._counters.lane().counts
            counts["batches"] += 1
            counts["batched_rows"] += size
            if size > counts["max_batch_size"]:
                counts["max_batch_size"] = size

    def record_hot_swap(self) -> None:
        """Count one model-version swap."""
        self._counters.add(hot_swaps=1)

    def record_swap_failure(self) -> None:
        """Count one failed hot swap (previous version kept serving)."""
        self._counters.add(swap_failures=1)

    @property
    def swap_failures(self) -> int:
        """Hot swaps that failed and fell back to the previous version."""
        return self._counters.get("swap_failures")

    @property
    def requests(self) -> int:
        """Total requests served so far."""
        return self._counters.get("requests")

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Every counter, the latency quantiles and the histogram."""
        lane = self._counters.read()
        out = _digest(lane.counts, lane.latency)
        out["latency_histogram"] = lane.latency.to_dict()
        return out
