"""Telemetry for the streaming loop, on the same core as ``ServingMetrics``.

One :class:`~repro.obs.Counters` lane the :class:`StreamingService`
updates per batch — batches seen/absorbed/quarantined, rows, drift
scores, refits, registry pushes, swap outcomes — plus a log-bucketed
histogram of absorb latencies for p50/p95, folded into a JSON-friendly
``snapshot()``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs import Counters

__all__ = ["StreamingMetrics"]


class StreamingMetrics:
    """Thread-safe counters for the streaming subsystem."""

    def __init__(self) -> None:
        self._counters = Counters(
            "batches_seen",
            "batches_absorbed",
            "rows_absorbed",
            "batches_quarantined",
            "rows_quarantined",
            "refits",
            "pushes",
            "swaps",
            "swap_failures",
            refit_seconds=0.0,
            last_drift_score=None,
            last_drift_smoothed=None,
        )

    def record_batch_seen(self) -> None:
        """Count one batch pulled off the stream (before any verdict)."""
        self._counters.add(batches_seen=1)

    def record_absorb(self, rows: int, latency_s: float) -> None:
        """Count one absorbed batch and its update latency."""
        self._counters.add(
            latency_s=latency_s, batches_absorbed=1, rows_absorbed=int(rows)
        )

    def record_quarantine(self, rows: int) -> None:
        """Count one poisoned batch dropped without touching the model."""
        self._counters.add(batches_quarantined=1, rows_quarantined=int(rows))

    def record_drift_score(self, score: float, smoothed: float) -> None:
        """Remember the most recent drift verdict inputs."""
        with self._counters.lock:
            self._counters.lane().counts.update(
                last_drift_score=float(score),
                last_drift_smoothed=float(smoothed),
            )

    def record_refit(self, seconds: float) -> None:
        """Count one drift-triggered full EM refit."""
        self._counters.add(refits=1, refit_seconds=float(seconds))

    def record_push(self) -> None:
        """Count one registry push of a fresh model version."""
        self._counters.add(pushes=1)

    def record_swap(self) -> None:
        """Count one successful serving hot-swap."""
        self._counters.add(swaps=1)

    def record_swap_failure(self) -> None:
        """Count one failed hot-swap (previous version kept serving)."""
        self._counters.add(swap_failures=1)

    @property
    def batches_absorbed(self) -> int:
        """Batches folded into the posterior so far."""
        return self._counters.get("batches_absorbed")

    @property
    def batches_quarantined(self) -> int:
        """Batches dropped as poisoned so far."""
        return self._counters.get("batches_quarantined")

    @property
    def refits(self) -> int:
        """Drift-triggered full refits so far."""
        return self._counters.get("refits")

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Fold every counter into one plain, JSON-friendly dict."""
        lane = self._counters.read()
        return dict(
            lane.counts, **lane.latency.quantiles_ms("absorb", (50, 95))
        )
