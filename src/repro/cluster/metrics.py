"""Cluster observability: per-shard and per-version gateway telemetry.

The single-process :class:`~repro.serving.metrics.ServingMetrics` counts
what one engine did; a cluster needs two more axes. ``ClusterMetrics``
keeps, per **shard**, request/row counts, latency windows, shed and
deadline-expiry counts, crash-failed requests and respawns — and, per
**version key** (``name@vN``), the same traffic counters, which is what
makes a canary split observable: the stable and canary versions of one
name report separate latency percentiles and error counts, so a bad
canary shows up in its own numbers before cutover.

``format_cluster_report`` renders the gateway snapshot plus the
per-shard engine snapshots (fetched over the wire) into one text
report; the engine counters are **summed across every shard** via
:func:`repro.serving.metrics.aggregate_snapshots` — a report that
showed only shard 0's private counters would under-count the rest of
the fleet.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.metrics import aggregate_snapshots

__all__ = ["ClusterMetrics", "format_cluster_report"]


def _percentiles(latencies: Deque[float]) -> Dict[str, Optional[float]]:
    """p50/p95/p99 of a latency window, in milliseconds."""
    if not latencies:
        return {
            "p50_latency_ms": None,
            "p95_latency_ms": None,
            "p99_latency_ms": None,
        }
    values = np.fromiter(latencies, dtype=float)
    p50, p95, p99 = np.percentile(values, (50.0, 95.0, 99.0))
    return {
        "p50_latency_ms": float(p50) * 1e3,
        "p95_latency_ms": float(p95) * 1e3,
        "p99_latency_ms": float(p99) * 1e3,
    }


@dataclass
class _LaneStats:
    """Counters of one observation lane (a shard or a version key)."""

    requests: int = 0
    rows: int = 0
    shed: int = 0
    deadline_expired: int = 0
    crash_failures: int = 0
    respawns: int = 0
    failovers: int = 0
    latencies: Deque[float] = field(default_factory=lambda: deque(maxlen=10_000))

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Plain-dict digest including latency percentiles."""
        out: Dict[str, Optional[float]] = {
            "requests": self.requests,
            "rows": self.rows,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "crash_failures": self.crash_failures,
            "respawns": self.respawns,
            "failovers": self.failovers,
        }
        out.update(_percentiles(self.latencies))
        return out


class ClusterMetrics:
    """Thread-safe per-shard / per-version counters for the gateway.

    Updates come from the gateway's event loop; reads may come from any
    thread (CLI, benchmark, tests), hence the lock.

    Parameters
    ----------
    latency_window:
        Sliding-window size of each lane's latency deque.
    """

    def __init__(self, latency_window: int = 10_000) -> None:
        if latency_window < 1:
            raise ValueError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._window = latency_window
        self._lock = threading.Lock()
        self._shards: Dict[int, _LaneStats] = {}
        self._versions: Dict[str, _LaneStats] = {}

    def _shard(self, index: int) -> _LaneStats:
        return self._shards.setdefault(
            int(index),
            _LaneStats(latencies=deque(maxlen=self._window)),
        )

    def _version(self, key: str) -> _LaneStats:
        return self._versions.setdefault(
            str(key),
            _LaneStats(latencies=deque(maxlen=self._window)),
        )

    # ------------------------------------------------------------------
    def record_batch(
        self, shard: int, key: str, n: int, latency_s: float
    ) -> None:
        """Count ``n`` answered requests sharing one observed latency."""
        with self._lock:
            for lane in (self._shard(shard), self._version(key)):
                lane.requests += int(n)
                lane.rows += int(n)
                lane.latencies.append(float(latency_s))

    def record_shed(self, shard: int, key: str, n: int) -> None:
        """Count ``n`` requests turned away by admission control."""
        with self._lock:
            self._shard(shard).shed += int(n)
            self._version(key).shed += int(n)

    def record_deadline_expired(
        self, shard: int, key: str, n: int
    ) -> None:
        """Count ``n`` requests whose deadline passed unanswered."""
        with self._lock:
            self._shard(shard).deadline_expired += int(n)
            self._version(key).deadline_expired += int(n)

    def record_crash_failures(
        self, shard: int, n: int, key: Optional[str] = None
    ) -> None:
        """Count ``n`` in-flight requests failed by a shard death."""
        with self._lock:
            self._shard(shard).crash_failures += int(n)
            if key is not None:
                self._version(key).crash_failures += int(n)

    def record_respawn(self, shard: int) -> None:
        """Count one dead-shard respawn."""
        with self._lock:
            self._shard(shard).respawns += 1

    def record_failover(
        self, from_shard: int, to_shard: int, key: str, n: int
    ) -> None:
        """Count ``n`` requests failed over from one replica to another.

        Charged to the *abandoned* shard's lane (the replica that
        crashed, hung, or was already down) and to the version key —
        the receiving shard's traffic shows up through the ordinary
        :meth:`record_batch` call when the retry succeeds.
        """
        with self._lock:
            self._shard(from_shard).failovers += int(n)
            self._shard(to_shard)  # materialize the receiving lane
            self._version(key).failovers += int(n)

    # ------------------------------------------------------------------
    @property
    def total_shed(self) -> int:
        """Requests turned away by admission control, all shards."""
        with self._lock:
            return sum(lane.shed for lane in self._shards.values())

    @property
    def total_deadline_expired(self) -> int:
        """Requests abandoned on their deadline, all shards."""
        with self._lock:
            return sum(
                lane.deadline_expired for lane in self._shards.values()
            )

    @property
    def total_respawns(self) -> int:
        """Dead-shard respawns, all shards."""
        with self._lock:
            return sum(lane.respawns for lane in self._shards.values())

    @property
    def total_failovers(self) -> int:
        """Requests failed over to a replica, all shards."""
        with self._lock:
            return sum(lane.failovers for lane in self._shards.values())

    def snapshot(self) -> Dict[str, Dict]:
        """Nested plain-dict digest: ``{"shards": …, "versions": …}``."""
        with self._lock:
            return {
                "shards": {
                    index: lane.snapshot()
                    for index, lane in sorted(self._shards.items())
                },
                "versions": {
                    key: lane.snapshot()
                    for key, lane in sorted(self._versions.items())
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ClusterMetrics(shards={sorted(self._shards)}, "
                f"versions={sorted(self._versions)})"
            )


def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def format_cluster_report(
    snapshot: Dict[str, Dict],
    engine_snapshots: Optional[Sequence[Dict]] = None,
    routes: Optional[Dict[str, Dict]] = None,
) -> str:
    """Render a gateway snapshot (and shard engine stats) as text.

    Parameters
    ----------
    snapshot:
        A :meth:`ClusterMetrics.snapshot` dict.
    engine_snapshots:
        Optional per-shard ``ServingMetrics.snapshot()`` dicts fetched
        from the workers; rendered per shard *and* summed into one
        aggregate line (the whole fleet's traffic, not shard 0's).
    routes:
        Optional routing-table digest (``ClusterService.describe_routes``)
        so the report shows which versions serve which names and any
        live canary weights.
    """
    lines: List[str] = ["CLUSTER REPORT", ""]
    lines.append(
        f"{'SHARD':<6} {'REQS':>8} {'SHED':>6} {'DEADLN':>7} "
        f"{'CRASH':>6} {'RESPAWN':>8} {'FAILOVR':>8} {'p50ms':>9} "
        f"{'p95ms':>9} {'p99ms':>9}"
    )
    for index, lane in snapshot.get("shards", {}).items():
        lines.append(
            f"{index:<6} {lane['requests']:>8} {lane['shed']:>6} "
            f"{lane['deadline_expired']:>7} {lane['crash_failures']:>6} "
            f"{lane['respawns']:>8} {lane.get('failovers', 0):>8} "
            f"{_fmt_ms(lane['p50_latency_ms']):>9} "
            f"{_fmt_ms(lane['p95_latency_ms']):>9} "
            f"{_fmt_ms(lane['p99_latency_ms']):>9}"
        )
    versions = snapshot.get("versions", {})
    if versions:
        lines.append("")
        lines.append(
            f"{'VERSION':<24} {'REQS':>8} {'SHED':>6} {'DEADLN':>7} "
            f"{'p50ms':>9} {'p95ms':>9} {'p99ms':>9}"
        )
        for key, lane in versions.items():
            lines.append(
                f"{key:<24} {lane['requests']:>8} {lane['shed']:>6} "
                f"{lane['deadline_expired']:>7} "
                f"{_fmt_ms(lane['p50_latency_ms']):>9} "
                f"{_fmt_ms(lane['p95_latency_ms']):>9} "
                f"{_fmt_ms(lane['p99_latency_ms']):>9}"
            )
    if routes:
        lines.append("")
        lines.append("ROUTES")
        for name, route in sorted(routes.items()):
            canary = route.get("canary")
            replicas = route.get("replicas")
            placement = (
                f" shards={list(replicas)}"
                if replicas and len(replicas) > 1
                else ""
            )
            if canary:
                lines.append(
                    f"  {name}: stable={route['stable']} "
                    f"canary={canary} weight={route['weight']:.2f}"
                    f"{placement}"
                )
            else:
                lines.append(
                    f"  {name}: stable={route['stable']}{placement}"
                )
    if engine_snapshots:
        lines.append("")
        lines.append(f"ENGINES ({len(engine_snapshots)} shards)")
        for index, engine in enumerate(engine_snapshots):
            lines.append(
                f"  shard {index}: requests={engine.get('requests', 0)} "
                f"batches={engine.get('batches', 0)} "
                f"mean_batch={engine.get('mean_batch_size', 0.0):.1f}"
            )
        total = aggregate_snapshots(engine_snapshots)
        lines.append(
            f"  aggregate: requests={total['requests']} "
            f"batches={total['batches']} "
            f"rows={total['batched_rows']}"
        )
    return "\n".join(lines)
