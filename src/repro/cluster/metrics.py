"""Cluster observability: per-shard and per-version gateway telemetry.

``ClusterMetrics`` keeps a :mod:`repro.obs` lane per **shard** and per
**version key** (``name@vN``): requests, shed and deadline-expiry
counts, crash failures, respawns, failovers and a latency histogram.
The stable and canary versions of one name report separate quantiles
and error counts, so a bad canary shows up in its own numbers before
cutover.

``format_cluster_report`` renders the gateway snapshot plus the
per-shard engine snapshots (fetched over the wire) into one text
report; its aggregate line sums every shard's engine counters and
merges their latency histograms into the fleet's p50/p95/p99 (see
:func:`repro.serving.metrics.aggregate_snapshots`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs import Counters
from repro.serving.metrics import aggregate_snapshots

__all__ = ["ClusterMetrics", "format_cluster_report"]


class ClusterMetrics:
    """Thread-safe per-shard / per-version counters for the gateway.

    Updates come from the gateway's event loop; reads may come from any
    thread (CLI, benchmark, tests). Every counter but ``respawns``
    counts rows.
    """

    def __init__(self) -> None:
        self._counters = Counters(
            "requests",
            "shed",
            "deadline_expired",
            "crash_failures",
            "respawns",
            "failovers",
        )

    def record_batch(
        self, shard: int, key: str, n: int, latency_s: float
    ) -> None:
        """Count ``n`` answered rows sharing one observed latency."""
        self._counters.add(
            ("shard", shard), ("version", key),
            latency_s=latency_s, requests=n,
        )

    def record_shed(self, shard: int, key: str, n: int) -> None:
        """Count ``n`` rows turned away by admission control."""
        self._counters.add(("shard", shard), ("version", key), shed=n)

    def record_deadline_expired(
        self, shard: int, key: str, n: int
    ) -> None:
        """Count ``n`` rows whose deadline passed unanswered."""
        self._counters.add(
            ("shard", shard), ("version", key), deadline_expired=n
        )

    def record_crash_failures(
        self, shard: int, n: int, key: Optional[str] = None
    ) -> None:
        """Count ``n`` in-flight rows failed by a shard death."""
        versions = [] if key is None else [("version", key)]
        self._counters.add(("shard", shard), *versions, crash_failures=n)

    def record_respawn(self, shard: int) -> None:
        """Count one dead-shard respawn."""
        self._counters.add(("shard", shard), respawns=1)

    def record_failover(
        self, from_shard: int, to_shard: int, key: str, n: int
    ) -> None:
        """Count ``n`` rows failed over from one replica to another.

        Charged to the *abandoned* shard's lane (the replica that
        crashed, hung, or was already down) and to the version key —
        the receiving shard's traffic shows up through the ordinary
        :meth:`record_batch` call when the retry succeeds.
        """
        self._counters.add(("shard", to_shard))  # materialize its lane
        self._counters.add(
            ("shard", from_shard), ("version", key), failovers=n
        )

    def _total(self, name: str) -> int:
        return sum(
            lane.counts[name]
            for (axis, _), lane in self._counters.lanes().items()
            if axis == "shard"
        )

    @property
    def total_shed(self) -> int:
        """Rows turned away by admission control, all shards."""
        return self._total("shed")

    @property
    def total_deadline_expired(self) -> int:
        """Rows abandoned on their deadline, all shards."""
        return self._total("deadline_expired")

    @property
    def total_respawns(self) -> int:
        """Dead-shard respawns, all shards."""
        return self._total("respawns")

    @property
    def total_failovers(self) -> int:
        """Rows failed over to a replica, all shards."""
        return self._total("failovers")

    def snapshot(self) -> Dict[str, Dict]:
        """Nested plain-dict digest: ``{"shards": …, "versions": …}``."""
        out: Dict[str, Dict] = {"shards": {}, "versions": {}}
        for (axis, name), lane in sorted(self._counters.lanes().items()):
            out[axis + "s"][name] = dict(
                lane.counts,
                **lane.latency.quantiles_ms("latency", (50, 95, 99)),
            )
        return out


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
            f"rows={total['batched_rows']} "
            f"p50ms={_fmt_ms(total['p50_latency_ms'])} "
            f"p95ms={_fmt_ms(total['p95_latency_ms'])} "
            f"p99ms={_fmt_ms(total['p99_latency_ms'])}"
        )
    return "\n".join(lines)
