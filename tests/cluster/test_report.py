"""ClusterMetrics counters and the text report renderer."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterMetrics, format_cluster_report
from repro.serving.metrics import aggregate_snapshots


def _engine_snapshot(requests, batches, rows):
    return {
        "requests": requests,
        "batches": batches,
        "batched_rows": rows,
        "mean_batch_size": rows / batches if batches else 0.0,
        "max_batch_size": rows,
        "hot_swaps": 0,
        "swap_failures": 0,
    }


class TestClusterMetrics:
    def test_record_batch_counts_both_lanes(self):
        metrics = ClusterMetrics()
        metrics.record_batch(0, "m@v1", 4, 0.010)
        metrics.record_batch(1, "m@v2", 2, 0.020)
        snapshot = metrics.snapshot()
        assert snapshot["shards"][0]["requests"] == 4
        assert snapshot["shards"][1]["requests"] == 2
        assert snapshot["versions"]["m@v1"]["requests"] == 4
        assert snapshot["versions"]["m@v2"]["requests"] == 2
        assert snapshot["shards"][0]["p50_latency_ms"] == pytest.approx(10.0)

    def test_error_counters_and_totals(self):
        metrics = ClusterMetrics()
        metrics.record_shed(0, "m@v1", 3)
        metrics.record_deadline_expired(1, "m@v1", 2)
        metrics.record_crash_failures(1, 5, key="m@v1")
        metrics.record_crash_failures(0, 1)  # no version attribution
        metrics.record_respawn(1)
        assert metrics.total_shed == 3
        assert metrics.total_deadline_expired == 2
        assert metrics.total_respawns == 1
        snapshot = metrics.snapshot()
        assert snapshot["shards"][1]["crash_failures"] == 5
        assert snapshot["versions"]["m@v1"]["crash_failures"] == 5
        assert snapshot["shards"][0]["crash_failures"] == 1

    def test_empty_lane_percentiles_are_none(self):
        metrics = ClusterMetrics()
        metrics.record_shed(0, "m@v1", 1)
        snapshot = metrics.snapshot()
        assert snapshot["shards"][0]["p50_latency_ms"] is None


class TestFormatClusterReport:
    def test_shard_and_version_tables(self):
        metrics = ClusterMetrics()
        metrics.record_batch(0, "m@v1", 4, 0.010)
        metrics.record_shed(1, "m@v2", 2)
        report = format_cluster_report(metrics.snapshot())
        assert "CLUSTER REPORT" in report
        assert "SHARD" in report
        assert "VERSION" in report
        assert "m@v1" in report
        assert "m@v2" in report

    def test_routes_section_shows_canary_weight(self):
        report = format_cluster_report(
            ClusterMetrics().snapshot(),
            routes={
                "m": {
                    "stable": "m@v1",
                    "canary": "m@v2",
                    "weight": 0.25,
                    "shard": 0,
                },
                "plain": {
                    "stable": "plain@v1",
                    "canary": None,
                    "weight": 0.0,
                    "shard": 1,
                },
            },
        )
        assert "m: stable=m@v1 canary=m@v2 weight=0.25" in report
        assert "plain: stable=plain@v1" in report

    def test_engines_section_sums_every_shard(self):
        """Regression: the aggregate line is the fleet total, not
        shard 0's private counters."""
        engines = [
            _engine_snapshot(10, 2, 10),
            _engine_snapshot(30, 5, 30),
        ]
        report = format_cluster_report(
            ClusterMetrics().snapshot(), engine_snapshots=engines
        )
        total = aggregate_snapshots(engines)
        assert total["requests"] == 40
        assert total["batches"] == 7
        assert "ENGINES (2 shards)" in report
        assert "shard 0: requests=10" in report
        assert "shard 1: requests=30" in report
        assert "aggregate: requests=40 batches=7 rows=40" in report

    def test_aggregate_mean_batch_recomputed_from_sums(self):
        engines = [
            _engine_snapshot(10, 1, 10),   # mean batch 10
            _engine_snapshot(90, 90, 90),  # mean batch 1
        ]
        total = aggregate_snapshots(engines)
        # 100 rows in 91 batches — not the 5.5 a naive mean would give.
        assert total["mean_batch_size"] == pytest.approx(100 / 91)
        assert total["p50_latency_ms"] is None
        assert total["n_processes"] == 2
