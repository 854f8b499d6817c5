"""Tests for the serving telemetry counters."""

import threading

import pytest

from repro.serving import ServingMetrics


class TestCounters:
    def test_request_accounting(self):
        metrics = ServingMetrics()
        metrics.record_request(0.001)
        metrics.record_request(0.002, count=3)
        assert metrics.requests == 4
        assert metrics.snapshot()["requests"] == 4

    def test_batch_accounting(self):
        metrics = ServingMetrics()
        metrics.record_batch(10)
        metrics.record_batch(30)
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["batched_rows"] == 40
        assert snapshot["mean_batch_size"] == 20
        assert snapshot["max_batch_size"] == 30

    def test_hot_swaps(self):
        metrics = ServingMetrics()
        metrics.record_hot_swap()
        metrics.record_hot_swap()
        assert metrics.snapshot()["hot_swaps"] == 2

    def test_empty_snapshot(self):
        snapshot = ServingMetrics().snapshot()
        assert snapshot["requests"] == 0
        assert snapshot["p50_latency_ms"] is None
        assert snapshot["p95_latency_ms"] is None

    def test_latency_percentiles(self):
        metrics = ServingMetrics()
        for millis in range(1, 101):
            metrics.record_request(millis / 1000.0)
        snapshot = metrics.snapshot()
        assert snapshot["p50_latency_ms"] == pytest.approx(50.5, abs=1.0)
        assert snapshot["p95_latency_ms"] == pytest.approx(95.0, abs=1.0)

    def test_thread_safety_smoke(self):
        metrics = ServingMetrics()

        def worker():
            for _ in range(1000):
                metrics.record_request(0.001)
                metrics.record_batch(2)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 4000
        assert snapshot["batches"] == 4000
