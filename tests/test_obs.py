"""The metrics core: log-bucketed histograms that merge, and counters."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
from hypothesis import given, strategies as st

from repro.obs import GROWTH, Counters, Histogram

#: Latencies in seconds, exact zeros included.
latencies = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)),
    min_size=1,
    max_size=200,
)


def _histogram(values) -> Histogram:
    out = Histogram()
    for value in values:
        out.observe(value)
    return out


class TestHistogram:
    @given(latencies, st.lists(st.integers(0, 200), max_size=4))
    def test_merged_parts_equal_the_whole(self, values, cuts):
        bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
        merged = Histogram()
        for start, stop in zip(bounds, bounds[1:]):
            merged.merge(_histogram(values[start:stop]))
        whole = _histogram(values)
        assert merged.buckets == whole.buckets
        assert sum(merged.buckets.values()) == len(values)
        assert (merged.low, merged.high) == (whole.low, whole.high)

    @given(latencies)
    def test_quantiles_within_one_bucket_of_numpy(self, values):
        histogram = _histogram(values)
        for percent in (50, 95, 99):
            exact = np.percentile(values, percent, method="inverted_cdf")
            estimate = histogram.quantile(percent / 100.0)
            slack = 1.0 + 1e-12
            assert exact / (GROWTH * slack) <= estimate
            assert estimate <= exact * GROWTH * slack

    @given(latencies)
    def test_wire_form_round_trips_through_json(self, values):
        histogram = _histogram(values)
        back = Histogram.from_dict(json.loads(json.dumps(histogram.to_dict())))
        assert back.buckets == histogram.buckets
        assert (back.low, back.high) == (histogram.low, histogram.high)

    def test_empty_histogram_has_no_quantiles(self):
        empty = Histogram()
        assert empty.quantile(0.5) is None
        assert Histogram.from_dict(empty.to_dict()).quantile(0.99) is None
        assert empty.quantiles_ms("latency", (50,)) == {
            "p50_latency_ms": None
        }

    @given(st.floats(min_value=1e-9, max_value=1e3))
    def test_single_value_reads_back_exactly(self, value):
        histogram = _histogram([value])
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert histogram.quantile(q) == value

    def test_zero_records(self):
        histogram = _histogram([0.0, 0.0, 0.002])
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(1.0) == 0.002

    def test_bucket_count_bounded(self):
        histogram = _histogram(np.logspace(-9, 3, 10**6).tolist())
        assert sum(histogram.buckets.values()) == 10**6
        # log(1e12) / log(GROWTH) = 1275.6 buckets span 1 ns .. 1000 s.
        assert len(histogram.buckets) <= 1277


class TestCounters:
    def test_lanes_start_at_their_initial_values(self):
        counters = Counters("hits", gauge=None)
        counters.add("a", hits=2)
        assert counters.get("hits", "a") == 2
        assert counters.read("b").counts == {"hits": 0, "gauge": None}
        assert set(counters.lanes()) == {"a", "b"}

    def test_concurrent_adds_lose_nothing(self):
        counters = Counters("hits")
        interval = sys.getswitchinterval()

        def worker():
            for _ in range(2000):
                counters.add("a", "b", latency_s=0.001, hits=1)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for lane in counters.lanes().values():
            assert lane.counts["hits"] == 16000
            assert sum(lane.latency.buckets.values()) == 16000
