"""One metrics core: thread-safe counters and mergeable latency histograms.

The serving engine, the streaming loop and the cluster gateway count
their work through :class:`Counters`: lanes of named counters, each
with one latency :class:`Histogram`, behind one lock. Bucket ``i`` of a
histogram holds ``[GROWTH**i, GROWTH**(i + 1))``: 2.2 % wide at any
magnitude, so memory grows with the range of values seen, not their
number (1 ns to 1000 s spans under 1 300 buckets). Histograms merge by
adding buckets, so a fleet's histograms sum to true fleet quantiles.
Standard library only.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Hashable, Optional, Sequence

__all__ = ["GROWTH", "Counters", "Histogram", "Lane"]

#: Ratio between the edges of one histogram bucket (2**(1/32), 2.2 %).
GROWTH = 2.0 ** (1.0 / 32.0)
_SCALE = 1.0 / math.log(GROWTH)
#: Bucket of a zero value, below the bucket of every positive float
#: (the smallest, 5e-324, lands in bucket -34 360).
_ZERO = -(1 << 20)


class Histogram:
    """Log-bucketed counts of non-negative values; its owner locks it.

    A quantile is the inverse of the empirical CDF (as
    ``numpy.percentile(..., method="inverted_cdf")``), read as its
    bucket's geometric midpoint and clamped to the observed minimum and
    maximum. So it is within one bucket of the exact value, a single
    observation reads back exactly, and a quantile of merged histograms
    lies between the parts' quantiles, within one bucket.
    """

    __slots__ = ("buckets", "low", "high")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.low = math.inf
        self.high = -math.inf

    def observe(self, value: float) -> None:
        """Count one value (zero included)."""
        index = math.floor(math.log(value) * _SCALE) if value > 0.0 else _ZERO
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations to this histogram."""
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.low = min(self.low, other.low)
        self.high = max(self.high, other.high)

    def copy(self) -> "Histogram":
        """An independent copy."""
        out = Histogram()
        out.merge(self)
        return out

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (``0 <= q <= 1``); ``None`` when empty."""
        ordered = sorted(self.buckets.items())
        rank = max(math.ceil(q * sum(n for _, n in ordered)), 1)
        seen = 0
        for index, n in ordered:
            seen += n
            if seen >= rank:
                mid = 0.0 if index == _ZERO else GROWTH ** (index + 0.5)
                return min(max(mid, self.low), self.high)
        return None

    def quantiles_ms(
        self, name: str, percents: Sequence[int]
    ) -> Dict[str, Optional[float]]:
        """``{"p50_<name>_ms": …}`` for each percent, from seconds."""
        out = {}
        for percent in percents:
            value = self.quantile(percent / 100.0)
            out[f"p{percent}_{name}_ms"] = (
                None if value is None else value * 1e3
            )
        return out

    def to_dict(self) -> Dict:
        """JSON-friendly form (bucket pairs, min, max)."""
        return {
            "buckets": sorted([i, n] for i, n in self.buckets.items()),
            "min": self.low if self.buckets else None,
            "max": self.high if self.buckets else None,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        out = cls()
        out.buckets = {int(i): int(n) for i, n in data["buckets"]}
        if out.buckets:
            out.low, out.high = float(data["min"]), float(data["max"])
        return out


class Lane:
    """Named counters plus one latency histogram."""

    __slots__ = ("counts", "latency")

    def __init__(self, counts: Dict[str, Optional[float]]) -> None:
        self.counts = dict(counts)
        self.latency = Histogram()

    def copy(self) -> "Lane":
        """An independent copy."""
        out = Lane(self.counts)
        out.latency = self.latency.copy()
        return out


class Counters:
    """Lanes of the same named counters behind one lock.

    A lane is keyed by any hashable and appears on first use. Counters
    start at 0, or at the value given by keyword (``None`` for a gauge
    not yet read). A record call that updates several counters or lanes
    takes :attr:`lock` once and writes :meth:`lane` directly; :meth:`add`
    covers the rest.
    """

    def __init__(self, *names: str, **initial: Optional[float]) -> None:
        self.lock = threading.Lock()
        self._initial = dict(dict.fromkeys(names, 0), **initial)
        self._lanes: Dict[Hashable, Lane] = {}

    def lane(self, key: Hashable = None) -> Lane:
        """Lane ``key``, created on first use; call with :attr:`lock` held."""
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = Lane(self._initial)
        return lane

    def add(
        self,
        *keys: Hashable,
        latency_s: Optional[float] = None,
        **increments: float,
    ) -> None:
        """Add each increment to its counter in lanes ``keys`` (default:
        the lane ``None``), and ``latency_s``, if given, to their
        histograms."""
        with self.lock:
            for key in keys or (None,):
                lane = self.lane(key)
                if latency_s is not None:
                    lane.latency.observe(latency_s)
                for name, n in increments.items():
                    lane.counts[name] += n

    def get(self, name: str, key: Hashable = None) -> Optional[float]:
        """Counter ``name`` of lane ``key``."""
        with self.lock:
            return self.lane(key).counts[name]

    def read(self, key: Hashable = None) -> Lane:
        """A copy of lane ``key``."""
        with self.lock:
            return self.lane(key).copy()

    def lanes(self) -> Dict[Hashable, Lane]:
        """A consistent copy of every lane."""
        with self.lock:
            return {key: lane.copy() for key, lane in self._lanes.items()}
