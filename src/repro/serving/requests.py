"""Request/response types of the serving layer.

A prediction request is a raw sample vector ``x`` plus a knob ``state``;
the engine answers with one value per served metric. Inside the serving
stack answers travel as per-metric column arrays (engine → shard →
gateway → client); :func:`results_from_columns` turns them into
:class:`PredictionResult` rows once, in the public method that returns
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["PredictionRequest", "PredictionResult", "results_from_columns"]


@dataclass(frozen=True)
class PredictionRequest:
    """One inference request: sample ``x`` at knob ``state`` of ``model``.

    ``model`` names a registry entry served by the :class:`ModelService`;
    the engine itself is handed the resolved model object and ignores it.
    """

    x: np.ndarray
    state: int
    model: str = ""


@dataclass
class PredictionResult:
    """Engine answer for one request.

    ``values`` maps metric name to the predicted float. ``version``
    records which model version produced the numbers, so hot-swap tests
    can assert old-or-new atomicity. ``cached`` is always ``False``:
    every row is computed (serving traffic does not repeat rows, so
    there is no result cache). The field stays because callers read
    it, among them the repository benchmark (``perfbench/serveload.py``
    counts it as ``engine.cache_hit_ratio``).
    """

    values: Dict[str, float] = field(default_factory=dict)
    cached: bool = False
    version: int = 0


def results_from_columns(
    metrics: Sequence[str], version: int, columns: Iterable[np.ndarray]
) -> List[PredictionResult]:
    """One :class:`PredictionResult` per row of per-metric ``columns``.

    ``columns`` holds one equal-length 1-D array per entry of
    ``metrics``, in the same order.
    """
    names = list(metrics)
    version = int(version)
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    return [
        PredictionResult(values=dict(zip(names, row)), version=version)
        for row in rows
    ]
