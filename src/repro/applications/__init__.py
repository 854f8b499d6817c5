"""Downstream applications of fitted performance models.

The paper motivates performance modeling by its applications: yield
estimation, corner extraction and design/tuning optimization. These modules
implement all three on top of any fitted :class:`MultiStateRegressor`.
Per-state yield reports live in :mod:`repro.yields`, and
uncertainty-driven sampling in :mod:`repro.active`.
"""

from repro.applications.corner_extraction import (
    CornerResult,
    extract_worst_case_corner,
)
from repro.applications.sensitivity import (
    SensitivityEntry,
    format_ranking,
    rank_sensitivities,
)
from repro.applications.tuning import TuningPolicy, TuningSummary
from repro.applications.yield_estimation import (
    Specification,
    analytic_spec_yield,
    monte_carlo_yield,
)

__all__ = [
    "CornerResult",
    "extract_worst_case_corner",
    "TuningPolicy",
    "TuningSummary",
    "SensitivityEntry",
    "format_ranking",
    "rank_sensitivities",
    "Specification",
    "analytic_spec_yield",
    "monte_carlo_yield",
]
