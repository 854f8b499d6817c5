"""The yield report: raw + correlation-shared estimates per state.

One entry point — :func:`compute_yield_report` — shared by the CLI
(``python -m repro yield-report``), the cluster's yield endpoint, and
the benchmark. It samples every state at an equal budget, shrinks the
per-state yields (and per-metric means) toward their correlation-
weighted fleet estimates when the models carry a learned ``R``, and
packages point estimates with per-state confidence intervals. The
report round-trips through plain JSON (:func:`report_to_dict` /
:func:`report_from_dict`) so a shard can answer it inside a frame
header without any binary payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.applications.yield_estimation import Specification
from repro.basis.dictionary import BasisDictionary
from repro.core.base import MultiStateRegressor
from repro.utils.parallel import one_blas_thread
from repro.yields.moments import (
    RawStateEstimates,
    model_correlation,
    sample_state_estimates,
)
from repro.yields.shrinkage import (
    ShrinkageResult,
    correlation_shrink,
    independent_intervals,
)

__all__ = [
    "MetricMoments",
    "YieldReport",
    "compute_yield_report",
    "format_yield_report",
    "report_from_dict",
    "report_to_dict",
]


@dataclass(frozen=True)
class MetricMoments:
    """Per-state mean/σ of one metric, with the mean optionally shrunk."""

    metric: str
    mean_raw: np.ndarray
    mean_shrunk: np.ndarray
    mean_ci_lower: np.ndarray
    mean_ci_upper: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class YieldReport:
    """Fleet yield/moment report at one sample budget.

    ``correlation_shared`` records whether a learned K × K correlation
    was available — when ``False`` the "shrunk" columns equal the raw
    ones and the CIs are plain normal-theory intervals.
    """

    specs: List[Specification]
    n_states: int
    n_samples: int
    seed: int
    confidence: float
    correlation_shared: bool
    yield_raw: np.ndarray
    yield_shrunk: np.ndarray
    yield_ci_lower: np.ndarray
    yield_ci_upper: np.ndarray
    fleet_yield: float
    tau2: float
    moments: Dict[str, MetricMoments] = field(default_factory=dict)

    @property
    def ci_width(self) -> np.ndarray:
        """Per-state CI width — the quantity yield-aware acquisition shrinks."""
        return self.yield_ci_upper - self.yield_ci_lower


def _shrink_or_fallback(
    raw: np.ndarray,
    variances: np.ndarray,
    correlation: Optional[np.ndarray],
    confidence: float,
    clip,
) -> ShrinkageResult:
    if correlation is None:
        return independent_intervals(
            raw, variances, confidence=confidence, clip=clip
        )
    return correlation_shrink(
        raw, variances, correlation, confidence=confidence, clip=clip
    )


@one_blas_thread()
def compute_yield_report(
    models: Mapping[str, MultiStateRegressor],
    basis: BasisDictionary,
    specs: Sequence[Specification],
    n_samples: int = 400,
    seed: int = 0,
    confidence: float = 0.95,
    estimates: Optional[RawStateEstimates] = None,
) -> YieldReport:
    """Estimate per-state yield (and metric moments) with shrinkage.

    ``estimates`` lets a caller that already sampled (the benchmark,
    which reuses one sampling pass for both estimators) skip the
    Monte-Carlo step; otherwise every state is sampled at the given
    budget from its deterministic stream. Runs on one BLAS thread, like
    the fit (:func:`repro.utils.parallel.one_blas_thread`).
    """
    specs = list(specs)
    if estimates is None:
        estimates = sample_state_estimates(
            models, basis, specs, n_samples=n_samples, seed=seed
        )
    correlation = model_correlation(models)
    yield_result = _shrink_or_fallback(
        estimates.yields,
        estimates.yield_variances,
        correlation,
        confidence,
        clip=(0.0, 1.0),
    )
    moments: Dict[str, MetricMoments] = {}
    for metric in sorted(estimates.means):
        mean_result = _shrink_or_fallback(
            estimates.means[metric],
            np.maximum(estimates.mean_variances[metric], 1e-30),
            correlation,
            confidence,
            clip=None,
        )
        moments[metric] = MetricMoments(
            metric=metric,
            mean_raw=mean_result.raw,
            mean_shrunk=mean_result.shrunk,
            mean_ci_lower=mean_result.ci_lower,
            mean_ci_upper=mean_result.ci_upper,
            std=estimates.stds[metric],
        )
    return YieldReport(
        specs=specs,
        n_states=int(estimates.yields.shape[0]),
        n_samples=int(estimates.n_samples),
        seed=int(estimates.seed),
        confidence=float(confidence),
        correlation_shared=correlation is not None,
        yield_raw=yield_result.raw,
        yield_shrunk=yield_result.shrunk,
        yield_ci_lower=yield_result.ci_lower,
        yield_ci_upper=yield_result.ci_upper,
        fleet_yield=float(yield_result.fleet_mean),
        tau2=float(yield_result.tau2),
        moments=moments,
    )


# ----------------------------------------------------------------------
def report_to_dict(report: YieldReport) -> dict:
    """JSON-safe dict (plain floats/lists only) for frames and files."""
    return {
        "specs": [
            {"metric": s.metric, "bound": s.bound, "kind": s.kind}
            for s in report.specs
        ],
        "n_states": report.n_states,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "confidence": report.confidence,
        "correlation_shared": report.correlation_shared,
        "yield_raw": [float(v) for v in report.yield_raw],
        "yield_shrunk": [float(v) for v in report.yield_shrunk],
        "yield_ci_lower": [float(v) for v in report.yield_ci_lower],
        "yield_ci_upper": [float(v) for v in report.yield_ci_upper],
        "fleet_yield": report.fleet_yield,
        "tau2": report.tau2,
        "moments": {
            metric: {
                "mean_raw": [float(v) for v in mm.mean_raw],
                "mean_shrunk": [float(v) for v in mm.mean_shrunk],
                "mean_ci_lower": [float(v) for v in mm.mean_ci_lower],
                "mean_ci_upper": [float(v) for v in mm.mean_ci_upper],
                "std": [float(v) for v in mm.std],
            }
            for metric, mm in report.moments.items()
        },
    }


def report_from_dict(payload: Mapping) -> YieldReport:
    """Rebuild a :class:`YieldReport` from :func:`report_to_dict` output."""
    moments = {
        metric: MetricMoments(
            metric=metric,
            mean_raw=np.asarray(mm["mean_raw"], dtype=float),
            mean_shrunk=np.asarray(mm["mean_shrunk"], dtype=float),
            mean_ci_lower=np.asarray(mm["mean_ci_lower"], dtype=float),
            mean_ci_upper=np.asarray(mm["mean_ci_upper"], dtype=float),
            std=np.asarray(mm["std"], dtype=float),
        )
        for metric, mm in payload.get("moments", {}).items()
    }
    return YieldReport(
        specs=[
            Specification(
                metric=s["metric"], bound=float(s["bound"]), kind=s["kind"]
            )
            for s in payload["specs"]
        ],
        n_states=int(payload["n_states"]),
        n_samples=int(payload["n_samples"]),
        seed=int(payload["seed"]),
        confidence=float(payload["confidence"]),
        correlation_shared=bool(payload["correlation_shared"]),
        yield_raw=np.asarray(payload["yield_raw"], dtype=float),
        yield_shrunk=np.asarray(payload["yield_shrunk"], dtype=float),
        yield_ci_lower=np.asarray(payload["yield_ci_lower"], dtype=float),
        yield_ci_upper=np.asarray(payload["yield_ci_upper"], dtype=float),
        fleet_yield=float(payload["fleet_yield"]),
        tau2=float(payload["tau2"]),
        moments=moments,
    )


def format_yield_report(report: YieldReport, max_rows: int = 12) -> str:
    """Human-readable table: worst states first, fleet summary on top."""
    lines = []
    spec_text = ", ".join(
        f"{s.metric}{'<=' if s.kind == 'max' else '>='}{s.bound:g}"
        for s in report.specs
    )
    sharing = (
        "correlation-shared (K×K shrinkage)"
        if report.correlation_shared
        else "independent (no learned correlation)"
    )
    lines.append(
        f"yield report: {report.n_states} states × "
        f"{report.n_samples} samples/state, specs [{spec_text}]"
    )
    lines.append(
        f"  estimator: {sharing}; fleet yield {report.fleet_yield:.4f}"
        + (
            f", tau^2 {report.tau2:.3g}"
            if report.correlation_shared
            else ""
        )
    )
    order = np.argsort(report.yield_shrunk)
    shown = order[: max(1, int(max_rows))]
    level = int(round(report.confidence * 100))
    lines.append(
        f"  worst {len(shown)} states (yield with {level}% CI):"
    )
    for k in shown:
        lines.append(
            f"    state {int(k):4d}: {report.yield_shrunk[k]:.4f} "
            f"[{report.yield_ci_lower[k]:.4f}, "
            f"{report.yield_ci_upper[k]:.4f}]  (raw "
            f"{report.yield_raw[k]:.4f})"
        )
    if len(order) > len(shown):
        lines.append(f"    … {len(order) - len(shown)} more states")
    return "\n".join(lines)
