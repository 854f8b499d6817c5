"""Yield specifications and reference yields [12]-[13].

``Specification`` is the pass/fail bound every yield path shares: the
shared-die tuning yields of
:class:`~repro.applications.tuning.TuningPolicy`, the correlation-shared
per-state reports of :mod:`repro.yields`, and the cluster's ``yield``
endpoint. ``monte_carlo_yield`` evaluates specs on direct circuit
evaluations and ``analytic_spec_yield`` in closed form; tests compare the
model-based yields against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.basis.dictionary import BasisDictionary
from repro.circuits.base import TunableCircuit
from repro.core.base import MultiStateRegressor
from repro.errors import NumericalError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

__all__ = ["Specification", "monte_carlo_yield"]


@dataclass(frozen=True)
class Specification:
    """One pass/fail bound on a performance metric.

    ``kind="max"`` passes when ``y ≤ bound`` (e.g. NF below 3 dB);
    ``kind="min"`` passes when ``y ≥ bound`` (e.g. gain above 15 dB).
    """

    metric: str
    bound: float
    kind: str = "max"

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min"):
            raise ValueError(
                f"kind must be 'max' or 'min', got {self.kind!r}"
            )
        if not np.isfinite(self.bound):
            raise ValueError(
                f"bound for metric {self.metric!r} must be finite, got "
                f"{self.bound!r} — a NaN/inf bound would silently pass or "
                "fail every sample"
            )

    @classmethod
    def parse(cls, text: str) -> "Specification":
        """Parse ``metric<=bound`` / ``metric>=bound`` (CLI spec syntax)."""
        text = str(text).strip()
        for token, kind in (("<=", "max"), (">=", "min")):
            if token in text:
                metric, _, bound = text.partition(token)
                metric = metric.strip()
                if not metric:
                    raise ValueError(f"spec {text!r} has an empty metric name")
                try:
                    value = float(bound)
                except ValueError:
                    raise ValueError(
                        f"spec {text!r} has a non-numeric bound {bound!r}"
                    ) from None
                return cls(metric=metric, bound=value, kind=kind)
        raise ValueError(
            f"spec {text!r} must look like 'metric<=bound' or 'metric>=bound'"
        )

    def passes(self, values: np.ndarray) -> np.ndarray:
        """Boolean pass mask for an array of metric values."""
        values = np.asarray(values, dtype=float)
        if self.kind == "max":
            return values <= self.bound
        return values >= self.bound


def analytic_spec_yield(
    model: MultiStateRegressor,
    basis: BasisDictionary,
    spec: Specification,
    state: int,
) -> float:
    """Closed-form yield of one spec for a linear-basis model.

    Under ``y = α0 + wᵀx`` with ``x ~ N(0, I)`` the performance is exactly
    Gaussian, ``y ~ N(α0 + offset, ‖w‖²)``, so the single-spec yield is a
    normal CDF — no Monte Carlo, and a tight cross-check for the sampling
    estimator. Only valid for :class:`LinearBasis` models.
    """
    from scipy.stats import norm

    from repro.basis.polynomial import LinearBasis

    if not isinstance(basis, LinearBasis):
        raise TypeError(
            "analytic yield requires a LinearBasis model; got "
            f"{type(basis).__name__}"
        )
    model._require_fitted()
    if not 0 <= state < model.n_states:
        raise IndexError(
            f"state {state} out of range 0..{model.n_states - 1}"
        )
    coefficients = model.coef_[state]
    mean = float(coefficients[0])
    offsets = getattr(model, "offsets_", None)
    if offsets is not None:
        mean += float(offsets[state])
    sigma = float(np.linalg.norm(coefficients[1:]))
    if sigma == 0.0:
        passes = spec.passes(np.asarray([mean]))[0]
        return 1.0 if passes else 0.0
    z = (spec.bound - mean) / sigma
    return float(norm.cdf(z) if spec.kind == "max" else norm.sf(z))


def monte_carlo_yield(
    circuit: TunableCircuit,
    state_index: int,
    specs: Sequence[Specification],
    n_samples: int,
    seed: SeedLike = None,
) -> float:
    """Direct (model-free) yield of one state, for validating the estimator."""
    if not specs:
        raise ValueError("at least one specification is required")
    n_samples = check_integer(n_samples, "n_samples", minimum=1)
    if not 0 <= state_index < circuit.n_states:
        raise IndexError(
            f"state_index {state_index} out of range 0..{circuit.n_states - 1}"
        )
    rng = as_generator(seed)
    state = circuit.states[state_index]
    n_pass = 0
    for _ in range(n_samples):
        x = rng.standard_normal(circuit.n_variables)
        values = circuit.evaluate_x(x, state)
        ok = True
        for spec in specs:
            value = float(values[spec.metric])
            if not np.isfinite(value):
                raise NumericalError(
                    f"circuit produced a non-finite {spec.metric!r} value "
                    f"({value!r}) at state {state_index}"
                )
            ok = ok and bool(spec.passes(np.asarray([value]))[0])
        n_pass += int(ok)
    return n_pass / n_samples
