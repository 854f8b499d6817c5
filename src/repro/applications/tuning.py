"""Post-silicon tuning policies [6]-[11] — why tunable circuits exist.

After manufacturing, each die can select the knob state that best fits its
own process corner. ``TuningPolicy`` turns fitted performance models into a
state-selection rule and quantifies the yield gain of tuning versus a fixed
(best-single-state) design — the paper's opening motivation.

Both yields come from one pass/fail matrix over the *same* Monte-Carlo
dies: a die's tuned outcome needs every state evaluated on that die,
which per-state sample streams (``repro.yields``) cannot give. Once
per-state models exist, yield under many thousands of samples costs
only matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.applications.yield_estimation import Specification
from repro.basis.dictionary import BasisDictionary
from repro.core.base import MultiStateRegressor
from repro.errors import NumericalError
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer
from repro.variation.sampling import standard_normal_samples

__all__ = ["TuningPolicy", "TuningSummary"]


@dataclass
class TuningSummary:
    """Yield comparison between fixed-state and tuned operation."""

    #: Yield of the single best fixed state.
    best_fixed_yield: float
    #: Index of that state.
    best_fixed_state: int
    #: Yield when every die picks its own best state.
    tuned_yield: float
    #: Per-state fixed yields.
    state_yields: np.ndarray

    @property
    def tuning_gain(self) -> float:
        """Absolute yield improvement from tuning."""
        return self.tuned_yield - self.best_fixed_yield


class TuningPolicy:
    """Model-driven state selection.

    Parameters
    ----------
    models:
        metric → fitted estimator (shared state count).
    basis:
        Basis dictionary for raw samples.
    specs:
        The pass/fail specifications every die must meet.
    """

    def __init__(
        self,
        models: Mapping[str, MultiStateRegressor],
        basis: BasisDictionary,
        specs: Sequence[Specification],
    ) -> None:
        if not models:
            raise ValueError("at least one metric model is required")
        states = {model.n_states for model in models.values()}
        if len(states) != 1:
            raise ValueError(
                f"models disagree on the state count: {sorted(states)}"
            )
        if not specs:
            raise ValueError("at least one specification is required")
        for spec in specs:
            if spec.metric not in models:
                raise KeyError(
                    f"no model for metric {spec.metric!r}; have "
                    f"{sorted(models)}"
                )
        self._models = dict(models)
        self.specs = tuple(specs)
        self.basis = basis
        #: Number of selectable knob states.
        self.n_states = states.pop()

    # ------------------------------------------------------------------
    def pass_matrix(self, x: np.ndarray) -> np.ndarray:
        """(dies × states) boolean: die ``i`` meets every spec at state k.

        Every state is evaluated on the same rows of ``x``, so a row
        reads as one die's outcome across the knob.
        """
        design = self.basis.expand(x)
        passes = np.ones((x.shape[0], self.n_states), dtype=bool)
        for spec in self.specs:
            model = self._models[spec.metric]
            for state in range(self.n_states):
                predictions = model.predict(design, state)
                if not np.all(np.isfinite(predictions)):
                    n_bad = int(np.sum(~np.isfinite(predictions)))
                    raise NumericalError(
                        f"model for metric {spec.metric!r} produced {n_bad} "
                        f"non-finite prediction(s) at state {state}; "
                        "NaN comparisons would silently count as spec "
                        "failures and corrupt the yield estimate"
                    )
                passes[:, state] &= spec.passes(predictions)
        return passes

    def select_states(self, x: np.ndarray) -> np.ndarray:
        """Best state per die (row of ``x``), −1 when no state passes.

        Among passing states the lowest index is chosen (deterministic);
        dies with no passing state report −1 so callers can flag them.
        """
        passes = self.pass_matrix(x)
        any_pass = passes.any(axis=1)
        # argmax returns the first True column; mask the failures.
        choice = np.argmax(passes, axis=1)
        choice[~any_pass] = -1
        return choice

    def summarize(
        self, n_samples: int = 50_000, seed: SeedLike = None
    ) -> TuningSummary:
        """Monte Carlo comparison of fixed-state vs. tuned yield.

        Draws ``n_samples`` standard-normal dies from ``seed`` (the same
        dies for the same seed) and evaluates every state on each.
        """
        n_samples = check_integer(n_samples, "n_samples", minimum=1)
        x = standard_normal_samples(
            n_samples, self.basis.n_variables, seed
        )
        passes = self.pass_matrix(x)
        state_yields = passes.mean(axis=0)
        best_state = int(np.argmax(state_yields))
        return TuningSummary(
            best_fixed_yield=float(state_yields[best_state]),
            best_fixed_state=best_state,
            tuned_yield=float(passes.any(axis=1).mean()),
            state_yields=state_yields,
        )
