"""A user-defined circuit through the whole pipeline.

Demonstrates (and pins down) the ``TunableCircuit`` extension contract:
anything that provides a process model, a state list and ``evaluate`` gets
Monte Carlo, fitting, sweeps and yield estimation for free. The toy here
is a tunable RC filter — deliberately minimal and fully analytic.
"""

import math
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.basis.polynomial import LinearBasis
from repro.circuits.base import TunableCircuit
from repro.circuits.devices import Passive
from repro.circuits.knobs import KnobConfiguration, TuningKnob, enumerate_states
from repro.evaluation.experiment import ModelingExperiment
from repro.simulate.montecarlo import MonteCarloEngine
from repro.variation.process import ProcessModel, ProcessSample


class TunableRCFilter(TunableCircuit):
    """First-order RC low-pass with a switched-capacitor corner knob."""

    def __init__(self, n_states: int = 4) -> None:
        self.r = Passive("RF", "resistor", 10e3, 0.02)
        self.c_base = Passive("CF", "capacitor", 1e-12, 0.02)
        self.c_units = tuple(
            Passive(f"CU{i}", "capacitor", 0.5e-12, 0.03)
            for i in range(n_states - 1)
        )
        declarations = [self.r.variation(), self.c_base.variation()]
        declarations.extend(c.variation() for c in self.c_units)
        self._model = ProcessModel(declarations)
        knob = TuningKnob(
            "cap_code", tuple(float(i) for i in range(n_states))
        )
        self._states = tuple(enumerate_states([knob]))

    @property
    def name(self) -> str:
        """Circuit identifier."""
        return "rcfilter"

    @property
    def process_model(self) -> ProcessModel:
        """The filter's variation space."""
        return self._model

    @property
    def states(self) -> Tuple[KnobConfiguration, ...]:
        """Ordered knob configurations."""
        return self._states

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Corner frequency (MHz) and droop at the 5 MHz band edge (dB)."""
        return ("fc_mhz", "droop_db")

    def evaluate(
        self, sample: ProcessSample, state: KnobConfiguration
    ) -> Dict[str, float]:
        """Closed-form metrics of the RC corner."""
        code = int(state.values["cap_code"])
        resistance = self.r.value(sample)
        capacitance = self.c_base.value(sample) + sum(
            self.c_units[i].value(sample) for i in range(code)
        )
        fc = 1.0 / (2.0 * math.pi * resistance * capacitance)
        ratio = 5e6 / fc
        droop = -10.0 * math.log10(1.0 + ratio * ratio)
        return {"fc_mhz": fc / 1e6, "droop_db": droop}


@pytest.fixture(scope="module")
def rc_filter():
    return TunableRCFilter()


class TestCustomCircuit:
    def test_contract_surface(self, rc_filter):
        assert rc_filter.n_states == 4
        assert rc_filter.n_variables == 2 + 3 + len(
            rc_filter.process_model.global_specs
        ) - 0  # 12 globals + 5 locals
        nominal = rc_filter.nominal(rc_filter.states[0])
        assert 5.0 < nominal["fc_mhz"] < 30.0

    def test_knob_moves_corner_down(self, rc_filter):
        fcs = [rc_filter.nominal(s)["fc_mhz"] for s in rc_filter.states]
        assert all(b < a for a, b in zip(fcs, fcs[1:]))

    def test_full_pipeline(self, rc_filter):
        """Simulate → fit C-BMF → error well under 1 % on both metrics."""
        data = MonteCarloEngine(rc_filter, seed=1).run(30)
        train, test = data.split(15)
        experiment = ModelingExperiment(
            train, test, LinearBasis(rc_filter.n_variables)
        )
        result = experiment.run("cbmf", seed=0)
        for metric, error in result.errors.items():
            assert error < 5.0, metric

    def test_yield_application_works(self, rc_filter):
        from repro.applications import Specification, TuningPolicy
        from repro.modelset import PerformanceModelSet

        data = MonteCarloEngine(rc_filter, seed=2).run(25)
        models = PerformanceModelSet.fit_dataset(
            data, method="somp", seed=0
        )
        nominal_fc = rc_filter.nominal(rc_filter.states[0])["fc_mhz"]
        policy = TuningPolicy(
            models.as_mapping(), models.basis,
            [Specification("fc_mhz", nominal_fc, "max")],
        )
        yields = policy.summarize(n_samples=2000, seed=0).state_yields
        # The spec sits at state 0's median → ~50 % there, ~100 % at the
        # lower-corner states.
        assert yields[0] == pytest.approx(0.5, abs=0.15)
        assert yields[-1] > 0.9
