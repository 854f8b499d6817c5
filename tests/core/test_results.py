"""Tests for fit-report diagnostics."""

import pytest

from repro.core.em import EmTrace
from repro.core.prior import CorrelatedPrior
from repro.core.results import FitReport
from repro.core.somp_init import InitResult

import numpy as np


def make_report():
    init = InitResult(
        r0=0.7,
        sigma0=0.15,
        n_basis=12,
        support=[0, 3, 7],
        prior=CorrelatedPrior(np.ones(5), np.eye(2)),
        noise_var=0.15**2,
        cv_errors={(0.7, 0.15, 12): 0.42},
    )
    trace = EmTrace(
        nll_history=[10.0, 8.0, 7.5],
        noise_history=[0.02, 0.015, 0.012],
        converged=True,
        seconds=1.25,
    )
    return FitReport(
        init=init,
        em=trace,
        n_active=4,
        noise_std=0.11,
        init_seconds=0.4,
        em_seconds=1.25,
    )


class TestFitReport:
    def test_total_seconds(self):
        report = make_report()
        assert report.total_seconds == pytest.approx(1.65)

    def test_summary_mentions_key_numbers(self):
        text = make_report().summary()
        assert "r0=0.7" in text
        assert "theta=12" in text
        assert "3 iterations" in text
        assert "converged=True" in text
        assert "active bases=4" in text
        assert "0.11" in text

    def test_em_trace_iteration_count(self):
        assert make_report().em.n_iterations == 3


class TestEmTraceDefaults:
    def test_fresh_trace_empty(self):
        trace = EmTrace()
        assert trace.n_iterations == 0
        assert not trace.converged
        assert trace.seconds == 0.0
