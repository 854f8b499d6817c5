"""Tests for report rendering."""

import pytest

from repro.evaluation.experiment import MethodResult
from repro.evaluation.report import (
    format_comparison_table,
    format_sweep_table,
)
from repro.evaluation.sweep import SweepResult
from repro.simulate.cost import CostModel


def fake_results():
    somp = MethodResult(method="somp", n_train_total=1120)
    somp.errors = {"nf_db": 0.316, "gain_db": 0.577}
    somp.fit_seconds = {"nf_db": 0.5, "gain_db": 0.82}
    somp.cost = CostModel(8.74).cost(1120, somp.total_fit_seconds)
    cbmf = MethodResult(method="cbmf", n_train_total=480)
    cbmf.errors = {"nf_db": 0.285, "gain_db": 0.566}
    cbmf.fit_seconds = {"nf_db": 100.0, "gain_db": 110.0}
    cbmf.cost = CostModel(8.74).cost(480, cbmf.total_fit_seconds)
    return somp, cbmf


class TestComparisonTable:
    def test_contains_all_rows(self):
        table = format_comparison_table("Table 1", fake_results())
        assert "Number of training samples" in table
        assert "Modeling error for nf_db" in table
        assert "Simulation cost (Hours)" in table
        assert "Overall modeling cost (Hours)" in table

    def test_metric_labels_applied(self):
        table = format_comparison_table(
            "Table 1", fake_results(), {"nf_db": "NF"}
        )
        assert "Modeling error for NF" in table

    def test_values_formatted(self):
        table = format_comparison_table("Table 1", fake_results())
        assert "0.316%" in table
        assert "1120" in table and "480" in table

    def test_cost_rows_skipped_without_cost_model(self):
        somp, cbmf = fake_results()
        somp.cost = None
        table = format_comparison_table("T", (somp, cbmf))
        assert "Simulation cost" not in table

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            format_comparison_table("T", [])


class TestSweepTable:
    def test_renders_series(self):
        somp_points = [
            MethodResult("somp", 160, errors={"nf_db": 2.0}),
            MethodResult("somp", 320, errors={"nf_db": 1.0}),
        ]
        cbmf_points = [
            MethodResult("cbmf", 160, errors={"nf_db": 1.5}),
            MethodResult("cbmf", 320, errors={"nf_db": 0.8}),
        ]
        sweep = SweepResult(
            circuit_name="lna",
            metric_names=("nf_db",),
            n_per_state_grid=(5, 10),
            results={"somp": somp_points, "cbmf": cbmf_points},
        )
        table = format_sweep_table("Fig 2b", sweep, "nf_db", "NF")
        assert "Fig 2b" in table and "NF" in table
        assert "160" in table and "320" in table
        assert "2.000%" in table and "0.800%" in table


class TestActiveHistoryTable:
    def make_history(self):
        from repro.active.history import FitHistory, RoundRecord

        history = FitHistory(
            strategy="variance", metric="nf_db", stop_reason="plateau"
        )
        history.append(RoundRecord(
            round_index=0, n_samples_total=12,
            n_samples_per_state=(6, 6), n_added_per_state=(4, 4),
            holdout_rmse=0.5, best_rmse=0.5, noise_std=0.05,
            refit="cold", wall_seconds=0.25,
        ))
        history.append(RoundRecord(
            round_index=1, n_samples_total=20,
            n_samples_per_state=(10, 10), n_added_per_state=(0, 0),
            holdout_rmse=0.125, best_rmse=0.125, noise_std=0.05,
            refit="warm", wall_seconds=0.125,
        ))
        return history

    def test_renders_rounds_and_stop_reason(self):
        from repro.evaluation.report import format_active_history

        table = format_active_history(self.make_history())
        assert "strategy=variance" in table and "metric=nf_db" in table
        assert "0.50000" in table and "0.12500" in table
        assert "cold" in table and "warm" in table
        assert table.splitlines()[-1] == "stopped: plateau"
        # one header line, one column line, two rounds, one stop line
        assert len(table.splitlines()) == 5

    def test_custom_title(self):
        from repro.evaluation.report import format_active_history

        table = format_active_history(
            self.make_history(), title="My Run"
        )
        assert table.startswith("My Run")


class TestFitProfile:
    def make_report(self):
        from repro.core.em import EmTrace
        from repro.core.results import FitReport
        from repro.core.somp_init import InitResult
        from repro.core.prior import CorrelatedPrior
        import numpy as np

        trace = EmTrace(
            nll_history=[-1.0, -2.0, -2.5],
            noise_history=[0.1, 0.05, 0.04],
            converged=True,
            seconds=0.8,
            posterior_seconds=0.6,
            mstep_seconds=0.15,
        )
        prior = CorrelatedPrior(
            lambdas=np.ones(4), correlation=np.eye(3)
        )
        init = InitResult(
            r0=0.7, sigma0=0.1, n_basis=2, support=[0, 1],
            prior=prior, noise_var=0.01,
        )
        return FitReport(
            init=init, em=trace, n_active=2, noise_std=0.1,
            init_seconds=0.4, em_seconds=0.8,
        )

    def test_contains_stage_rows(self):
        from repro.evaluation.report import format_fit_profile

        text = format_fit_profile(self.make_report())
        assert "somp init" in text
        assert "posterior solves" in text
        assert "m-step updates" in text
        assert "3 EM iterations" in text

    def test_custom_title(self):
        from repro.evaluation.report import format_fit_profile

        text = format_fit_profile(self.make_report(), title="my fit")
        assert text.splitlines()[0] == "my fit"

    def test_shares_sum_sensibly(self):
        from repro.evaluation.report import format_fit_profile

        text = format_fit_profile(self.make_report())
        assert "total" in text and "1.200s" in text
