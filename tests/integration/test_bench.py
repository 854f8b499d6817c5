"""Tests for the benchmark regression harness (logic only — no timing)."""

import argparse
import copy
import json

import numpy as np
import pytest

from repro import bench
from repro.bench import (
    BASELINE_DIR,
    DEFAULT_THRESHOLD,
    SUITES,
    add_bench_parser,
    check_gates,
    check_regression,
    main_bench,
)

#: The committed baselines, whose ``gates`` lists ``--check`` enforces.
BASELINES = {
    suite: json.loads((BASELINE_DIR / f"BENCH_{suite}.json").read_text())
    for suite in SUITES
}


def report(cbmf_fit=1.0, em=0.5, scale="small", kind="fit"):
    return {
        "kind": kind,
        "config": {
            "circuit": "lna",
            "scale": scale,
            "n_states": 6,
            "n_basis": 190,
            "repeats": 3,
        },
        "env": {"python": "3.11", "numpy": "2.0", "machine": "x86_64"},
        "timings_seconds": {"cbmf_fit": cbmf_fit, "em": em},
    }


class TestCheckRegression:
    def test_identical_passes(self):
        assert check_regression(report(), report()) == []

    def test_faster_passes(self):
        assert check_regression(report(cbmf_fit=0.5), report()) == []

    def test_within_gate_passes(self):
        current = report(cbmf_fit=1.4)
        assert check_regression(current, report()) == []

    def test_beyond_gate_fails(self):
        current = report(cbmf_fit=1.6)
        problems = check_regression(current, report())
        assert len(problems) == 1
        assert "cbmf_fit" in problems[0]
        assert "1.60" in problems[0]

    def test_custom_threshold(self):
        current = report(cbmf_fit=1.2)
        assert check_regression(current, report(), threshold=1.1)

    def test_multiple_regressions_all_reported(self):
        current = report(cbmf_fit=2.0, em=2.0)
        problems = check_regression(current, report())
        assert len(problems) == 2

    def test_config_mismatch_reported_not_compared(self):
        current = report(cbmf_fit=100.0, scale="medium")
        problems = check_regression(current, report())
        assert len(problems) == 1
        assert "config mismatch" in problems[0]
        assert "scale" in problems[0]

    def test_repeats_not_part_of_fingerprint(self):
        current = report()
        current["config"]["repeats"] = 99
        assert check_regression(current, report()) == []

    def test_missing_timing_reported(self):
        current = report()
        del current["timings_seconds"]["em"]
        problems = check_regression(current, report())
        assert problems and "missing" in problems[0]

    def test_environment_differences_ignored(self):
        current = report()
        current["env"] = {"python": "3.99", "numpy": "9.9", "machine": "arm"}
        assert check_regression(current, report()) == []

    def test_roundtrips_through_json(self):
        baseline = json.loads(json.dumps(report()))
        assert check_regression(report(), baseline) == []


def kron_report(
    speedup=10.0,
    coef_parity=1e-12,
    kron_dense=1e-10,
    dual_dense=1e-10,
    solver="kron",
):
    return {
        "kind": "kron",
        "config": {"circuit": "lna_sweep", "n_points": 201},
        "timings_seconds": {
            "kron_fit_k201": 0.5, "dual_fit_k201": 0.5 * speedup,
        },
        "details": {
            "speedup_vs_dual": speedup,
            "coef_parity_vs_dual": coef_parity,
            "kron_vs_dense_parity": kron_dense,
            "dual_vs_dense_parity": dual_dense,
            "solver_used": solver,
        },
    }


def kron_gates(report):
    return check_gates(report, BASELINES["kron"]["gates"])


class TestCheckKronGates:
    """The kron suite's absolute gates, as committed in its baseline."""

    def test_healthy_report_passes(self):
        assert kron_gates(kron_report()) == []

    def test_speedup_below_gate_fails(self):
        problems = kron_gates(kron_report(speedup=4.9))
        assert problems and "speedup" in problems[0]

    def test_each_parity_gate_enforced(self):
        for key in ("coef_parity", "kron_dense", "dual_dense"):
            problems = kron_gates(kron_report(**{key: 10 * 1e-8}))
            assert problems, f"{key} beyond rtol must fail the gate"

    def test_missing_parity_fails_loudly(self):
        broken = kron_report()
        broken["details"]["coef_parity_vs_dual"] = None
        assert kron_gates(broken)

    def test_wrong_solver_fails(self):
        problems = kron_gates(kron_report(solver="dual"))
        assert problems and "solver" in problems[0]

    def test_committed_baseline_satisfies_its_own_gates(self):
        """The repo's committed BENCH_kron.json must pass its gates —
        otherwise CI's perf-smoke would be red from the start."""
        baseline = BASELINES["kron"]
        assert baseline["kind"] == "kron"
        assert kron_gates(baseline) == []
        curve = baseline["details"]["k_scaling"]
        assert [point["k"] for point in curve] == [32, 64, 128, 201]


class TestSuiteRegistry:
    def test_kron_is_a_selectable_suite(self):
        assert "kron" in SUITES


class TestBenchKron:
    def test_timed_fits_run_the_cv_grid_inline(self, monkeypatch, tmp_path):
        # A process pool started inside each timed fit adds the same
        # seconds to both arms and pulls speedup_vs_dual towards 1, so
        # every fit runs its CV grid inline even under REPRO_MAX_WORKERS.
        import repro.core.somp_init as somp_init
        import repro.paper

        monkeypatch.setattr(repro.paper, "DEFAULT_CACHE_DIR", tmp_path)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        requested = []
        real_map = somp_init.parallel_map

        def spy(fn, items, **kwargs):
            requested.append(kwargs.get("max_workers"))
            return real_map(fn, items, **kwargs)

        monkeypatch.setattr(somp_init, "parallel_map", spy)
        bench.bench_kron(repeats=1, n_points=6, n_train=4, k_curve=(4,))
        assert len(requested) == 5
        assert set(requested) == {1}


class TestBenchParser:
    def parse(self, argv):
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers(dest="command")
        add_bench_parser(sub)
        return parser.parse_args(argv)

    def test_defaults(self):
        args = self.parse(["bench"])
        assert not args.quick
        assert not args.check
        assert args.scale == "medium"
        assert args.threshold == DEFAULT_THRESHOLD

    def test_quick_check_flags(self):
        args = self.parse(["bench", "--quick", "--check"])
        assert args.quick and args.check

    @pytest.mark.parametrize("scale", ["paper", "meduim"])
    def test_scale_limited_to_what_every_suite_runs(self, scale):
        """Regression: ``paper`` ran two suites, then died with a
        ``KeyError`` in the cluster suite; a typo died in the fit suite."""
        with pytest.raises(SystemExit):
            self.parse(["bench", "--scale", scale])

    def test_cli_exposes_bench(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--quick"])
        assert args.command == "bench"
        assert args.quick


def yield_report(
    rmse_independent=0.012,
    rmse_shrunk=0.010,
    correlation_shared=True,
    peak_bytes=2_000_000,
    dense_bytes=18_000_000_000,
):
    """A yield report whose derived fields follow ``bench_yield``."""
    return {
        "kind": "yield",
        "config": {"circuit": "lna_sweep", "n_points": 201},
        "timings_seconds": {"fit": 1.0, "estimate": 0.1},
        "details": {
            "rmse_independent": rmse_independent,
            "rmse_shrunk": rmse_shrunk,
            "rmse_improvement": rmse_independent / rmse_shrunk,
            "correlation_shared": correlation_shared,
            "cluster_peak_bytes": peak_bytes,
            "dense_cov_bytes": dense_bytes,
            "peak_fraction_of_dense": peak_bytes / dense_bytes,
        },
    }


def yield_gates(report):
    return check_gates(report, BASELINES["yield"]["gates"])


class TestCheckYieldGates:
    """The yield suite's absolute gates, as committed in its baseline."""

    def test_healthy_report_passes(self):
        assert yield_gates(yield_report()) == []

    def test_shrunk_must_beat_independent(self):
        problems = yield_gates(yield_report(rmse_shrunk=0.013))
        assert problems and "rmse_improvement" in problems[0]
        # A tie is not a win either.
        assert yield_gates(
            yield_report(rmse_shrunk=0.012, rmse_independent=0.012)
        )

    def test_missing_rmse_fails_loudly(self):
        broken = yield_report()
        del broken["details"]["rmse_improvement"]
        assert yield_gates(broken)

    def test_independent_fallback_fails(self):
        problems = yield_gates(yield_report(correlation_shared=False))
        assert problems and "correlation_shared" in problems[0]

    def test_densified_covariance_fails(self):
        problems = yield_gates(yield_report(peak_bytes=18_000_000_000))
        assert problems and "dense" in problems[0]

    def test_peak_gate_is_a_strict_fraction(self):
        dense = 1_000_000_000
        at_gate = int(dense * 0.01)
        assert yield_gates(
            yield_report(peak_bytes=at_gate, dense_bytes=dense)
        )
        assert yield_gates(
            yield_report(peak_bytes=at_gate - 1, dense_bytes=dense)
        ) == []

    def test_committed_baseline_satisfies_its_own_gates(self):
        """The repo's committed BENCH_yield.json must pass its gates —
        otherwise CI's yield-smoke would be red from the start."""
        baseline = BASELINES["yield"]
        assert baseline["kind"] == "yield"
        assert yield_gates(baseline) == []
        assert baseline["config"]["mc_samples"] >= 100_000

    def test_yield_is_a_selectable_suite(self):
        assert "yield" in SUITES


def past_boundary(op, bound):
    """The nearest value that fails ``op`` against ``bound``."""
    if op == "min":
        return float(np.nextafter(bound, -np.inf))
    if op == "max":
        return float(np.nextafter(bound, np.inf))
    if op in ("above", "below"):
        return bound
    if isinstance(bound, bool):
        return not bound
    return bound + ("?" if isinstance(bound, str) else 1)


def with_value(report, path, value):
    """A copy of ``report`` with ``path`` set to ``value`` (or removed
    when ``value`` is the ``KeyError`` class)."""
    report = copy.deepcopy(report)
    *parents, leaf = path.split(".")
    node = report
    for part in parents:
        node = node[part]
    if value is KeyError:
        del node[leaf]
    else:
        node[leaf] = value
    return report


GATES = [
    pytest.param(suite, gate, id=f"{suite}:{gate['path']}")
    for suite, baseline in BASELINES.items()
    for gate in baseline["gates"]
]


class TestCommittedGates:
    """Every committed baseline carries a ``gates`` list that its own
    numbers pass, and every gate fails, by name, on a value just past
    its boundary, on ``None`` and on a missing key."""

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_baseline_passes_its_own_gates(self, suite):
        baseline = BASELINES[suite]
        assert isinstance(baseline["gates"], list)
        assert check_gates(baseline, baseline["gates"]) == []

    @pytest.mark.parametrize("suite, gate", GATES)
    @pytest.mark.parametrize("breakage", ["past-boundary", "none", "missing"])
    def test_each_gate_fails_by_name(self, suite, gate, breakage):
        baseline = BASELINES[suite]
        op = next(key for key in gate if key != "path")
        value = {
            "past-boundary": past_boundary(op, gate[op]),
            "none": None,
            "missing": KeyError,
        }[breakage]
        problems = check_gates(
            with_value(baseline, gate["path"], value), baseline["gates"]
        )
        assert len(problems) == 1
        assert gate["path"] in problems[0]

    @pytest.mark.parametrize(
        "gate",
        [{"path": "details.x"}, {"path": "details.x", "atleast": 1},
         {"path": "details.x", "min": 1, "max": 2}, {"min": 1}],
    )
    def test_malformed_gate_rejected(self, gate):
        with pytest.raises(ValueError, match="malformed gate"):
            check_gates({"details": {"x": 1}}, [gate])


class TestMainBench:
    """``main_bench`` around a stubbed suite: baselines and gates."""

    REPORT = {
        "kind": "fit",
        "config": {"scale": "small"},
        "timings_seconds": {"cbmf_fit": 1.0},
        "details": {"em_iterations": 60},
    }

    def run(self, monkeypatch, tmp_path, *flags):
        monkeypatch.setitem(
            bench.SUITES, "fit", lambda **_: copy.deepcopy(self.REPORT)
        )
        parser = argparse.ArgumentParser()
        add_bench_parser(parser.add_subparsers(dest="command"))
        args = parser.parse_args([
            "bench", "--suite", "fit", "--quick",
            "--output-dir", str(tmp_path / "out"),
            "--baseline-dir", str(tmp_path / "baselines"), *flags,
        ])
        return main_bench(args)

    def test_update_baseline_keeps_gates(self, monkeypatch, tmp_path):
        gates = [{"path": "details.em_iterations", "equals": 60}]
        path = tmp_path / "baselines" / "BENCH_fit.json"
        path.parent.mkdir()
        path.write_text(json.dumps(dict(
            self.REPORT, timings_seconds={"cbmf_fit": 9.0}, gates=gates
        )))
        assert self.run(monkeypatch, tmp_path, "--update-baseline") == 0
        updated = json.loads(path.read_text())
        assert updated["timings_seconds"] == {"cbmf_fit": 1.0}
        assert updated["gates"] == gates
        assert self.run(monkeypatch, tmp_path, "--check") == 0

    def test_check_without_baseline_fails(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self.run(monkeypatch, tmp_path, "--check") == 1
        assert "no baseline" in capsys.readouterr().err

    def test_check_fails_on_a_gate(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "baselines" / "BENCH_fit.json"
        path.parent.mkdir()
        path.write_text(json.dumps(dict(
            self.REPORT,
            gates=[{"path": "details.em_iterations", "equals": 59}],
        )))
        assert self.run(monkeypatch, tmp_path, "--check") == 1
        assert "details.em_iterations" in capsys.readouterr().err
