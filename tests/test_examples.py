"""Smoke tests: the shipped example scripts actually run.

Only the fast examples run here (the paper-reproduction script is covered
by the benchmark suite at scale). Each is executed as a subprocess exactly
as a user would run it, and its key output lines are checked.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, timeout: int = 180) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_lna_noise_budget(self):
        out = run_example("lna_noise_budget.py")
        assert "noise budget" in out
        assert "input match vs knob state" in out
        assert "gain vs frequency" in out

    def test_state_clustering(self):
        out = run_example("state_clustering.py")
        assert "inferred state clusters" in out
        assert "Clustered C-BMF" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "C-BMF" in out and "S-OMP" in out
        assert "sensitivities" in out

    def test_serving_demo(self):
        out = run_example("serving_demo.py")
        assert "lna@v1" in out and "lna@v2" in out
        assert "hot-swapped to version 2" in out

    def test_active_learning_demo(self):
        out = run_example("active_learning_demo.py")
        assert "strategy=variance" in out
        assert "pushed lna-active@v1" in out
        assert "manifest acquisition metadata:" in out
        assert "served prediction at the typical corner" in out

    def test_streaming_demo(self):
        out = run_example("streaming_demo.py")
        assert "seeded online C-BMF" in out
        assert "drift refits: " in out
        assert "drift flagged at batch" in out
        assert "serving live@v" in out
        assert "streaming telemetry:" in out

    def test_cluster_demo(self):
        out = run_example("cluster_demo.py")
        assert "cluster serving live@v1 on 2 shards" in out
        assert "canarying at 30%" in out
        assert "per-version traffic:" in out
        assert "promoted live@v" in out
        assert "CLUSTER REPORT" in out
        assert "aggregate: requests=" in out

    def test_yield_and_tuning(self):
        out = run_example("yield_and_tuning.py")
        assert "per-state yield (model-based, 50k MC):" in out
        assert "best fixed state:" in out
        assert "tuned yield (each die picks its state):" in out
        assert "validation, state" in out

    def test_adaptive_vco(self):
        out = run_example("adaptive_vco.py")
        assert "active fit — strategy=variance metric=freq_ghz" in out
        assert "stopped: std_collapse" in out
        assert "→ converged at" in out
        assert "measured held-out error:" in out
        assert "error-bar calibration:" in out

    def test_yield_demo(self):
        out = run_example("yield_demo.py")
        assert "solver=kron" in out
        assert "correlation-shared" in out
        assert "ground truth" in out
        assert "tau^2" in out

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "reproduce_paper.py",
            "yield_and_tuning.py",
            "yield_demo.py",
            "corner_extraction.py",
            "state_clustering.py",
            "adaptive_vco.py",
            "lna_noise_budget.py",
            "serving_demo.py",
            "active_learning_demo.py",
            "streaming_demo.py",
            "cluster_demo.py",
        ],
    )
    def test_example_compiles(self, name):
        """Every shipped example at least byte-compiles."""
        path = EXAMPLES_DIR / name
        assert path.exists()
        compile(path.read_text(), str(path), "exec")
