"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.seed == 2016
        assert args.scale is None

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "galactic"])

    def test_fig_metric_flag(self):
        args = build_parser().parse_args(["fig2", "--metric", "nf_db"])
        assert args.metric == "nf_db"

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_all_command_parses(self):
        args = build_parser().parse_args(["all", "--scale", "medium"])
        assert args.command == "all"
        assert args.scale == "medium"

    def test_table2_and_fig3_parse(self):
        assert build_parser().parse_args(["table2"]).command == "table2"
        args = build_parser().parse_args(
            ["fig3", "--metric", "i1db_dbm", "--seed", "7"]
        )
        assert args.command == "fig3"
        assert args.metric == "i1db_dbm"
        assert args.seed == 7

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.command == "serve-bench"
        assert args.requests == 10_000
        assert args.method == "cbmf"
        assert args.batch_size == 64

    def test_sweep_fit_defaults(self):
        args = build_parser().parse_args(["sweep-fit"])
        assert args.command == "sweep-fit"
        assert args.points == 201
        assert args.train == 10
        assert args.metric is None
        assert args.name == "lna_sweep"

    def test_sweep_fit_metric_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-fit", "--metric", "zzz"])

    def test_bench_suite_flag(self):
        args = build_parser().parse_args(["bench", "--suite", "kron"])
        assert args.suite == "kron"
        assert build_parser().parse_args(["bench"]).suite == "all"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--suite", "turbo"])

    def test_registry_subcommands_parse(self):
        args = build_parser().parse_args(
            ["registry", "list", "--root", "/tmp/r"]
        )
        assert (args.command, args.registry_command) == ("registry", "list")
        args = build_parser().parse_args(
            ["registry", "push", "lna", "some/dir", "--root", "/tmp/r"]
        )
        assert args.name == "lna" and args.path == "some/dir"
        args = build_parser().parse_args(
            ["registry", "get", "lna@v2", "--root", "/tmp/r",
             "--dest", "out"]
        )
        assert args.key == "lna@v2" and args.dest == "out"

    def test_registry_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.circuit is None
        assert args.batches == 12
        assert args.push_every == 1
        assert args.drift_shift is None
        assert args.refit_window is None

    def test_stream_flags(self):
        args = build_parser().parse_args([
            "stream", "--drift-shift", "4.0", "--drift-at", "5",
            "--refit-window", "4", "--fault-plan", "stream:nan@2",
            "--record", "s.npz", "--name", "lna-live",
        ])
        assert args.drift_shift == 4.0
        assert args.drift_at == 5
        assert args.refit_window == 4
        assert args.fault_plan == "stream:nan@2"
        assert args.record == "s.npz"
        assert args.name == "lna-live"


class TestInfo:
    def test_info_output(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "C-BMF" in out
        assert "small" in out and "paper" in out
        assert "cbmf" in out


class TestTableCommand:
    def test_table1_small(self, capsys, tmp_path, monkeypatch):
        import repro.paper as paper

        monkeypatch.setattr(paper, "DEFAULT_CACHE_DIR", tmp_path)
        assert main(["table1", "--scale", "small", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Modeling error for NF" in out
        assert "cost reduction" in out

    def test_fig2_single_metric(self, capsys, tmp_path, monkeypatch):
        import repro.paper as paper

        monkeypatch.setattr(paper, "DEFAULT_CACHE_DIR", tmp_path)
        assert main(
            ["fig2", "--scale", "small", "--seed", "5", "--metric", "nf_db"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "NF" in out

    def test_fig2_unknown_metric(self, tmp_path, monkeypatch):
        import repro.paper as paper

        monkeypatch.setattr(paper, "DEFAULT_CACHE_DIR", tmp_path)
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["fig2", "--scale", "small", "--metric", "zzz"])


class TestServeBench:
    def test_small_run(self, capsys):
        # Tiny but complete: fit -> push -> serve -> verify bit-identity.
        assert main([
            "serve-bench", "--requests", "400", "--pool", "80",
            "--states", "3", "--train", "10", "--method", "somp",
            "--trials", "1", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "pushed lna@v1" in out
        assert "bit-identical       True" in out
        assert "speedup" in out


class TestSweepFit:
    def test_small_end_to_end(self, capsys, tmp_path, monkeypatch):
        """Tiny sweep through the full path: simulate -> Kronecker-mode
        fit -> registry push -> reload -> prediction parity."""
        import repro.paper as paper

        monkeypatch.setattr(paper, "DEFAULT_CACHE_DIR", tmp_path)
        assert main([
            "sweep-fit", "--points", "24", "--train", "6",
            "--metric", "s21_db", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "s21_db=kron" in out
        assert "pushed lna_sweep@v1" in out
        assert "parity=ok" in out


class TestStreamCommand:
    def test_short_stream_with_fault_and_drift(self, capsys, tmp_path):
        """CLI smoke: drift-injected stream with a poisoned batch runs
        to completion, refits at least once, and ends serving."""
        recording = tmp_path / "stream.npz"
        assert main([
            "stream", "--batches", "10", "--batch-size", "8",
            "--train", "15", "--variables", "6",
            "--drift-shift", "4.0", "--drift-at", "4",
            "--refit-window", "4", "--fault-plan", "stream:nan@2",
            "--record", str(recording),
            "--registry", str(tmp_path / "registry"), "--seed", "11",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection active" in out
        assert "quarantined 1" in out
        assert "drift refits" in out
        assert "0 failed" in out
        assert recording.exists()

    def test_replay_round_trip(self, capsys, tmp_path):
        recording = tmp_path / "stream.npz"
        common = [
            "--batches", "5", "--batch-size", "5", "--train", "12",
            "--variables", "5", "--seed", "3",
        ]
        assert main(
            ["stream", *common, "--record", str(recording)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["stream", *common, "--replay", str(recording)]
        ) == 0
        out = capsys.readouterr().out
        assert "replaying 5 batches" in out
        assert "absorbed 5" in out


class TestRegistryCommands:
    @pytest.fixture()
    def model_dir(self, tmp_path, lna_dataset):
        from repro.modelset import PerformanceModelSet

        train, _ = lna_dataset.split(20)
        models = PerformanceModelSet.fit_dataset(
            train, method="somp", seed=0
        )
        directory = tmp_path / "models"
        models.save_dir(directory)
        return directory

    def test_push_list_get_roundtrip(self, capsys, tmp_path, model_dir):
        root = str(tmp_path / "registry")
        assert main(
            ["registry", "push", "lna", str(model_dir), "--root", root]
        ) == 0
        assert "pushed lna@v1" in capsys.readouterr().out

        assert main(["registry", "list", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "lna@v1" in out and "modelset" in out

        dest = tmp_path / "export"
        assert main(
            ["registry", "get", "lna@latest", "--root", root,
             "--dest", str(dest)]
        ) == 0
        out = capsys.readouterr().out
        assert '"kind": "modelset"' in out
        assert (dest / "manifest.json").exists()

    def test_push_frozen_npz(self, capsys, tmp_path, model_dir):
        root = str(tmp_path / "registry")
        npz = next(model_dir.glob("*.npz"))
        assert main(
            ["registry", "push", "solo", str(npz), "--root", root]
        ) == 0
        assert main(["registry", "list", "--root", root]) == 0
        assert "frozen" in capsys.readouterr().out

    def test_get_unknown_key_fails_cleanly(self, tmp_path):
        root = str(tmp_path / "registry")
        with pytest.raises(SystemExit, match="registry error"):
            main(["registry", "get", "ghost", "--root", root])

    def test_empty_list(self, capsys, tmp_path):
        assert main(
            ["registry", "list", "--root", str(tmp_path / "registry")]
        ) == 0
        assert "empty registry" in capsys.readouterr().out


class TestYieldReport:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["yield-report"])
        assert args.command == "yield-report"
        assert args.points == 201
        assert args.train == 10
        assert args.samples == 400
        assert args.confidence == 0.95
        assert args.spec is None
        assert args.key is None

    def test_parser_spec_accumulates(self):
        args = build_parser().parse_args([
            "yield-report", "--spec", "s21_db>=16.5",
            "--spec", "nf_db<=1.55",
        ])
        assert args.spec == ["s21_db>=16.5", "nf_db<=1.55"]

    def test_key_without_spec_rejected(self, capsys, tmp_path):
        assert main([
            "yield-report", "--registry", str(tmp_path), "--key", "x@v1",
        ]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_key_without_registry_rejected(self, capsys):
        assert main([
            "yield-report", "--key", "x@v1", "--spec", "nf_db<=1.5",
        ]) == 2
        assert "--registry" in capsys.readouterr().err

    def test_registry_end_to_end(self, capsys, tmp_path, lna_dataset):
        """Full path against a pushed model set: report table, JSON
        artifact, and the independent-fallback warning for a
        correlation-free (SOMP) fit."""
        import json as json_module

        from repro.modelset import PerformanceModelSet
        from repro.serving import ModelRegistry

        train, _ = lna_dataset.split(20)
        models = PerformanceModelSet.fit_dataset(
            train, method="somp", seed=0
        )
        ModelRegistry(tmp_path / "reg").push("lna", models)
        out_json = tmp_path / "report.json"
        assert main([
            "yield-report", "--registry", str(tmp_path / "reg"),
            "--key", "lna@v1", "--spec", "nf_db<=1.6",
            "--samples", "200", "--json", str(out_json),
        ]) == 0
        captured = capsys.readouterr()
        assert "loaded lna@v1" in captured.out
        assert "independent" in captured.out
        assert "warning: no learned correlation" in captured.err
        payload = json_module.loads(out_json.read_text())
        assert payload["n_states"] == models.n_states
        assert len(payload["yield_shrunk"]) == models.n_states

    def test_bad_spec_text_surfaces(self, tmp_path):
        with pytest.raises(ValueError, match="must look like"):
            main(["yield-report", "--spec", "nf_db=1.5"])


class TestActiveFitYieldStrategy:
    def test_strategy_choice_parses_with_specs(self):
        args = build_parser().parse_args([
            "active-fit", "--strategy", "yield_variance",
            "--spec", "nf_db<=1.5",
        ])
        assert args.strategy == "yield_variance"
        assert args.spec == ["nf_db<=1.5"]

    def test_yield_variance_requires_spec(self, capsys):
        assert main([
            "active-fit", "--strategy", "yield_variance",
            "--states", "3", "--rounds", "1",
        ]) == 2
        assert "--spec" in capsys.readouterr().err
