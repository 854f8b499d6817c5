"""Shared-memory model store: export, verify, memmap, remap in a child."""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ModelStore, export_model_store
from repro.cluster.store import (
    STORE_MANIFEST_NAME,
    mapped_pss_bytes,
    process_pss_bytes,
)
from repro.errors import CheckpointError, ServingError


class TestExport:
    def test_creates_manifest_and_blocks(self, registry, store_dir):
        manifest = json.loads(
            (store_dir / STORE_MANIFEST_NAME).read_text()
        )
        assert list(manifest["entries"]) == ["lna@v1"]
        entry = manifest["entries"]["lna@v1"]
        assert entry["name"] == "lna"
        assert entry["version"] == 1
        for relpath, spec in entry["blocks"].items():
            path = store_dir / relpath
            assert path.exists()
            assert path.stat().st_size == spec["nbytes"]
            assert spec["dtype"] == "<f8"

    def test_records_one_coef_and_offsets_block_per_metric(
        self, registry, store_dir
    ):
        manifest = json.loads(
            (store_dir / STORE_MANIFEST_NAME).read_text()
        )
        entry = manifest["entries"]["lna@v1"]
        for metric in entry["metrics"]:
            assert f"lna@v1/{metric}.coef.bin" in entry["blocks"]
            assert f"lna@v1/{metric}.offsets.bin" in entry["blocks"]

    def test_idempotent_reexport(self, registry, store_dir):
        before = (store_dir / STORE_MANIFEST_NAME).read_text()
        export_model_store(registry, ["lna@v1"], store_dir)
        assert (store_dir / STORE_MANIFEST_NAME).read_text() == before

    def test_extends_with_new_key(self, registry, store_dir):
        export_model_store(registry, ["lna@v2"], store_dir)
        assert ModelStore.open(store_dir).keys() == ["lna@v1", "lna@v2"]


class TestOpen:
    def test_round_trip_bit_identical(
        self, registry, store_dir, cluster_modelset
    ):
        store = ModelStore.open(store_dir)
        entry, direct, _ = registry.load_models("lna@v1")
        mapped = store.frozen_models("lna@v1")
        assert sorted(mapped) == sorted(direct)
        rng = np.random.default_rng(0)
        design = rng.standard_normal(
            (7, next(iter(direct.values())).coef_.shape[1])
        )
        for metric, frozen in direct.items():
            for state in range(frozen.coef_.shape[0]):
                expected = frozen.predict(design, state)
                got = mapped[metric].predict(design, state)
                assert np.array_equal(got, expected)

    def test_served_model_matches_modelset(
        self, store_dir, cluster_modelset
    ):
        served = ModelStore.open(store_dir).served_model("lna@v1")
        x = np.random.default_rng(1).standard_normal(
            (5, served.basis.n_variables)
        )
        outputs = served.predict_design(served.basis.expand(x), 2)
        direct = cluster_modelset.predict(x, 2)
        for metric in served.metric_names:
            assert np.array_equal(outputs[metric], direct[metric])

    def test_blocks_are_readonly_memmaps(self, store_dir):
        store = ModelStore.open(store_dir)
        models = store.frozen_models("lna@v1")
        frozen = next(iter(models.values()))
        assert isinstance(frozen.coef_.base, np.memmap) or isinstance(
            frozen.coef_, np.memmap
        )
        with pytest.raises((ValueError, OSError)):
            frozen.coef_[0, 0] = 1.0

    def test_nbytes_and_touch(self, store_dir):
        store = ModelStore.open(store_dir)
        assert store.nbytes > 0
        store.touch()  # faults pages in without raising

    def test_unknown_key(self, store_dir):
        store = ModelStore.open(store_dir)
        with pytest.raises(KeyError, match="nope"):
            store.frozen_models("nope@v1")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            ModelStore.open(tmp_path / "empty")


class TestCorruption:
    def _first_block(self, store_dir) -> Path:
        manifest = json.loads(
            (store_dir / STORE_MANIFEST_NAME).read_text()
        )
        relpath = sorted(manifest["entries"]["lna@v1"]["blocks"])[0]
        return store_dir / relpath

    def test_corrupted_block_names_the_file(self, store_dir):
        path = self._first_block(store_dir)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum mismatch") as info:
            ModelStore.open(store_dir)
        assert info.value.path == str(path)
        assert path.name in str(info.value)

    def test_truncated_block(self, store_dir):
        path = self._first_block(store_dir)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated") as info:
            ModelStore.open(store_dir)
        assert info.value.path == str(path)

    def test_missing_block(self, store_dir):
        path = self._first_block(store_dir)
        path.unlink()
        with pytest.raises(CheckpointError, match="missing") as info:
            ModelStore.open(store_dir)
        assert info.value.path == str(path)

    def test_verify_false_skips_checksums(self, store_dir):
        path = self._first_block(store_dir)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        ModelStore.open(store_dir, verify=False)  # no raise


class TestServedModelRequirements:
    def test_frozen_entry_without_basis_refuses_serving(
        self, registry, cluster_modelset, tmp_path
    ):
        frozen = next(iter(cluster_modelset.freeze().values()))
        registry.push("bare", frozen)
        directory = tmp_path / "bare_store"
        export_model_store(registry, ["bare@v1"], directory)
        store = ModelStore.open(directory)
        assert store.frozen_models("bare@v1")  # raw blocks still usable
        with pytest.raises(ServingError, match="basis"):
            store.served_model("bare@v1")


class TestPss:
    def test_process_pss_reads_kernel_counter(self):
        value = process_pss_bytes()
        if value is None:
            pytest.skip("smaps_rollup unsupported on this kernel")
        assert value > 0

    def test_mapped_pss_counts_only_store_pages(self, store_dir, tmp_path):
        store = ModelStore.open(store_dir)
        assert mapped_pss_bytes(tmp_path / "elsewhere") == 0
        store.touch()
        value = mapped_pss_bytes(store_dir)
        if value is None:
            pytest.skip("smaps unsupported on this kernel")
        # Sole mapper: charged the full store, within per-block page
        # rounding (every block mapping rounds up to 4 KiB pages).
        n_blocks = sum(
            len(entry["blocks"])
            for entry in store.manifest["entries"].values()
        )
        assert store.nbytes * 0.9 <= value
        assert value <= store.nbytes + (n_blocks + 1) * 2 * 4096


_CHILD_SCRIPT = """
import sys
import numpy as np
from repro.cluster import ModelStore

store_dir, key, x_path, out_path = sys.argv[1:5]
store = ModelStore.open(store_dir)
x = np.load(x_path)
served = store.served_model(key)
design = served.basis.expand(x)
result = {}
for state in range(served.n_states):
    values = served.predict_design(design, state)
    for metric, column in values.items():
        result[f"{metric}@{state}"] = column
np.savez(out_path, **result)
"""


class TestFreshProcessRemap:
    def test_spawned_process_predictions_bit_identical(
        self, registry, store_dir, cluster_modelset, tmp_path
    ):
        """A fresh interpreter remapping the store answers identically."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, cluster_modelset.basis.n_variables))
        x_path = tmp_path / "x.npy"
        out_path = tmp_path / "child_out.npz"
        np.save(x_path, x)
        script = tmp_path / "child.py"
        script.write_text(_CHILD_SCRIPT)
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run(
            [
                sys.executable, str(script), str(store_dir), "lna@v1",
                str(x_path), str(out_path),
            ],
            check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        with np.load(out_path) as child:
            for state in range(cluster_modelset.n_states):
                direct = cluster_modelset.predict(x, state)
                for metric, expected in direct.items():
                    got = child[f"{metric}@{state}"]
                    assert np.array_equal(got, expected), (
                        metric, state
                    )


class TestKronFittedModels:
    def test_kron_fitted_modelset_round_trips(self, tmp_path, monkeypatch):
        """Frozen models produced by the Kronecker fit path survive the
        registry push -> store export -> memmap reload chain with
        bit-identical predictions (serving is solver-agnostic)."""
        from repro.circuits.sweep import SweptLNA
        from repro.modelset import PerformanceModelSet
        from repro.serving import ModelRegistry
        from repro.simulate.montecarlo import MonteCarloEngine

        monkeypatch.setenv("REPRO_POSTERIOR_SOLVER", "kron")
        sweep = SweptLNA(n_points=6)
        train = MonteCarloEngine(sweep, seed=3).run(5)
        models = PerformanceModelSet.fit_dataset(
            train, method="cbmf", metrics=("s21_db",), seed=3
        )
        assert models.model("s21_db").predictor.solver == "kron"
        monkeypatch.delenv("REPRO_POSTERIOR_SOLVER")

        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.push("lna_sweep", models)
        directory = tmp_path / "store"
        export_model_store(registry, [entry.key], directory)

        mapped = ModelStore.open(directory).frozen_models(entry.key)
        frozen = models.freeze()["s21_db"]
        rng = np.random.default_rng(8)
        design = rng.standard_normal((4, frozen.coef_.shape[1]))
        for state in (0, 3, 5):
            expected = frozen.predict(design, state)
            got = mapped["s21_db"].predict(design, state)
            assert np.array_equal(got, expected)
