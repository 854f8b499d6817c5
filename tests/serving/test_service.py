"""Tests for the ModelService façade: end-to-end serving and hot swap."""

import threading
import time

import numpy as np
import pytest

from repro.core.frozen import FrozenModel
from repro.serving import ModelService, RegistryError


@pytest.fixture()
def service(registry, pushed):
    return ModelService(registry)


class TestLifecycle:
    def test_load_and_serve(self, service, served_modelset, lna_dataset):
        service.load("lna@latest")
        assert service.serving == ["lna"]
        x = np.random.default_rng(0).standard_normal(
            lna_dataset.n_variables
        )
        result = service.predict("lna", x, 3)
        assert result.values == served_modelset.predict_point(x, 3)

    def test_alias(self, service, lna_dataset):
        service.load("lna@v1", alias="lna-canary")
        assert service.serving == ["lna-canary"]
        x = np.zeros(lna_dataset.n_variables)
        assert service.predict("lna-canary", x, 0).version == 1

    def test_unknown_name(self, service):
        with pytest.raises(KeyError, match="not being served"):
            service.predict("ghost", np.zeros(3), 0)
        with pytest.raises(KeyError):
            service.unload("ghost")

    def test_unload(self, service):
        service.load("lna")
        service.unload("lna")
        assert service.serving == []

    def test_frozen_entry_without_basis_refused(self, registry):
        registry.push(
            "bare", FrozenModel(np.ones((2, 4)), metric="nf_db")
        )
        service = ModelService(registry)
        with pytest.raises(RegistryError, match="basis"):
            service.load("bare")

    def test_bulk_matches_direct(self, service, served_modelset, lna_dataset):
        service.load("lna")
        rng = np.random.default_rng(1)
        n = 200
        x = rng.standard_normal((n, lna_dataset.n_variables))
        states = rng.integers(0, served_modelset.n_states, n)
        results = service.predict_many("lna", x, states)
        for i in range(n):
            expected = served_modelset.predict_point(x[i], int(states[i]))
            assert results[i].values == expected
        assert service.metrics.snapshot()["requests"] == n


class TestHotSwap:
    def test_swap_changes_version(self, registry, pushed, served_modelset):
        registry.push("lna", served_modelset)
        service = ModelService(registry)
        service.load("lna@v1")
        assert service.served_model("lna").version == 1
        service.swap("lna@v2")
        assert service.served_model("lna").version == 2
        assert service.metrics.snapshot()["hot_swaps"] == 1

    def test_concurrent_swap_never_mixes_versions(
        self, registry, served_modelset, lna_dataset
    ):
        """Under a swap storm every answer is all-old or all-new."""
        # Two versions with deliberately different coefficients: v2's
        # predictions are exactly 1000 + v1's (offset every metric).
        registry.push("lna", served_modelset)
        shifted = {
            metric: FrozenModel(
                frozen.coef_,
                offsets=frozen.offsets_ + 1000.0,
                metric=metric,
            )
            for metric, frozen in served_modelset.freeze().items()
        }
        from repro.modelset import PerformanceModelSet

        registry.push(
            "lna", PerformanceModelSet(shifted, served_modelset.basis)
        )

        service = ModelService(registry)
        service.load("lna@v1")
        x = np.random.default_rng(2).standard_normal(
            lna_dataset.n_variables
        )
        baseline = {
            metric: value
            for metric, value in served_modelset.predict_point(x, 0).items()
        }

        mixed = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                result = service.predict("lna", x, 0)
                shifts = {
                    metric: result.values[metric] - baseline[metric]
                    for metric in baseline
                }
                all_old = all(
                    abs(shift) < 1e-6 for shift in shifts.values()
                )
                all_new = all(
                    abs(shift - 1000.0) < 1e-6
                    for shift in shifts.values()
                )
                if not (all_old or all_new):
                    mixed.append(shifts)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(15):
            service.swap("lna@v2")
            time.sleep(0.001)
            service.swap("lna@v1")
            time.sleep(0.001)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not mixed, f"mixed-version answers: {mixed[:3]}"
        assert service.metrics.snapshot()["hot_swaps"] == 30
