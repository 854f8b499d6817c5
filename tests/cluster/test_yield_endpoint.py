"""The cluster ``yield`` endpoint: shard-computed fleet yield reports.

Acceptance: the shard's answer is bit-equal to the in-process
computation on the same frozen artifacts (the per-state streams are
deterministic), the learned correlation survives the store round-trip
so shrinkage runs *inside* the shard, and the reply carries the
tracemalloc peak that proves no MK × MK covariance was densified.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.yield_estimation import Specification
from repro.basis.polynomial import LinearBasis
from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterListener,
    ClusterService,
)
from repro.core.cbmf import CBMF
from repro.core.em import EmConfig
from repro.core.somp_init import InitConfig
from repro.errors import ServingError
from repro.modelset import PerformanceModelSet
from repro.serving import ModelRegistry
from repro.yields import compute_yield_report

SPECS = ["nf_db<=1.6", "gain_db>=24"]


@pytest.fixture(scope="module")
def corr_modelset(lna_dataset) -> PerformanceModelSet:
    """A fast C-BMF fit of one metric — carries the learned K×K R."""
    train, _ = lna_dataset.split(25)
    basis = LinearBasis(train.n_variables)
    model = CBMF(
        init_config=InitConfig(
            r0_grid=(0.9,), sigma0_grid=(0.15,), n_basis_grid=(10,),
            n_folds=2,
        ),
        em_config=EmConfig(max_iterations=5),
        seed=0,
    ).fit(basis.expand_states(train.inputs()), train.targets("nf_db"))
    return PerformanceModelSet({"nf_db": model}, basis)


@pytest.fixture(scope="module")
def yield_registry(
    tmp_path_factory, cluster_modelset, corr_modelset
) -> ModelRegistry:
    registry = ModelRegistry(
        tmp_path_factory.mktemp("yield") / "registry"
    )
    registry.push("lna", cluster_modelset)
    registry.push("corr", corr_modelset)
    return registry


@pytest.fixture(scope="module")
def cluster(yield_registry):
    service = ClusterService(
        yield_registry,
        keys=["lna@v1", "corr@v1"],
        config=ClusterConfig(n_shards=2),
    )
    with service:
        yield service


class TestHappyPath:
    def test_reply_structure(self, cluster, cluster_modelset):
        reply = cluster.yield_report("lna", SPECS, n_samples=100, seed=3)
        assert reply["version"] == 1
        assert reply["peak_bytes"] > 0
        report = reply["report"]
        assert report["n_states"] == cluster_modelset.n_states
        assert report["n_samples"] == 100
        yields = np.asarray(report["yield_shrunk"])
        assert np.all((0.0 <= yields) & (yields <= 1.0))
        assert np.all(
            np.asarray(report["yield_ci_lower"])
            <= np.asarray(report["yield_ci_upper"])
        )

    def test_shard_answer_matches_in_process(self, cluster, corr_modelset):
        """Deterministic per-state streams: the shard's report equals
        the same computation on the locally-frozen artifacts."""
        reply = cluster.yield_report(
            "corr", ["nf_db<=1.5"], n_samples=200, seed=9
        )
        local = compute_yield_report(
            corr_modelset.freeze(),
            corr_modelset.basis,
            [Specification.parse("nf_db<=1.5")],
            n_samples=200,
            seed=9,
        )
        report = reply["report"]
        assert np.allclose(
            report["yield_raw"], local.yield_raw, rtol=0, atol=1e-12
        )
        assert np.allclose(
            report["yield_shrunk"], local.yield_shrunk,
            rtol=0, atol=1e-12,
        )
        assert report["fleet_yield"] == pytest.approx(
            local.fleet_yield, abs=1e-12
        )

    def test_correlation_survives_store_roundtrip(self, cluster):
        """The C-BMF model's learned R reaches the shard, so shrinkage
        runs correlation-shared inside the cluster."""
        reply = cluster.yield_report(
            "corr", ["nf_db<=1.5"], n_samples=100, seed=1
        )
        assert reply["report"]["correlation_shared"] is True
        assert np.isfinite(reply["report"]["tau2"])

    def test_somp_model_falls_back_to_independent(self, cluster):
        reply = cluster.yield_report("lna", SPECS, n_samples=100, seed=1)
        assert reply["report"]["correlation_shared"] is False

    def test_spec_forms_equivalent(self, cluster):
        from_text = cluster.yield_report(
            "lna", ["nf_db<=1.6"], n_samples=100, seed=2
        )
        from_objects = cluster.yield_report(
            "lna", [Specification("nf_db", 1.6, "max")],
            n_samples=100, seed=2,
        )
        from_dicts = cluster.yield_report(
            "lna", [{"metric": "nf_db", "bound": 1.6, "kind": "max"}],
            n_samples=100, seed=2,
        )
        assert (
            from_text["report"]["yield_shrunk"]
            == from_objects["report"]["yield_shrunk"]
            == from_dicts["report"]["yield_shrunk"]
        )

    def test_states_subset(self, cluster, cluster_modelset):
        full = cluster.yield_report("lna", SPECS, n_samples=100, seed=4)
        subset = cluster.yield_report(
            "lna", SPECS, n_samples=100, seed=4, states=[1, 3]
        )
        report = subset["report"]
        assert report["states"] == [1, 3]
        assert len(report["yield_shrunk"]) == 2
        # Shrinkage used the full fleet; the subset is a client-side view.
        assert report["yield_shrunk"][0] == (
            full["report"]["yield_shrunk"][1]
        )
        assert report["yield_shrunk"][1] == (
            full["report"]["yield_shrunk"][3]
        )


@pytest.fixture(scope="module")
def listener(cluster):
    with ClusterListener(cluster, "127.0.0.1:0") as ln:
        yield ln


@pytest.fixture(params=["in-process", "client"])
def caller(request, cluster, listener):
    """The same ``yield_report`` call in process and over TCP."""
    if request.param == "in-process":
        yield cluster
        return
    with ClusterClient(listener.address) as client:
        yield client


class TestValidation:
    def test_negative_state_rejected(self, caller):
        """Regression: ``-1`` indexed from the end and came back as the
        last state's yield, labelled ``-1``."""
        with pytest.raises(ValueError, match="state -1 out of range"):
            caller.yield_report("lna", SPECS, n_samples=50, states=[-1])

    def test_state_past_last_rejected(self, caller, cluster_modelset):
        """Regression: raised a bare ``IndexError``, and only after the
        shard had computed the full report."""
        k = cluster_modelset.n_states
        with pytest.raises(ValueError, match=f"state {k} out of range"):
            caller.yield_report("lna", SPECS, n_samples=50, states=[1, k])

    @pytest.mark.parametrize(
        "spec",
        [
            {"metric": "nf_db", "bound": float("nan"), "kind": "max"},
            {"metric": "nf_db", "bound": 1.6, "kind": "between"},
        ],
        ids=["nan-bound", "bad-kind"],
    )
    def test_bad_dict_spec_rejected(self, caller, spec):
        """Regression: dict specs skipped ``Specification`` and reached
        the shard, coming back as ``ServingError``."""
        with pytest.raises(ValueError, match="finite|kind"):
            caller.yield_report("lna", [spec], n_samples=50)

    def test_empty_specs_rejected(self, cluster):
        with pytest.raises(ValueError, match="at least one"):
            cluster.yield_report("lna", [])

    def test_bad_deadline_rejected(self, cluster):
        with pytest.raises(ValueError, match="deadline"):
            cluster.yield_report("lna", SPECS, deadline_s=0.0)

    def test_unknown_name_rejected(self, cluster):
        with pytest.raises(ServingError, match="no model named"):
            cluster.yield_report("nope", SPECS)

    def test_unknown_metric_is_a_serving_error(self, cluster):
        """The shard answers with a structured error instead of dying."""
        with pytest.raises(ServingError, match="zzz"):
            cluster.yield_report("lna", ["zzz<=1.0"], n_samples=50)
        # The shard survived: the next request succeeds.
        reply = cluster.yield_report("lna", SPECS, n_samples=50, seed=0)
        assert reply["version"] == 1
