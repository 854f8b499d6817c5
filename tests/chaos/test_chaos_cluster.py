"""Chaos tests for the serving cluster: kills, hangs, sheds, canaries.

Acceptance: a killed shard is respawned and serving resumes; requests
caught by a crash fail with the structured error taxonomy (never a
silent drop, never a hang past the deadline); a hung shard burns its
deadline and the expiry is counted; admission control sheds loudly; and
canary weights 0 / 1 route exactly even while chaos is configured.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.errors import (
    DeadlineError,
    ServingError,
    ShardCrashError,
    ShedError,
)
from repro.faults import FaultPlan
from repro.modelset import PerformanceModelSet
from repro.serving import ModelRegistry

_TAXONOMY = (ShedError, DeadlineError, ShardCrashError)


@pytest.fixture(scope="module")
def modelset(lna_dataset) -> PerformanceModelSet:
    train, _ = lna_dataset.split(25)
    return PerformanceModelSet.fit_dataset(train, method="somp", seed=0)


@pytest.fixture()
def registry(tmp_path, modelset) -> ModelRegistry:
    registry = ModelRegistry(tmp_path / "registry")
    registry.push("lna", modelset)
    registry.push("lna", modelset)
    return registry


def _x(modelset, rows=2):
    rng = np.random.default_rng(5)
    return rng.standard_normal((rows, modelset.basis.n_variables))


def _wait_pending(cluster, n, queued=0, timeout=10.0):
    """Block until shard 0 holds ``n`` requests awaiting replies, at
    least ``queued`` of them still in the gateway's send queue."""
    handle = cluster._shards[0]
    deadline = time.monotonic() + timeout
    while len(handle.pending) < n or handle.queue.qsize() < queued:
        assert time.monotonic() < deadline, "requests never pended"
        time.sleep(0.01)


class TestKillRespawn:
    def test_killed_shard_respawns_and_serving_resumes(
        self, registry, modelset
    ):
        """Acceptance: shard:kill@owner → respawn, recovery, taxonomy-only
        failures, every call bounded by its deadline."""
        deadline = 10.0
        config = ClusterConfig(n_shards=2, default_deadline_s=deadline)
        x = _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", x, [0, 1])  # warm path
            owner = cluster.describe_routes()["lna"]["shard"]
            applied = cluster.inject_faults(
                FaultPlan.parse(f"shard:kill@{owner}")
            )
            assert applied == {owner: "kill"}

            recovered = False
            failures = []
            for _ in range(30):
                started = time.monotonic()
                try:
                    results = cluster.predict_many("lna", x, [0, 1])
                except ServingError as error:
                    failures.append(error)
                else:
                    recovered = True
                    direct = modelset.predict(x[:1], 0)
                    for metric, value in results[0].values.items():
                        assert abs(value - float(direct[metric][0])) <= 1e-15
                    break
                finally:
                    # Never hangs past the deadline (+ scheduling slack).
                    assert time.monotonic() - started < deadline + 2.0

            assert recovered, f"never recovered; failures: {failures}"
            assert cluster.metrics.total_respawns >= 1
            # Every failure is a structured taxonomy error, not a silent
            # drop or a bare exception.
            assert all(isinstance(f, _TAXONOMY) for f in failures)
            snapshot = cluster.metrics.snapshot()
            assert snapshot["shards"][owner]["respawns"] >= 1

    def test_in_flight_requests_fail_with_crash_error(
        self, registry, modelset
    ):
        """Deterministic crash-with-requests-in-flight: hang the shard so
        a predict and a yield report pend, then hard-kill the process."""
        config = ClusterConfig(
            n_shards=1, default_deadline_s=10.0, max_respawns=0
        )
        x = _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", x, [0, 0])
            cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
            calls = {
                "predict": lambda: cluster.predict_many("lna", x, [0, 0]),
                "yield": lambda: cluster.yield_report(
                    "lna", ["nf_db<=1.6"], n_samples=20
                ),
            }
            caught, elapsed = {}, {}

            def pending_call(name):
                started = time.monotonic()
                try:
                    calls[name]()
                except ServingError as error:
                    caught[name] = error
                elapsed[name] = time.monotonic() - started

            workers = [
                threading.Thread(target=pending_call, args=(name,))
                for name in calls
            ]
            for worker in workers:
                worker.start()
            _wait_pending(cluster, 2)
            cluster._shards[0].process.kill()
            for worker in workers:
                worker.join(timeout=5.0)
                assert not worker.is_alive()
            for name in calls:
                assert isinstance(caught[name], ShardCrashError)
                # Failed promptly on the crash, not by burning the deadline.
                assert elapsed[name] < 5.0
            # Two predicted rows plus one yield report, on both lanes.
            snapshot = cluster.metrics.snapshot()
            assert snapshot["shards"][0]["crash_failures"] == 3
            assert snapshot["versions"]["lna@v1"]["crash_failures"] == 3
            # Respawn budget 0: the shard stays down and later requests
            # fail fast with the same taxonomy error.
            with pytest.raises(ShardCrashError, match="respawn budget"):
                cluster.predict_many("lna", x, [0, 0])

    def test_control_frame_in_flight_counts_nothing(
        self, registry, modelset
    ):
        """A report() whose metrics fetch dies with the shard charges no
        crash failure and adds no version lane."""
        config = ClusterConfig(
            n_shards=1, default_deadline_s=10.0, max_respawns=0
        )
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", _x(modelset), [0, 0])
            cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
            reports = []
            worker = threading.Thread(
                target=lambda: reports.append(cluster.report())
            )
            worker.start()
            _wait_pending(cluster, 1)
            cluster._shards[0].process.kill()
            worker.join(timeout=5.0)
            assert not worker.is_alive()
            snapshot = cluster.metrics.snapshot()
            assert list(snapshot["versions"]) == ["lna@v1"]
            assert snapshot["shards"][0]["crash_failures"] == 0
            table = reports[0].split("VERSION")[1].split("\n\n")[0]
            rows = table.splitlines()[1:]
            assert [row.split()[0] for row in rows] == ["lna@v1"]

    def test_queued_request_counted_once(self, registry, modelset):
        """A request still in the gateway's send queue when the shard
        dies is one crash failure per row, not two."""
        config = ClusterConfig(
            n_shards=1, default_deadline_s=10.0, max_respawns=0
        )
        # Large enough to fill the socket to the hung shard, so the
        # sender blocks and the next request stays queued.
        big, small = _x(modelset, rows=3000), _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", small, [0, 0])
            cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
            errors = []

            def pending_call(x):
                try:
                    cluster.predict_many("lna", x, [0] * len(x))
                except ServingError as error:
                    errors.append(error)

            workers = []
            for x, pending in ((big, 1), (small, 2)):
                workers.append(
                    threading.Thread(target=pending_call, args=(x,))
                )
                workers[-1].start()
                _wait_pending(cluster, pending, queued=pending - 1)
            cluster._shards[0].process.kill()
            for worker in workers:
                worker.join(timeout=5.0)
                assert not worker.is_alive()
            assert len(errors) == 2
            assert all(isinstance(e, ShardCrashError) for e in errors)
            snapshot = cluster.metrics.snapshot()
            assert snapshot["shards"][0]["crash_failures"] == 3002
            assert snapshot["versions"]["lna@v1"]["crash_failures"] == 3002


    def test_stop_during_respawn_reaps_the_new_worker(
        self, registry, modelset
    ):
        """stop() while a killed shard's replacement is still starting
        leaves no worker process behind."""
        config = ClusterConfig(n_shards=1, default_deadline_s=10.0)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", _x(modelset), [0, 0])
            cluster._shards[0].process.kill()
            deadline = time.monotonic() + 10.0
            while cluster.metrics.total_respawns < 1:
                assert time.monotonic() < deadline, "never respawned"
                time.sleep(0.01)
        alive = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-") and p.is_alive()
        ]
        assert alive == []


class TestHangDeadline:
    def test_hung_shard_expires_deadline_and_counts_it(
        self, registry, modelset
    ):
        config = ClusterConfig(n_shards=1, default_deadline_s=30.0)
        x = _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", x, [0, 0])
            cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
            started = time.monotonic()
            with pytest.raises(DeadlineError):
                cluster.predict_many("lna", x, [0, 0], deadline_s=0.5)
            assert time.monotonic() - started < 3.0
            assert cluster.metrics.total_deadline_expired >= 1
            snapshot = cluster.metrics.snapshot()
            assert snapshot["versions"]["lna@v1"]["deadline_expired"] >= 1


class TestAdmissionControl:
    def test_full_queue_sheds_loudly(self, registry, modelset):
        config = ClusterConfig(
            n_shards=1, max_queue_rows=8, default_deadline_s=30.0
        )
        x = _x(modelset, rows=8)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", _x(modelset), [0, 0])
            cluster.inject_faults(FaultPlan.parse("shard:hang@0"))

            def pending_call():
                with pytest.raises(DeadlineError):
                    cluster.predict_many(
                        "lna", x, [0] * 8, deadline_s=2.0
                    )

            worker = threading.Thread(target=pending_call)
            worker.start()
            time.sleep(0.5)  # 8 rows now in flight on the hung shard
            with pytest.raises(ShedError, match="shed"):
                cluster.predict_many("lna", x, [0] * 8)
            assert cluster.metrics.total_shed >= 8
            snapshot = cluster.metrics.snapshot()
            assert snapshot["shards"][0]["shed"] >= 8
            worker.join(timeout=10.0)
            assert not worker.is_alive()


class TestReplicaFailover:
    """R=2 replication: a killed or hung primary must not lose requests.

    Acceptance (ISSUE 10): with 4 shards and replication 2, killing the
    primary mid-hammer loses zero requests — every one is answered by a
    replica with results bit-identical to the healthy run — and
    post-respawn throughput recovers.
    """

    def test_kill_primary_mid_hammer_loses_zero_requests(
        self, registry, modelset
    ):
        config = ClusterConfig(
            n_shards=4, replication=2, default_deadline_s=15.0
        )
        x = _x(modelset, rows=3)
        states = [0, 1, 2]
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            healthy = cluster.predict_many("lna", x, states)
            replicas = cluster.describe_routes()["lna"]["replicas"]
            assert len(replicas) == 2
            primary = replicas[0]

            answers = []
            for i in range(40):
                if i == 5:
                    applied = cluster.inject_faults(
                        FaultPlan.parse(f"shard:kill@{primary}")
                    )
                    assert applied == {primary: "kill"}
                # Zero ShardCrashError (or any other) escapes: the
                # failover path must absorb the primary's death.
                answers.append(cluster.predict_many("lna", x, states))

            for results in answers:
                for row, result in enumerate(results):
                    assert result.values == healthy[row].values
            assert cluster.metrics.total_failovers >= 1
            snapshot = cluster.metrics.snapshot()
            assert snapshot["versions"]["lna@v1"]["failovers"] >= 1

            # Post-respawn recovery: the primary comes back and the
            # fleet serves normally again.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cluster._shards[primary].alive:
                    break
                time.sleep(0.1)
            assert cluster._shards[primary].alive
            assert cluster.metrics.total_respawns >= 1
            recovered = cluster.predict_many("lna", x, states)
            for row, result in enumerate(recovered):
                assert result.values == healthy[row].values

    def test_hung_primary_fails_over_within_budget(
        self, registry, modelset
    ):
        """A hung (not dead) primary burns only its per-attempt slice;
        the replica answers inside the overall deadline."""
        config = ClusterConfig(
            n_shards=2, replication=2, default_deadline_s=30.0
        )
        x = _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            healthy = cluster.predict_many("lna", x, [0, 1])
            primary = cluster.describe_routes()["lna"]["replicas"][0]
            cluster.inject_faults(FaultPlan.parse(f"shard:hang@{primary}"))
            started = time.monotonic()
            results = cluster.predict_many(
                "lna", x, [0, 1], deadline_s=6.0
            )
            elapsed = time.monotonic() - started
            assert elapsed < 6.0
            for row, result in enumerate(results):
                assert result.values == healthy[row].values
            assert cluster.metrics.total_failovers >= 1
            # The abandoned attempt is still counted as an expiry on
            # the hung primary's lane.
            snapshot = cluster.metrics.snapshot()
            assert snapshot["shards"][primary]["deadline_expired"] >= 1

    def test_yield_fails_over_to_replica(self, registry, modelset):
        config = ClusterConfig(
            n_shards=2, replication=2, default_deadline_s=20.0
        )
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            healthy = cluster.yield_report(
                "lna", ["nf_db<=1.6"], n_samples=50, seed=5
            )
            primary = cluster.describe_routes()["lna"]["replicas"][0]
            cluster.inject_faults(
                FaultPlan.parse(f"shard:kill@{primary}")
            )
            over_failover = cluster.yield_report(
                "lna", ["nf_db<=1.6"], n_samples=50, seed=5
            )
            assert over_failover["report"] == healthy["report"]

    def test_every_replica_dead_forever_raises_crash(
        self, registry, modelset
    ):
        config = ClusterConfig(
            n_shards=2,
            replication=2,
            default_deadline_s=10.0,
            max_respawns=0,
        )
        x = _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.predict_many("lna", x, [0, 0])
            cluster.inject_faults(
                FaultPlan.parse("shard:kill@0;shard:kill@1")
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not all(
                h.dead_forever for h in cluster._shards
            ):
                time.sleep(0.1)
            with pytest.raises(ShardCrashError, match="every replica"):
                cluster.predict_many("lna", x, [0, 0])


class TestCanaryEdgeWeights:
    def test_weights_zero_and_one_route_exactly(self, registry, modelset):
        """20 calls at weight 0 all hit stable; 20 at weight 1 all hit
        the canary — the fractional accumulator has exact edges."""
        config = ClusterConfig(n_shards=1)
        x = _x(modelset)
        with ClusterService(registry, ["lna@v1"], config) as cluster:
            cluster.set_canary("lna", "lna@v2", 0.0)
            versions = [
                cluster.predict("lna", x[0], 0).version for _ in range(20)
            ]
            assert versions == [1] * 20
            cluster.set_canary("lna", "lna@v2", 1.0)
            versions = [
                cluster.predict("lna", x[0], 0).version for _ in range(20)
            ]
            assert versions == [2] * 20
