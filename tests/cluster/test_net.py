"""The TCP / Unix listener and client library in front of the gateway.

Acceptance: results over the wire are bit-identical to the in-process
API; concurrent clients are served correctly; a mid-frame client
disconnect or a corrupt/oversized length prefix is answered (where the
stream still permits) with a ``protocol`` error frame and a closed
connection — never a listener or gateway death; the full error
taxonomy crosses the wire as the same exception classes; and the
control plane (load / canary / routes / report) works remotely.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import numpy as np
import pytest

from repro.cluster import (
    AsyncClusterClient,
    ClusterClient,
    ClusterConfig,
    ClusterListener,
    ClusterService,
    ProtocolError,
    parse_address,
)
from repro.errors import ServingError
from repro.faults import FaultPlan
from repro.serving import ModelRegistry, ModelService, PredictionEngine

SPECS = ["nf_db<=1.6", "gain_db>=24"]


@pytest.fixture(scope="module")
def net_registry(tmp_path_factory, cluster_modelset) -> ModelRegistry:
    registry = ModelRegistry(tmp_path_factory.mktemp("net") / "registry")
    registry.push("lna", cluster_modelset)
    registry.push("lna", cluster_modelset)
    return registry


@pytest.fixture(scope="module")
def net_cluster(net_registry):
    service = ClusterService(
        net_registry,
        keys=["lna@v1"],
        config=ClusterConfig(n_shards=2),
    )
    with service:
        yield service


@pytest.fixture(scope="module")
def listener(net_cluster):
    with ClusterListener(net_cluster, "127.0.0.1:0") as ln:
        yield ln


@pytest.fixture()
def client(listener):
    with ClusterClient(listener.address) as c:
        yield c


@pytest.fixture()
def design(cluster_modelset):
    rng = np.random.default_rng(21)
    return rng.standard_normal((5, cluster_modelset.basis.n_variables))


class TestAddressParsing:
    def test_tcp(self):
        assert parse_address("127.0.0.1:9000") == (
            "tcp", ("127.0.0.1", 9000),
        )

    def test_ipv6_brackets(self):
        assert parse_address("[::1]:9000") == ("tcp", ("::1", 9000))

    def test_unix(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    @pytest.mark.parametrize(
        "bad",
        ["", "unix:", "nohost", ":9000", "host:notaport", "host:70000"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestPredictOverTcp:
    def test_bit_identical_to_direct(
        self, client, cluster_modelset, design
    ):
        states = [0, 1, 2, 0, 1]
        results = client.predict_many("lna", design, states)
        assert len(results) == len(states)
        for row, (result, state) in enumerate(zip(results, states)):
            direct = cluster_modelset.predict(design[row:row + 1], state)
            assert result.version == 1
            for metric, value in result.values.items():
                assert abs(value - float(direct[metric][0])) <= 1e-15

    def test_single_point(self, client, cluster_modelset, design):
        result = client.predict("lna", design[0], 2)
        direct = cluster_modelset.predict(design[:1], 2)
        for metric, value in result.values.items():
            assert abs(value - float(direct[metric][0])) <= 1e-15

    def test_empty_batch(self, client, cluster_modelset):
        x = np.empty((0, cluster_modelset.basis.n_variables))
        assert client.predict_many("lna", x, []) == []

    def test_matches_in_process_api(
        self, client, net_cluster, net_registry, design
    ):
        """One request, every layer, the same numbers: each answer is
        ``FrozenModel.predict`` on its state's stacked rows in request
        order — repeated rows included, within and across states."""
        x = design[[0, 1, 0, 2, 1, 0, 0, 3]]
        states = [2, 0, 2, 0, 2, 0, 1, 2]
        _, models, basis = net_registry.load_models("lna@v1")
        expected = {}
        for state in set(states):
            rows = [i for i, s in enumerate(states) if s == state]
            design_rows = basis.expand(x[rows])
            for metric, frozen in models.items():
                column = frozen.predict(design_rows, state)
                for row, value in zip(rows, column):
                    expected.setdefault(row, {})[metric] = value

        service = ModelService(net_registry)
        service.load("lna@v1")
        layers = {
            "engine": PredictionEngine().predict_many(
                service.served_model("lna"), x, states
            ),
            "service": service.predict_many("lna", x, states),
            "cluster": net_cluster.predict_many("lna", x, states),
            "tcp": client.predict_many("lna", x, states),
        }
        for layer, results in layers.items():
            assert [r.values for r in results] == [
                expected[row] for row in range(len(states))
            ], layer
            assert not any(r.cached for r in results), layer

    def test_concurrent_clients(
        self, listener, cluster_modelset, design
    ):
        errors, hits = [], []

        def hammer(state: int) -> None:
            try:
                with ClusterClient(listener.address) as c:
                    for _ in range(10):
                        results = c.predict_many(
                            "lna", design, [state] * len(design)
                        )
                        assert len(results) == len(design)
                        hits.append(state)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(s,)) for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(hits) == 40

    def test_ping(self, client):
        assert client.ping() is True


class TestAsyncClient:
    def test_round_trip(self, listener, cluster_modelset, design):
        async def run():
            async with await AsyncClusterClient.connect(
                listener.address
            ) as c:
                assert await c.ping() is True
                return await c.predict_many(
                    "lna", design, [1] * len(design)
                )

        results = asyncio.run(run())
        direct = cluster_modelset.predict(design, 1)
        for row, result in enumerate(results):
            for metric, value in result.values.items():
                assert abs(value - float(direct[metric][row])) <= 1e-15


class TestUnixSocket:
    def test_round_trip(self, net_cluster, tmp_path, design):
        path = tmp_path / "cluster.sock"
        with ClusterListener(net_cluster, f"unix:{path}") as ln:
            assert ln.address == f"unix:{path}"
            with ClusterClient(ln.address) as c:
                results = c.predict_many("lna", design, [0] * len(design))
                assert len(results) == len(design)


class TestErrorTaxonomy:
    def test_unknown_name_is_serving_error(self, client, design):
        with pytest.raises(ServingError, match="no model named"):
            client.predict_many("nope", design, [0] * len(design))

    def test_states_mismatch_is_value_error(self, client, design):
        with pytest.raises(ValueError, match="states"):
            client.predict_many("lna", design, [0])

    def test_bad_rows_are_value_errors(self, client, design):
        """Regression: non-finite or wrong-width rows crossed the wire as
        ``ServingError`` from the shard instead of being refused."""
        bad = design.copy()
        bad[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            client.predict_many("lna", bad, [0] * len(design))
        wide = np.hstack([design, design[:, :1]])
        with pytest.raises(ValueError, match="variables"):
            client.predict_many("lna", wide, [0] * len(design))
        assert len(client.predict_many("lna", design, [0] * 5)) == 5

    def test_nonpositive_deadline_is_value_error(self, client, design):
        with pytest.raises(ValueError, match="deadline"):
            client.predict_many(
                "lna", design, [0] * len(design), deadline_s=0.0
            )

    def test_unknown_kind_is_protocol_error_and_keeps_connection(
        self, client
    ):
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            client._roundtrip({"kind": "frobnicate"})
        assert client.ping() is True  # connection survived


class TestMalformedPeers:
    def _raw_connect(self, listener) -> socket.socket:
        host, port = parse_address(listener.address)[1]
        return socket.create_connection((host, port), timeout=10)

    def test_mid_frame_disconnect_leaves_gateway_serving(
        self, listener, design
    ):
        sock = self._raw_connect(listener)
        # Half a length prefix, then vanish mid-frame.
        sock.sendall(b"\x04\x00")
        sock.close()
        with ClusterClient(listener.address) as c:
            assert c.ping() is True

    def test_oversized_prefix_answered_with_protocol_frame(
        self, listener
    ):
        from repro.cluster.protocol import read_frame

        sock = self._raw_connect(listener)
        try:
            # Header length beyond MAX_FRAME_BYTES: must be answered
            # with a protocol error frame, then the connection closed.
            sock.sendall(struct.pack("<IQ", 1 << 31, 0))
            header, _ = read_frame(sock)
            assert header["kind"] == "error"
            assert header["etype"] == "protocol"
            with pytest.raises(EOFError):
                read_frame(sock)
        finally:
            sock.close()
        with ClusterClient(listener.address) as c:
            assert c.ping() is True

    def test_corrupt_header_bytes_answered_with_protocol_frame(
        self, listener
    ):
        from repro.cluster.protocol import read_frame

        sock = self._raw_connect(listener)
        try:
            garbage = b"\xff\x00garbage-not-json"
            sock.sendall(struct.pack("<IQ", len(garbage), 0))
            sock.sendall(garbage)
            header, _ = read_frame(sock)
            assert header["kind"] == "error"
            assert header["etype"] == "protocol"
        finally:
            sock.close()


class TestControlPlane:
    def test_routes(self, client):
        routes = client.describe_routes()
        assert routes["lna"]["stable"] == "lna@v1"
        assert isinstance(routes["lna"]["replicas"], list)

    def test_report(self, client):
        text = client.report()
        assert "CLUSTER REPORT" in text
        assert "lna@v1" in text

    def test_load_and_canary_cycle(self, client, net_cluster, design):
        try:
            assert client.load("lna@v2") == "lna@v2"
            result = client.predict("lna", design[0], 0)
            assert result.version == 2
            assert client.load("lna@v1") == "lna@v1"
            assert client.set_canary("lna", "lna@v2", 1.0) == "lna@v2"
            assert client.predict("lna", design[0], 0).version == 2
            client.clear_canary("lna")
            assert client.predict("lna", design[0], 0).version == 1
            client.set_canary("lna", "lna@v2", 0.5)
            assert client.promote("lna") == "lna@v2"
        finally:
            net_cluster.load("lna@v1")
            net_cluster.clear_canary("lna")

    def test_yield_report_matches_in_process(self, client, net_cluster):
        over_wire = client.yield_report(
            "lna", SPECS, n_samples=60, seed=7
        )
        in_process = net_cluster.yield_report(
            "lna", SPECS, n_samples=60, seed=7
        )
        assert over_wire["key"] == in_process["key"]
        assert over_wire["report"] == in_process["report"]


class TestNetFaults:
    def test_drop_closes_unanswered_and_recovers(
        self, net_cluster, design
    ):
        plan = FaultPlan.parse("net:drop@0")
        with ClusterListener(
            net_cluster, "127.0.0.1:0", faults=plan
        ) as ln:
            with ClusterClient(ln.address) as c:
                with pytest.raises((EOFError, ConnectionError, OSError)):
                    c.ping()
            with ClusterClient(ln.address) as c:
                assert c.ping() is True  # only frame 0 was dropped

    def test_slow_delays_but_answers(self, net_cluster, design):
        plan = FaultPlan.parse("net:slow@0:0.05")
        with ClusterListener(
            net_cluster, "127.0.0.1:0", faults=plan
        ) as ln:
            with ClusterClient(ln.address) as c:
                results = c.predict_many(
                    "lna", design, [0] * len(design)
                )
                assert len(results) == len(design)


class TestListenerLifecycle:
    def test_requires_started_service(self, net_registry):
        service = ClusterService(net_registry, keys=["lna@v1"])
        with pytest.raises(ServingError, match="not started"):
            ClusterListener(service).start()

    def test_double_start_refused(self, listener):
        with pytest.raises(ServingError, match="already started"):
            listener.start()

    def test_address_before_start(self, net_cluster):
        ln = ClusterListener(net_cluster)
        with pytest.raises(ServingError, match="not started"):
            _ = ln.address

    def test_bad_address_fails_fast(self, net_cluster):
        with pytest.raises(ValueError):
            ClusterListener(net_cluster, "not-an-address")

    def test_stop_is_idempotent(self, net_cluster):
        ln = ClusterListener(net_cluster, "127.0.0.1:0").start()
        ln.stop()
        ln.stop()
