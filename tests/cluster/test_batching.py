"""A row's answer does not depend on which rows share its call.

Every serving layer — the engine, ``ModelService``, ``ClusterService``
and ``ClusterClient`` over TCP — must answer each ``(x, state)`` row
with exactly (``==``) ``FrozenModel.predict`` of that row alone: when
the row is sent alone, inside a mixed-state request, next to other rows
of its own state, and when the gateway coalesces its request with
concurrent ones into one shard frame. The model is wide (M = 500
coefficients, nonzero offsets) because that is where a GEMV over a
state group and a one-row dot product round differently, and the
mixed request is long enough (300 rows) to span several of the
kernel's gathered blocks.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.basis.polynomial import LinearBasis
from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterListener,
    ClusterService,
)
from repro.cluster.net import _encode_predict
from repro.cluster.protocol import decode_results, read_frame, send_frame
from repro.core.frozen import FrozenModel
from repro.modelset import PerformanceModelSet
from repro.serving import ModelRegistry, ModelService, PredictionEngine

N_VARIABLES = 499
N_STATES = 6
N_ROWS = 300


@pytest.fixture(scope="module")
def wide_models() -> PerformanceModelSet:
    rng = np.random.default_rng(2016)
    basis = LinearBasis(N_VARIABLES)
    models = {
        metric: FrozenModel(
            rng.standard_normal((N_STATES, basis.n_basis)),
            offsets=rng.standard_normal(N_STATES),
            metric=metric,
        )
        for metric in ("gain_db", "nf_db")
    }
    return PerformanceModelSet(models, basis)


@pytest.fixture(scope="module")
def wide_registry(tmp_path_factory, wide_models) -> ModelRegistry:
    registry = ModelRegistry(tmp_path_factory.mktemp("wide") / "registry")
    registry.push("wide", wide_models)
    return registry


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((N_ROWS, N_VARIABLES))
    return x, rng.integers(0, N_STATES, N_ROWS)


@pytest.fixture(scope="module")
def expected(wide_registry, rows):
    """``FrozenModel.predict`` of each row alone, per row."""
    _, models, basis = wide_registry.load_models("wide@v1")
    x, states = rows
    return [
        {
            metric: float(
                frozen.predict(basis.expand(x[i:i + 1]), int(state))[0]
            )
            for metric, frozen in models.items()
        }
        for i, state in enumerate(states)
    ]


@pytest.fixture(scope="module")
def cluster(wide_registry):
    service = ClusterService(
        wide_registry, keys=["wide@v1"], config=ClusterConfig(n_shards=1)
    )
    with service:
        yield service


@pytest.fixture(scope="module")
def listener(cluster):
    with ClusterListener(cluster, "127.0.0.1:0") as ln:
        yield ln


@pytest.fixture(scope="module")
def layers(wide_registry, cluster, listener):
    """``predict_many(x, states)`` of each serving layer."""
    service = ModelService(wide_registry)
    served = service.load("wide@v1")
    engine = PredictionEngine()
    client = ClusterClient(listener.address)
    yield {
        "engine": lambda x, s: engine.predict_many(served, x, s),
        "service": lambda x, s: service.predict_many("wide", x, s),
        "cluster": lambda x, s: cluster.predict_many("wide", x, s),
        "tcp": lambda x, s: client.predict_many("wide", x, s),
    }
    client.close()


def _groupings(states):
    """Each case's request lists, as lists of row indices."""
    return {
        "alone": [[i] for i in range(len(states))],
        "mixed": [list(range(len(states)))],
        "own-state": [
            np.flatnonzero(states == state).tolist()
            for state in range(N_STATES)
        ],
    }


def _engine_counts(cluster):
    (shard,) = cluster.shard_engine_snapshots()
    return shard["engine"]["batches"], shard["engine"]["batched_rows"]


@pytest.mark.parametrize("case", ["alone", "mixed", "own-state"])
@pytest.mark.parametrize("layer", ["engine", "service", "cluster", "tcp"])
def test_answer_is_the_row_alone(layers, rows, expected, layer, case):
    x, states = rows
    predict = layers[layer]
    for request in _groupings(states)[case]:
        results = predict(x[request], states[request])
        assert [r.values for r in results] == [expected[i] for i in request]


def _coalesced(states, n_mixed):
    """Three concurrent requests for one shard frame: the first
    ``n_mixed`` rows (mixed states), the rows of state 3 among the next
    ``n_mixed``, and one row alone."""
    later = np.arange(n_mixed, 2 * n_mixed)
    return [
        list(range(n_mixed)),
        later[states[later] == 3].tolist(),
        [2 * n_mixed],
    ]


def test_coalesced_in_process(cluster, rows, expected):
    x, states = rows
    requests = _coalesced(states, 140)  # one frame over several blocks
    batches, batched = _engine_counts(cluster)

    async def together():
        # Queued back to back on the gateway loop: the shard's sender
        # finds all three in its queue and joins them.
        return await asyncio.gather(*(
            cluster._predict_async("wide", x[r], states[r], 30.0)
            for r in requests
        ))

    replies = cluster._run(together())
    for request, reply in zip(requests, replies):
        results = decode_results(*reply)
        assert [r.values for r in results] == [expected[i] for i in request]
    n_rows = sum(map(len, requests))
    assert _engine_counts(cluster) == (batches + 1, batched + n_rows)


def test_coalesced_over_tcp(cluster, listener, rows, expected):
    """Three TCP connections' frames reach the gateway in one loop
    iteration (the loop is held while they are sent) and leave it as
    one shard frame. The frames are small (at most 12 rows, 48 KB), so
    each lies whole in its socket's receive buffer before the loop
    runs again."""
    x, states = rows
    requests = _coalesced(states, 12)
    clients = [ClusterClient(listener.address) for _ in requests]
    held, release = threading.Event(), threading.Event()

    def hold():
        held.set()
        release.wait(30.0)

    try:
        for client in clients:
            assert client.ping()
        batches, batched = _engine_counts(cluster)
        cluster._loop.call_soon_threadsafe(hold)
        assert held.wait(30.0)
        for client, request in zip(clients, requests):
            header, arrays = _encode_predict(
                "wide", x[request], states[request], 30.0
            )
            send_frame(client._sock, dict(header, id=1), arrays)
        release.set()
        replies = [read_frame(client._sock) for client in clients]
    finally:
        release.set()
        for client in clients:
            client.close()
    for request, reply in zip(requests, replies):
        results = decode_results(*reply)
        assert [r.values for r in results] == [expected[i] for i in request]
    n_rows = sum(map(len, requests))
    assert _engine_counts(cluster) == (batches + 1, batched + n_rows)
