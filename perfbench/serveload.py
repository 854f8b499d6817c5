"""Serve workloads: ``serve_mc`` (closed loop, hot swaps) and
``serve_tune`` (open loop, one die over every state), with the peel.

The cluster runs in ``server.py``'s process tree; this process only
generates traffic over TCP, so the generator never shares an
interpreter lock with the gateway loop. Every request's rows come from
a generator seeded with ``(seed, stream, connection, index)``, so the
answer checks regenerate them after the timed phase instead of holding
every request in memory.
"""

from __future__ import annotations

import json
import os
import queue
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    ROOT,
    SETUP_REPEATS,
    TRACE_DIR,
    Outcome,
    cpu_seconds,
    median,
    peak_rss_mb,
    per_call_s,
    percentile,
    process_tree,
)

HERE = Path(__file__).resolve().parent
#: Longest wait for the cluster host to answer one command.
SERVER_TIMEOUT_S = 120.0
N_CONNECTIONS = 2
#: Replies must match FrozenModel.predict to this relative tolerance
#: (floored at one unit of the metric so values near zero stay sane).
RTOL = 1e-12
#: Requests sent before the timed window (verified, not timed).
WARMUP_S = 0.5

# serve_mc: sign-off traffic, closed loop, with hot swaps.
MC_ROWS = 64
MC_TRAIN = 15
MC_SWAP_EVERY_S = 1.0
#: The closed loop keeps both vCPUs saturated, so its median includes
#: queueing behind the other connection's request, and that queueing
#: swings with neighbour load on a shared host (p50 doubled at 9% CPU
#: steal). The 10th percentile tracks the request path's own cost and
#: is what ``latency_ms`` gates; p50 and p99 are still reported.
MC_GATED_PERCENTILE = 10

# serve_tune: post-silicon tuning traffic, open loop. The rate ladder
# and the p99 limit are fixed here once; later changes must not move
# them. The reference phase (this share of --seconds, at this rate)
# carries the gated p50; the ladder shares the rest and gives max_rps.
TUNE_TRAIN = 6
TUNE_REF_RATE = 35.0
TUNE_REF_SHARE = 0.6
TUNE_LADDER = (50.0, 75.0, 100.0)
TUNE_LIMIT_MS = 100.0
#: A generator that wakes more than this late at p99 fell behind.
LATE_FLAG_MS = 5.0

# Peel: requests replayed through each layer in the traced run.
PEEL_REQUESTS = {"serve_mc": 200, "serve_tune": 60}


# ----------------------------------------------------------------------
# The server process tree
# ----------------------------------------------------------------------
class ServerTree:
    """``server.py`` as a child process, driven over its pipes."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(ROOT / "src")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        self._buffer = b""
        self._booted = False

    def wait_booted(self) -> None:
        """Block until the host process has imported the library."""
        if not self._booted:
            self._read_reply()
            self._booted = True

    def _read_reply(self) -> dict:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while True:
            line, sep, rest = self._buffer.partition(b"\n")
            if sep:
                self._buffer = rest
                if line.startswith(b"@@"):
                    reply = json.loads(line[2:])
                    if "error" in reply:
                        raise RuntimeError("server: " + reply["error"])
                    return reply
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("cluster server did not answer")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError("cluster server exited")
                self._buffer += chunk

    def command(self, **payload) -> dict:
        self.wait_booted()
        self.proc.stdin.write((json.dumps(payload) + "\n").encode())
        self.proc.stdin.flush()
        return self._read_reply()

    def start_cluster(self, registry: Path, keys, store: Path) -> str:
        return self.command(
            op="start", registry=str(registry), keys=list(keys),
            store=str(store),
        )["address"]

    def pids(self) -> List[int]:
        return process_tree(self.proc.pid)

    def close(self) -> None:
        """End of input stops the cluster; a host that hangs is killed.

        Shards the host could not stop are killed too (matched by their
        command line, so a recycled pid is never hit).
        """
        tree = self.pids()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        for pid in tree[1:]:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    ours = b"multiprocessing" in handle.read()
                if ours:
                    os.kill(pid, 9)
                    deadline = time.monotonic() + 10.0
                    while (os.path.exists(f"/proc/{pid}")
                           and time.monotonic() < deadline):
                        time.sleep(0.05)
            except OSError:
                pass

    def __enter__(self) -> "ServerTree":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _setup_cluster(outcome: Outcome, server: ServerTree, workdir: Path,
                   name: str, simulate: Callable, fit: Callable):
    """Simulate, push, export and spawn ``SETUP_REPEATS`` times.

    The fits that produce the pushed versions run once, untimed; each
    repetition times simulation into a fresh cache, the registry push of
    every version, the store export and the shard spawn to ready.
    """
    from repro.serving import ModelRegistry

    server.wait_booted()
    seconds, model_sets = [], None
    for rep in range(SETUP_REPEATS):
        cache, reg_dir, store = (
            workdir / f"{part}{rep}" for part in ("cache", "registry", "store")
        )
        started = time.perf_counter()
        data = simulate(cache)
        simulated = time.perf_counter() - started
        if model_sets is None:
            model_sets = fit(data)
        if rep:
            server.command(op="stop")
        started = time.perf_counter()
        registry = ModelRegistry(reg_dir)
        keys = [registry.push(name, models).key for models in model_sets]
        address = server.start_cluster(reg_dir, keys[:1], store)
        seconds.append(simulated + time.perf_counter() - started)
    outcome.e2e["setup_s"] = median(seconds)
    return data, model_sets, registry, keys, address


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
class Reference:
    """``FrozenModel.predict`` of every pushed version, by version."""

    def __init__(self, registry, keys: Sequence[str]) -> None:
        self.models: Dict[int, Dict] = {}
        self.basis = None
        for key in keys:
            entry, models, basis = registry.load_models(key)
            self.models[int(entry.version)] = models
            self.basis = basis
        self.metrics = sorted(next(iter(self.models.values())))

    def predict(self, version: int, x: np.ndarray,
                states: np.ndarray) -> np.ndarray:
        """``(rows, metrics)`` answers, one predict per state group."""
        frozen = self.models[version]
        out = np.empty((x.shape[0], len(self.metrics)))
        for state in np.unique(states):
            rows = np.flatnonzero(states == state)
            design = self.basis.expand(x[rows])
            for j, metric in enumerate(self.metrics):
                out[rows, j] = frozen[metric].predict(design, int(state))
        return out

    def matches(self, version: int, x, states, values) -> bool:
        if version not in self.models:
            return False
        expected = self.predict(version, x, states)
        scale = np.maximum(np.abs(expected), 1.0)
        return bool(np.all(np.abs(values - expected) <= RTOL * scale))


def _as_array(results, metrics) -> Tuple[np.ndarray, int, int]:
    """Reply rows as ``(values, version, cached_rows)``."""
    values = np.array([[r.values[m] for m in metrics] for r in results])
    return values, int(results[0].version), sum(r.cached for r in results)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Record:
    __slots__ = ("conn", "index", "due", "queued", "sent", "done",
                 "values", "version", "cached", "error")

    def __init__(self, conn: int, index: int, due: float) -> None:
        self.conn, self.index, self.due = conn, index, due
        self.queued = self.sent = self.done = due
        self.values = None
        self.version = -1
        self.cached = 0
        self.error: Optional[str] = None


def _send(client, name, request, record: Record, metrics) -> None:
    x, states = request
    record.sent = time.perf_counter()
    try:
        results = client.predict_many(name, x, states)
        record.done = time.perf_counter()
        record.values, record.version, record.cached = _as_array(
            results, metrics
        )
    except Exception as error:  # counted as a failed operation
        record.done = time.perf_counter()
        record.error = f"{type(error).__name__}: {error}"


def closed_loop(address: str, name: str, make, metrics, stop_at: float,
                start_at: float) -> List[Record]:
    """``N_CONNECTIONS`` clients, each sending its next request on reply."""
    from repro.cluster.net import ClusterClient

    records: List[List[Record]] = [[] for _ in range(N_CONNECTIONS)]

    def worker(conn: int) -> None:
        with ClusterClient(address) as client:
            while time.perf_counter() < start_at:
                time.sleep(0.001)
            index = 0
            while time.perf_counter() < stop_at:
                request = make(conn, index)
                record = Record(conn, index, time.perf_counter())
                _send(client, name, request, record, metrics)
                records[conn].append(record)
                index += 1

    threads = [
        threading.Thread(target=worker, args=(c,))
        for c in range(N_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for per_conn in records for r in per_conn]


def open_loop(address: str, name: str, make, metrics, rate: float,
              duration: float, phase: int) -> Tuple[List[Record], float]:
    """Requests due every ``1/rate`` s, sent over ``N_CONNECTIONS``.

    A request waits in the client queue while both connections are busy;
    its latency counts from when it was due. Returns the records and the
    phase start.
    """
    from repro.cluster.net import ClusterClient

    n = max(1, int(round(rate * duration)))
    pending: "queue.Queue[Optional[Record]]" = queue.Queue()
    records: List[Record] = []

    def worker() -> None:
        with ClusterClient(address) as client:
            while True:
                record = pending.get()
                if record is None:
                    return
                _send(client, name, make(phase, record.index), record,
                      metrics)

    threads = [threading.Thread(target=worker) for _ in range(N_CONNECTIONS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + 0.05
    for index in range(n):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = Record(phase, index, due)
        record.queued = time.perf_counter()
        records.append(record)
        pending.put(record)
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join()
    return records, start


def _verify(outcome: Outcome, records: Sequence[Record], make,
            reference: Reference) -> None:
    for record in records:
        if record.error is not None:
            outcome.operation(False, f"request {record.index}: {record.error}")
            continue
        x, states = make(record.conn, record.index)
        ok = reference.matches(record.version, x, states, record.values)
        outcome.operation(
            ok,
            f"request {record.conn}/{record.index}: reply differs from "
            f"FrozenModel.predict of v{record.version}",
        )


def _counts(records: Sequence[Record]) -> Dict[str, int]:
    """Requests sent, succeeded and failed in one phase."""
    failed = sum(r.error is not None for r in records)
    return {"sent": len(records), "succeeded": len(records) - failed,
            "failed": failed}


def _latencies_ms(records: Sequence[Record]) -> List[float]:
    return [1e3 * (r.done - r.due) for r in records]


def _latency(outcome: Outcome, latencies: Sequence[float],
             gated_percentile: float) -> None:
    """A phase's p50 and p99, and the percentile gated as ``latency_ms``."""
    outcome.headline["p50_ms"] = median(latencies)
    outcome.headline["p99_ms"] = percentile(latencies, 99)
    outcome.e2e["latency_ms"] = percentile(latencies, gated_percentile)
    outcome.extra["latency_samples"] = len(latencies)


def _traffic_shares(records: Sequence[Record], make) -> Tuple[float, float]:
    """Shares of rows repeating an earlier (x, state), and an earlier x."""
    seen_rows, seen_x = set(), set()
    rows = repeats = shared = 0
    for record in records:
        x, states = make(record.conn, record.index)
        for row, state in zip(x, states):
            key = row.tobytes()
            rows += 1
            repeats += (key, int(state)) in seen_rows
            shared += key in seen_x
            seen_rows.add((key, int(state)))
            seen_x.add(key)
    return repeats / rows, shared / rows


def _cpu_snapshot(server: ServerTree) -> Tuple[float, float]:
    """CPU seconds of the gateway process and of its shards."""
    pids = server.pids()
    gateway = cpu_seconds(pids[0])
    return gateway, sum(cpu_seconds(pid) for pid in pids[1:])


# ----------------------------------------------------------------------
# The peel (traced run)
# ----------------------------------------------------------------------
def _peel(outcome: Outcome, registry, key: str, address: str, make,
          reference: Reference, n_requests: int, workdir: Path,
          swap_keys: Sequence[str], seed: int) -> None:
    """Replay requests through each layer, outermost first.

    TCP client -> in-process ``ClusterService`` -> ``PredictionEngine.
    predict_many`` -> per-state ``basis.expand`` + ``ServedModel.
    predict_design`` -> one expand plus one gathered GEMM (the floor).
    A layer's self time is its time minus the next inner layer's, per
    request; the report gives medians.
    """
    import repro.cluster.net as net
    from repro.cluster import ClusterConfig, ClusterService
    from repro.cluster.net import ClusterClient, _encode_predict
    from repro.cluster.protocol import _encode_header
    from repro.cluster.store import ModelStore, export_model_store
    from repro.serving import PredictionEngine

    name = key.split("@", 1)[0]
    sizes = {"req": [], "reply": []}
    send_frame, read_frame = net.send_frame, net.read_frame
    counting = [False]

    def frame_bytes(header, arrays) -> int:
        encoded, prepared = _encode_header(header, arrays)
        return 12 + len(encoded) + sum(a.nbytes for a in prepared)

    def counted_send(sock, header, arrays=()):
        if counting[0]:
            sizes["req"].append(frame_bytes(header, arrays))
        return send_frame(sock, header, arrays)

    def counted_read(sock):
        header, arrays = read_frame(sock)
        if counting[0]:
            sizes["reply"].append(frame_bytes(header, arrays))
        return header, arrays

    store_dir = workdir / "peel_store"
    service = ClusterService(
        registry, [key], ClusterConfig(n_shards=2), store_dir=store_dir
    )
    service.start()
    net.send_frame, net.read_frame = counted_send, counted_read
    try:
        served = ModelStore.open(store_dir).served_model(key)
        engine = PredictionEngine()
        version = served.version
        # (K, M, metrics) coefficients and (K, metrics) offsets, so the
        # floor gathers each row's own state and does only its dot products.
        coef = np.stack(
            [served.models[m].coef_ for m in reference.metrics], axis=-1
        )
        offsets = np.stack(
            [served.models[m].offsets_ for m in reference.metrics], axis=-1
        )
        times = {k: [] for k in ("tcp", "cluster", "engine", "expand",
                                 "predict", "floor", "plain_tcp")}
        groups = []
        with ClusterClient(address) as client:
            for index in range(n_requests):
                # A fresh request over TCP with no byte counting: the
                # peel's outermost layer read against it gives the
                # tracing overhead.
                x, states = make(91, index)
                started = time.perf_counter()
                client.predict_many(name, x, states)
                times["plain_tcp"].append(time.perf_counter() - started)

                x, states = make(90, index)
                layers = []
                counting[0] = True
                started = time.perf_counter()
                layers.append(client.predict_many(name, x, states))
                times["tcp"].append(time.perf_counter() - started)
                counting[0] = False
                started = time.perf_counter()
                layers.append(service.predict_many(name, x, states))
                times["cluster"].append(time.perf_counter() - started)
                started = time.perf_counter()
                layers.append(engine.predict_many(served, x, states))
                times["engine"].append(time.perf_counter() - started)

                per_state = np.empty((x.shape[0], len(reference.metrics)))
                expand_s = predict_s = 0.0
                unique = np.unique(states)
                groups.append(len(unique))
                for state in unique:
                    rows = np.flatnonzero(states == state)
                    started = time.perf_counter()
                    design = served.basis.expand(x[rows])
                    expand_s += time.perf_counter() - started
                    started = time.perf_counter()
                    out = served.predict_design(design, int(state))
                    predict_s += time.perf_counter() - started
                    for j, metric in enumerate(reference.metrics):
                        per_state[rows, j] = out[metric]
                times["expand"].append(expand_s)
                times["predict"].append(predict_s)

                started = time.perf_counter()
                floor = np.einsum(
                    "ij,ijk->ik", served.basis.expand(x), coef[states]
                ) + offsets[states]
                times["floor"].append(time.perf_counter() - started)

                for answer in layers:
                    values, answered_by, _ = _as_array(answer, reference.metrics)
                    outcome.operation(
                        reference.matches(answered_by, x, states, values),
                        f"peel request {index}: a layer's answer differs",
                    )
                for values in (per_state, floor):
                    outcome.operation(
                        reference.matches(version, x, states, values),
                        f"peel request {index}: math/floor answer differs",
                    )

        export_ms, load_ms = [], []
        for swap_key in swap_keys:
            started = time.perf_counter()
            export_model_store(registry, [swap_key], store_dir)
            exported = time.perf_counter()
            service.set_canary(name, swap_key, 1.0)
            service.promote(name)
            export_ms.append(1e3 * (exported - started))
            load_ms.append(1e3 * (time.perf_counter() - exported))
    finally:
        net.send_frame, net.read_frame = send_frame, read_frame
        service.stop()

    us = {k: 1e6 * np.asarray(v) for k, v in times.items()}
    math = us["expand"] + us["predict"]
    layers = outcome.layers
    layers["net.self_us"] = median(us["tcp"] - us["cluster"])
    layers["gateway.self_us"] = median(us["cluster"] - us["engine"])
    layers["engine.self_us"] = median(us["engine"] - math)
    layers["basis.expand_us"] = median(us["expand"])
    layers["frozen.predict_us"] = median(us["predict"])
    layers["gemm_floor.us"] = median(us["floor"])
    layers["engine.state_groups"] = median(groups)
    snapshot = engine.metrics.snapshot()
    layers["engine.rows_per_batch"] = snapshot["mean_batch_size"]
    layers["protocol.req_bytes"] = median(sizes["req"])
    layers["protocol.reply_bytes"] = median(sizes["reply"])
    summed = (
        layers["net.self_us"] + layers["gateway.self_us"]
        + layers["engine.self_us"] + layers["basis.expand_us"]
        + layers["frozen.predict_us"]
    )
    tcp_p50 = median(us["tcp"])
    layers["ledger.closure_pct"] = 100.0 * summed / tcp_p50
    # The only instrumentation on the measured path is the frame-byte
    # count, once per request frame and once per reply frame; its
    # measured cost (both costed as the larger request frame) is the
    # overhead. The interleaved counted-vs-plain difference is host
    # noise at this scale and is printed for reference.
    x, states = make(90, 0)
    header, arrays = _encode_predict(name, x, states, None)
    count_us = 1e6 * per_call_s(lambda: frame_bytes(header, arrays), 200)
    layers["trace.overhead_pct"] = 100.0 * 2 * count_us / tcp_p50
    outcome.extra["counted_vs_plain_tcp_pct"] = round(
        100.0 * (tcp_p50 / median(us["plain_tcp"]) - 1.0), 1
    )
    if export_ms:
        layers["store.export_ms"] = median(export_ms)
        layers["gateway.load_ms"] = median(load_ms)
    outcome.extra["peel_requests"] = n_requests
    outcome.extra["peel_p50_us"] = {
        k: round(median(v), 1) for k, v in us.items()
    }
    trace_file = TRACE_DIR / f"{outcome.workload}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(
        {k: [round(t, 2) for t in v.tolist()] for k, v in us.items()}
    ) + "\n")
    outcome.extra["trace_file"] = str(trace_file)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _somp(data, seed: int):
    from repro.modelset import PerformanceModelSet

    return PerformanceModelSet.fit_dataset(data, method="somp", seed=seed)


def _finish(outcome: Outcome, server: ServerTree, records, make,
            reference: Reference, trace: bool, cpu_before, cpu_after,
            n_timed: int) -> None:
    outcome.e2e["peak_rss_mb"] = peak_rss_mb(server.pids())
    _verify(outcome, records, make, reference)
    rows = sum(r.values.shape[0] for r in records if r.values is not None)
    cached = sum(r.cached for r in records)
    outcome.layers["engine.cache_hit_ratio"] = cached / max(rows, 1)
    kreq = max(n_timed, 1) / 1e3
    outcome.layers["gateway.cpu_ms_per_kreq"] = (
        1e3 * (cpu_after[0] - cpu_before[0]) / kreq
    )
    outcome.layers["shard.cpu_ms_per_kreq"] = (
        1e3 * (cpu_after[1] - cpu_before[1]) / kreq
    )
    if trace:
        repeat, shared = _traffic_shares(records, make)
        outcome.layers["traffic.repeat_share"] = repeat
        outcome.layers["traffic.shared_x_share"] = shared


def serve_mc(outcome: Outcome, seed: int, seconds: float, trace: bool,
             workdir: Path) -> None:
    """Closed-loop Monte-Carlo sign-off traffic with hot swaps."""
    with ServerTree() as server:  # boots while this process imports
        from repro.cluster.net import ClusterClient
        from repro.paper import SCALES, load_or_simulate

        scale = SCALES["medium"]
        n_swaps = max(1, int(seconds / MC_SWAP_EVERY_S) - 1)
        n_peel_swaps = 3 if trace else 0
        n_versions = 1 + n_swaps + n_peel_swaps

        def fit(data):
            pool, _ = data
            return [
                _somp(pool.head(MC_TRAIN + j), seed)
                for j in range(n_versions)
            ]

        (pool, _), model_sets, registry, keys, address = _setup_cluster(
            outcome, server, workdir, "lna",
            lambda cache: load_or_simulate("lna", scale, seed, cache_dir=cache),
            fit,
        )
        reference = Reference(registry, keys)
        n_var, n_states = reference.basis.n_variables, pool.n_states
        first = reference.metrics[0]
        distinct = {m[first].coef_.tobytes() for m in reference.models.values()}
        if len(distinct) != len(keys):
            outcome.problems.append(
                "pushed versions share coefficients: version mixing would "
                "go unnoticed"
            )

        def make(conn: int, index: int):
            rng = np.random.default_rng([seed, 10, conn, index])
            return (rng.standard_normal((MC_ROWS, n_var)),
                    rng.integers(0, n_states, MC_ROWS))

        swap_ms: List[float] = []
        swap_errors: List[str] = []
        start_at = time.perf_counter() + 0.2
        window_at = start_at + WARMUP_S
        stop_at = window_at + seconds

        def swapper() -> None:
            with ClusterClient(address) as control:
                for k, key in enumerate(keys[1:1 + n_swaps], start=1):
                    due = window_at + k * seconds / (n_swaps + 1)
                    time.sleep(max(0.0, due - time.perf_counter()))
                    started = time.perf_counter()
                    try:
                        control.set_canary("lna", key, 1.0)
                        control.promote("lna")
                        swap_ms.append(1e3 * (time.perf_counter() - started))
                    except Exception as error:
                        swap_errors.append(f"swap to {key}: {error}")

        cpu_before = _cpu_snapshot(server)
        swaps = threading.Thread(target=swapper)
        swaps.start()
        records = closed_loop(
            address, "lna", make, reference.metrics, stop_at, start_at
        )
        swaps.join()
        cpu_after = _cpu_snapshot(server)
        timed = [r for r in records if window_at <= r.due and r.done <= stop_at]
        _latency(outcome, _latencies_ms(timed), MC_GATED_PERCENTILE)
        outcome.headline["rows_per_s"] = sum(
            r.values.shape[0] for r in timed if r.values is not None
        ) / seconds
        outcome.headline["swap_ms"] = median(swap_ms) if swap_ms else 0.0
        for _ in swap_ms:
            outcome.operation(True)
        for problem in swap_errors:
            outcome.operation(False, problem)
        outcome.extra["requests"] = {
            "warm-up": _counts([r for r in records if r.due < window_at]),
            "timed": _counts([r for r in records if r.due >= window_at]),
        }
        outcome.extra["swaps"] = len(swap_ms)
        _finish(outcome, server, records, make, reference, trace,
                cpu_before, cpu_after, len(timed))
        if trace:
            _peel(outcome, registry, keys[n_swaps], address, make,
                  reference, PEEL_REQUESTS["serve_mc"], workdir,
                  keys[1 + n_swaps:], seed)


def serve_tune(outcome: Outcome, seed: int, seconds: float, trace: bool,
               workdir: Path) -> None:
    """Open-loop tuning traffic: one die's x over all 201 states."""
    with ServerTree() as server:  # boots while this process imports
        from repro.paper import simulate_sweep

        train, model_sets, registry, keys, address = _setup_cluster(
            outcome, server, workdir, "tune",
            lambda cache: simulate_sweep(201, TUNE_TRAIN, seed,
                                         cache_dir=cache),
            lambda data: [_somp(data, seed)],
        )
        reference = Reference(registry, keys)
        n_var, n_states = reference.basis.n_variables, train.n_states
        all_states = np.arange(n_states)

        def make(phase: int, index: int):
            rng = np.random.default_rng([seed, 20, phase, index])
            x = rng.standard_normal(n_var)
            return np.repeat(x[None, :], n_states, axis=0), all_states

        # Warm the connections and shards outside any timed phase.
        warm, _ = open_loop(address, "tune", make, reference.metrics,
                            TUNE_REF_RATE, WARMUP_S, phase=99)
        cpu_before = _cpu_snapshot(server)
        ref_records, _ = open_loop(
            address, "tune", make, reference.metrics, TUNE_REF_RATE,
            seconds * TUNE_REF_SHARE, phase=0,
        )
        cpu_after = _cpu_snapshot(server)
        _latency(outcome, _latencies_ms(ref_records), 50)
        late = [1e3 * (r.queued - r.due) for r in ref_records]
        wait = [1e3 * (r.sent - r.due) for r in ref_records]
        outcome.layers["gen.late_ms"] = percentile(late, 99)
        outcome.layers["client.wait_ms"] = percentile(wait, 99)

        phases = {TUNE_REF_RATE: ref_records}
        rung_s = seconds * (1.0 - TUNE_REF_SHARE) / len(TUNE_LADDER)
        max_rps = 0.0
        summary = {}
        for phase, rate in enumerate(TUNE_LADDER, start=1):
            records, start = open_loop(address, "tune", make,
                                       reference.metrics, rate, rung_s, phase)
            phases[rate] = records
            p99 = percentile(_latencies_ms(records), 99)
            backlog = sum(r.sent > records[-1].due for r in records)
            achieved = len(records) / (max(r.done for r in records) - start)
            passed = (
                p99 <= TUNE_LIMIT_MS and backlog <= N_CONNECTIONS
                and all(r.error is None for r in records)
            )
            summary[rate] = {"p99_ms": round(p99, 1), "backlog": backlog,
                             "pass": passed}
            if passed:
                max_rps = achieved
        outcome.headline["max_rps"] = max_rps
        outcome.extra["ladder"] = summary
        outcome.extra["requests"] = dict(
            {"warm-up": _counts(warm)},
            **{f"{rate:g}/s": _counts(records)
               for rate, records in phases.items()},
        )
        p99_late = outcome.layers["gen.late_ms"]
        if p99_late > LATE_FLAG_MS:
            outcome.warnings.append(
                f"generator fell behind: p99 wake-up {p99_late:.1f} ms late"
            )
        outcome.extra["generator_behind"] = p99_late > LATE_FLAG_MS
        every = warm + [r for records in phases.values() for r in records]
        _finish(outcome, server, every, make, reference, trace,
                cpu_before, cpu_after, len(ref_records))
        if trace:
            _peel(outcome, registry, keys[0], address, make, reference,
                  PEEL_REQUESTS["serve_tune"], workdir, (), seed)
