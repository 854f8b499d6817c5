"""Asyncio cluster gateway: routing, batching, shedding, canaries.

``ClusterService`` is the front door of the horizontal serving cluster.
It owns an asyncio event loop on a background thread, a fleet of shard
worker processes (spawn context, each running
:func:`repro.cluster.shard.shard_main` over the shared memmapped
:class:`~repro.cluster.store.ModelStore`), and a routing table mapping
model *names* to registry version keys. Callers use plain synchronous
``predict`` / ``predict_many`` from any thread; internally each call is

1. **routed** — the name's route picks stable or canary version via a
   fractional-weight accumulator (weight 0 never canaries, weight 1
   always does, 0.25 canaries exactly every 4th call);
2. **admitted** — if the owning shard already has more than
   ``max_queue_rows`` rows in flight the request is refused *loudly*
   with :class:`~repro.errors.ShedError` (never silently dropped);
3. **batched** — a per-shard sender task coalesces adjacent same-key
   requests into one wire frame up to ``max_batch_rows`` rows;
4. **bounded** — the caller waits at most its deadline; expiry raises
   :class:`~repro.errors.DeadlineError` and is counted per shard and
   per version.

Requests are validated (finite rows of the served key's width) before
they are queued, so one caller's bad rows can never fail the
neighbours coalesced into its frame. Replies stay as the shard sent
them — ``(header, columns)`` — until :meth:`ClusterService.predict_many`
turns them into rows; the TCP listener forwards them unchanged.

A shard that dies (crash, ``shard:kill`` chaos fault, OOM-kill…) is
detected by its connection closing: every in-flight request on it fails
immediately with :class:`~repro.errors.ShardCrashError`, and the
gateway respawns the worker — which re-opens the store (remapping the
same shared pages) and reloads its keys — up to ``max_respawns`` times.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cluster.metrics import ClusterMetrics, format_cluster_report
from repro.cluster.protocol import (
    decode_results,
    read_frame_async,
    write_frame_async,
)
from repro.cluster.shard import shard_main
from repro.cluster.store import export_model_store
from repro.errors import (
    DeadlineError,
    ServingError,
    ShardCrashError,
    ShedError,
)
from repro.faults import FaultPlan, shard_faults
from repro.serving.requests import PredictionResult

__all__ = ["ClusterConfig", "ClusterService"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of a :class:`ClusterService`.

    Parameters
    ----------
    n_shards:
        Worker processes to spawn. Models are assigned to shards by
        fewest-keys-first, so distinct names spread across the fleet.
    replication:
        Replica count R per ``name@vN`` key: each key is loaded on R
        shards against the shared store (still one physical copy via
        the memmap). Reads route to the primary (first) replica and
        fail over to the next on :class:`ShardCrashError` or an
        expired attempt budget, so a killed or hung primary no longer
        makes its keys unavailable for the respawn window. Clamped to
        ``n_shards``.
    max_queue_rows:
        Admission-control bound: a shard with this many rows already in
        flight sheds new requests with :class:`ShedError`.
    max_batch_rows:
        Micro-batching bound: the per-shard sender coalesces adjacent
        same-key requests into one frame up to this many rows.
    default_deadline_s:
        Deadline applied when a request does not carry its own; every
        request in the cluster has one — a hung shard can delay an
        answer, never swallow it.
    max_respawns:
        Dead-shard respawn budget per shard; once exhausted the shard
        stays down and its requests fail fast with
        :class:`ShardCrashError`.
    start_timeout_s:
        How long to wait for a freshly spawned shard's ready handshake.
    """

    n_shards: int = 2
    replication: int = 1
    max_queue_rows: int = 4096
    max_batch_rows: int = 512
    default_deadline_s: float = 30.0
    max_respawns: int = 3
    start_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        """Validate the configuration."""
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.max_queue_rows < 1:
            raise ValueError(
                f"max_queue_rows must be >= 1, got {self.max_queue_rows}"
            )
        if self.max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {self.max_batch_rows}"
            )
        if self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, "
                f"got {self.default_deadline_s}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )


def _parse_specs(specs: Sequence) -> List[Dict]:
    """Normalize yield specifications into wire-friendly dicts."""
    from repro.applications.yield_estimation import Specification

    parsed = []
    for spec in specs:
        if isinstance(spec, str):
            spec = Specification.parse(spec)
        if isinstance(spec, Specification):
            spec = {
                "metric": spec.metric,
                "bound": float(spec.bound),
                "kind": spec.kind,
            }
        else:
            spec = {
                "metric": str(spec["metric"]),
                "bound": float(spec["bound"]),
                "kind": str(spec.get("kind", "max")),
            }
        parsed.append(spec)
    if not parsed:
        raise ValueError("at least one specification is required")
    return parsed


def _validate_predict(x, states) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce and shape-check one predict batch (gateway and listener).

    The key-dependent checks (finite rows of the served width) run in
    :meth:`ClusterService._predict_async`, once the version is routed.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=float))
    states = np.ascontiguousarray(np.asarray(states, dtype=np.int64))
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if states.shape != (x.shape[0],):
        raise ValueError(
            f"got {x.shape[0]} rows but {states.shape} states"
        )
    return x, states


@dataclass
class _Route:
    """Routing-table entry for one model name."""

    stable: str
    canary: Optional[str] = None
    weight: float = 0.0
    acc: float = 0.0

    def choose(self) -> str:
        """Pick stable or canary via the fractional accumulator."""
        if self.canary is None or self.weight <= 0.0:
            return self.stable
        self.acc += self.weight
        if self.acc >= 1.0 - 1e-12:
            self.acc -= 1.0
            return self.canary
        return self.stable


@dataclass
class _PredictItem:
    """One routed request queued for a shard's sender task.

    ``expiry`` is a ``time.monotonic()`` instant on *this* process's
    clock; the wire never carries it — the sender task converts it to a
    relative remaining budget at frame-write time, so a wall-clock step
    (NTP, manual reset) between gateway and shard can neither expire
    nor immortalize an in-flight request.
    """

    id: int
    key: str
    x: np.ndarray
    states: np.ndarray
    expiry: float
    future: asyncio.Future = None

    @property
    def n(self) -> int:
        """Row count of the request."""
        return int(self.x.shape[0])

    @property
    def charge(self) -> int:
        """What its failure counts in the metrics: its rows."""
        return self.n


@dataclass
class _Waiter:
    """A yield or control frame awaiting its reply in ``handle.pending``.

    It holds no rows. ``charge`` is what its failure counts in the
    metrics: one request under ``key`` for a yield, nothing for a
    control frame (``key`` is ``None``).
    """

    id: int
    key: Optional[str]
    charge: int
    future: asyncio.Future
    n = 0  # rows in flight


@dataclass
class _ControlItem:
    """A raw control frame queued for a shard's sender task.

    When ``expiry`` is set (a local ``time.monotonic()`` instant), the
    sender attaches the remaining relative budget to the header as
    ``"budget"`` at write time.
    """

    header: Dict
    arrays: Tuple = ()
    expiry: Optional[float] = None


class _ShardHandle:
    """The gateway's bookkeeping for one shard worker."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.sock: Optional[socket.socket] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.queue: Optional[asyncio.Queue] = None
        self.carry = None
        self.tasks: List[asyncio.Task] = []
        self.pending: Dict[int, Union[_PredictItem, _Waiter]] = {}
        self.pending_rows = 0
        self.respawns = 0
        self.alive = False
        self.dead_forever = False
        self.store_pss_bytes: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pid = self.process.pid if self.process is not None else None
        return (
            f"_ShardHandle({self.index}, pid={pid}, alive={self.alive}, "
            f"pending={len(self.pending)})"
        )


class ClusterService:
    """Horizontally scaled prediction service over shard processes.

    Synchronous façade over an asyncio gateway loop: all public methods
    are callable from any thread and block until their answer (or
    structured failure) arrives. Use as a context manager, or call
    :meth:`start` / :meth:`stop` explicitly.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` whose
        entries are served.
    keys:
        Initial ``name@vN`` keys to export into the store and load.
    config:
        A :class:`ClusterConfig`; defaults apply when omitted.
    store_dir:
        Directory of the shared-memory store (exported on demand);
        defaults to ``<registry root>/shm_store``.
    """

    def __init__(
        self,
        registry,
        keys: Sequence[str] = (),
        config: Optional[ClusterConfig] = None,
        store_dir=None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else ClusterConfig()
        self.store_dir = str(
            store_dir
            if store_dir is not None
            else registry.root / "shm_store"
        )
        self.metrics = ClusterMetrics()
        self._initial_keys = [registry.entry(key).key for key in keys]
        self._routes: Dict[str, _Route] = {}
        # key -> primary shard index, and key -> full replica list
        # (primary first). _key_shard stays the single-owner view so
        # canary placement and reporting keep their PR-6 semantics.
        self._key_shard: Dict[str, int] = {}
        self._key_replicas: Dict[str, List[int]] = {}
        # key -> basis.n_variables from the registry manifest.
        self._key_width: Dict[str, Optional[int]] = {}
        self._shards: List[_ShardHandle] = []
        self._ids = itertools.count(1)
        self._route_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stopping = False
        self._mp = multiprocessing.get_context("spawn")

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Export the store, spawn every shard, wait for readiness."""
        if self._started:
            raise ServingError("cluster already started")
        export_model_store(
            self.registry, self._initial_keys, self.store_dir
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-cluster-gateway",
            daemon=True,
        )
        self._thread.start()
        self._shards = [
            _ShardHandle(index)
            for index in range(self.config.n_shards)
        ]
        for key in self._initial_keys:
            self._assign(key)
        try:
            self._run(self._start_all_shards())
        except BaseException:
            self.stop()
            raise
        self._started = True
        for key in self._initial_keys:
            name = key.split("@", 1)[0]
            self._routes.setdefault(name, _Route(stable=key))

    def stop(self) -> None:
        """Shut every shard down and stop the gateway loop."""
        if self._loop is None:
            return
        self._stopping = True
        try:
            self._run(self._stop_all_shards())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._loop.close()
            self._loop = None
            self._thread = None
            self._started = False
            self._stopping = False

    def __enter__(self) -> "ClusterService":
        """Start the cluster on context entry."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the cluster on context exit."""
        self.stop()

    # -- routing / versions ---------------------------------------------
    def load(self, key: str) -> str:
        """Export + load ``key`` onto its replicas; route its name to it.

        Returns the resolved ``name@vN`` key. If the name already has a
        route, the stable version is switched to the new key (a plain
        hot swap — use :meth:`set_canary` for a weighted rollout).
        """
        self._require_started()
        return self._run(self._load_async(key))

    async def _load_async(self, key: str) -> str:
        key = self.registry.entry(key).key
        await self._load_key_async(key)
        name = key.split("@", 1)[0]
        route = self._routes.get(name)
        if route is None:
            self._routes[name] = _Route(stable=key)
        else:
            route.stable = key
        return key

    def set_canary(self, name: str, canary_key: str, weight: float) -> str:
        """Start a weighted canary split for ``name``.

        ``weight`` is the canary's traffic fraction in [0, 1]; the
        fractional accumulator makes the edges exact (0 → never,
        1 → always). The canary version is exported and loaded onto the
        same replica set as the stable version so both report their own
        per-version metrics from identical placement.
        """
        self._require_started()
        return self._run(
            self._set_canary_async(name, canary_key, weight)
        )

    async def _set_canary_async(
        self, name: str, canary_key: str, weight: float
    ) -> str:
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {weight}")
        route = self._route(name)
        canary_key = self.registry.entry(canary_key).key
        if canary_key.split("@", 1)[0] != name:
            raise ServingError(
                f"canary {canary_key!r} is not a version of {name!r}"
            )
        await self._load_key_async(
            canary_key, replicas=self._key_replicas[route.stable]
        )
        route.canary = canary_key
        route.weight = float(weight)
        route.acc = 0.0
        return canary_key

    def promote(self, name: str) -> str:
        """Make the canary the stable version (full cutover)."""
        route = self._route(name)
        if route.canary is None:
            raise ServingError(f"{name!r} has no canary to promote")
        route.stable, route.canary, route.weight = route.canary, None, 0.0
        return route.stable

    def clear_canary(self, name: str) -> None:
        """Drop the canary split; all traffic returns to stable."""
        route = self._route(name)
        route.canary, route.weight, route.acc = None, 0.0, 0.0

    def describe_routes(self) -> Dict[str, Dict]:
        """Routing-table digest per name.

        ``shard`` is the stable version's primary; ``replicas`` its
        full owner list (primary first). ``n_variables`` — when the
        registry manifest records it — lets remote clients size request
        vectors without a local model copy.
        """
        digest = {}
        for name, route in sorted(self._routes.items()):
            digest[name] = {
                "stable": route.stable,
                "canary": route.canary,
                "weight": route.weight,
                "shard": self._key_shard.get(route.stable),
                "replicas": list(
                    self._key_replicas.get(route.stable, ())
                ),
                "n_variables": self._key_width.get(route.stable),
            }
        return digest

    # -- serving --------------------------------------------------------
    def predict(
        self,
        name: str,
        x: np.ndarray,
        state: int,
        deadline_s: Optional[float] = None,
    ) -> PredictionResult:
        """Predict one design point; blocks until answer or failure."""
        return self.predict_many(
            name, np.asarray(x, dtype=float)[None, :], [state],
            deadline_s=deadline_s,
        )[0]

    def predict_many(
        self,
        name: str,
        x: np.ndarray,
        states: Sequence[int],
        deadline_s: Optional[float] = None,
    ) -> List[PredictionResult]:
        """Predict a batch of rows through the cluster.

        Routes the whole call to one version (stable or canary), ships
        it to the primary replica, and waits at most the deadline;
        a crashed or expired attempt fails over to the next replica
        while budget remains. Raises :class:`ShedError` (queue full),
        :class:`DeadlineError` (expired), or :class:`ShardCrashError`
        (every replica died with the request in flight) — never hangs,
        never silently drops.
        """
        self._require_started()
        x, states = _validate_predict(x, states)
        if x.shape[0] == 0:
            return []
        deadline_s = self._resolve_deadline(deadline_s)
        return decode_results(
            *self._run(self._predict_async(name, x, states, deadline_s))
        )

    def _resolve_deadline(self, deadline_s: Optional[float]) -> float:
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        return float(deadline_s)

    async def _predict_async(
        self,
        name: str,
        x: np.ndarray,
        states: np.ndarray,
        deadline_s: float,
    ) -> Tuple[Dict, List[np.ndarray]]:
        """Loop-side predict: route, validate, submit with failover.

        Returns the shard's ``"result"`` frame as ``(header, columns)``.
        """
        key = self._choose_version(name)
        width = self._key_width.get(key)
        if width is not None and x.shape[1] != width:
            raise ValueError(
                f"x has {x.shape[1]} columns; {key} expects {width} "
                "variables"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite values")
        started = time.perf_counter()
        reply, served_by = await self._submit(
            key,
            time.monotonic() + deadline_s,
            x.shape[0],
            lambda handle, expiry: self._attempt_predict(
                handle, key, x, states, expiry
            ),
        )
        self.metrics.record_batch(
            served_by, key, x.shape[0],
            time.perf_counter() - started,
        )
        return reply

    def yield_report(
        self,
        name: str,
        specs: Sequence,
        n_samples: int = 400,
        seed: int = 0,
        confidence: float = 0.95,
        states: Optional[Sequence[int]] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict:
        """Fleet yield/moment report for ``name``, computed in its shard.

        The owning shard samples every state of the routed version from
        the shared memmapped store, applies correlation-shared shrinkage
        (see :mod:`repro.yields`), and answers per-state yields with
        confidence intervals inside a single reply frame. ``specs``
        accepts :class:`~repro.applications.yield_estimation.Specification`
        objects, ``{"metric", "bound", "kind"}`` dicts, or
        ``"metric<=bound"`` strings. ``states`` restricts the *returned*
        per-state arrays (shrinkage always uses the full fleet).

        Returns a dict with the served ``key``/``version``, the shard's
        measured ``peak_bytes`` during the computation (the proof that
        no MK × MK covariance was densified), and the ``report`` payload
        of :func:`repro.yields.report_to_dict`. Raises the same error
        taxonomy as :meth:`predict_many` — a killed shard surfaces as
        :class:`ShardCrashError`, an expired wait as
        :class:`DeadlineError`.
        """
        self._require_started()
        return self._run(
            self._yield_async(
                name, specs, n_samples, seed, confidence, states,
                self._resolve_deadline(deadline_s),
            )
        )

    async def _yield_async(
        self,
        name: str,
        specs: Sequence,
        n_samples: int,
        seed: int,
        confidence: float,
        states: Optional[Sequence[int]],
        deadline_s: float,
    ) -> Dict:
        """Loop-side yield report: parse specs, submit with failover."""
        parsed = _parse_specs(specs)
        key = self._choose_version(name)
        reply, _ = await self._submit(
            key,
            time.monotonic() + deadline_s,
            1,
            lambda handle, expiry: self._attempt_yield(
                handle, key, parsed, int(n_samples), int(seed),
                float(confidence), expiry,
            ),
        )
        if not (
            isinstance(reply, dict) and reply.get("kind") == "yield-result"
        ):
            raise ServingError(f"unexpected yield reply {reply!r}")
        if states is not None:
            index = [int(s) for s in states]
            report = reply["report"]
            for field_name in (
                "yield_raw",
                "yield_shrunk",
                "yield_ci_lower",
                "yield_ci_upper",
            ):
                report[field_name] = [report[field_name][k] for k in index]
            report["states"] = index
        return reply

    # -- observability --------------------------------------------------
    def shard_engine_snapshots(self) -> List[Dict]:
        """Per-shard engine/metrics digests fetched over the wire.

        One entry per *live* shard (sorted by index), each carrying the
        worker's ``ServingMetrics`` snapshot (latency histogram
        included), pid and store numbers. Dead shards are skipped.
        """
        self._require_started()
        return self._run(self._collect_metrics())

    def report(self) -> str:
        """Full cluster text report (shards, versions, routes, engines)."""
        self._require_started()
        return self._run(self._report_async())

    async def _report_async(self) -> str:
        snapshots = await self._collect_metrics()
        return format_cluster_report(
            self.metrics.snapshot(),
            engine_snapshots=[s["engine"] for s in snapshots],
            routes=self.describe_routes(),
        )

    # -- chaos ----------------------------------------------------------
    def inject_faults(self, plan: Optional[FaultPlan]) -> Dict[int, str]:
        """Apply a fault plan's ``shard:kill`` / ``shard:hang`` specs.

        Sends each named shard its fault frame (through the ordinary
        sender queue, after anything already enqueued). Returns the
        ``{shard_index: mode}`` map actually applied; indices outside
        the fleet are ignored.
        """
        self._require_started()
        applied: Dict[int, str] = {}
        for index, mode in shard_faults(plan).items():
            if 0 <= index < len(self._shards):
                self._run(self._enqueue_control(index, {"kind": mode}))
                applied[index] = mode
        return applied

    # -- internals: sync→loop bridge ------------------------------------
    def _run(self, coro):
        """Run a coroutine on the gateway loop from any thread."""
        if self._loop is None:
            raise ServingError("cluster is not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _require_started(self) -> None:
        if not self._started:
            raise ServingError(
                "cluster is not started; use it as a context manager or "
                "call start()"
            )

    def _route(self, name: str) -> _Route:
        route = self._routes.get(name)
        if route is None:
            raise ServingError(
                f"no model named {name!r} is loaded; known: "
                f"{sorted(self._routes)}"
            )
        return route

    def _choose_version(self, name: str) -> str:
        with self._route_lock:
            return self._route(name).choose()

    def _assign(
        self,
        key: str,
        shard: Optional[int] = None,
        replicas: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Pick (or confirm) the replica set owning ``key``.

        Returns the owner list, primary first. New keys take the R
        least-loaded shards (fewest keys first, permanently-dead shards
        avoided while any alternative exists); ``replicas`` pins the
        placement outright (canary co-placement with its stable
        version), ``shard`` pins only the primary.
        """
        if key in self._key_replicas:
            return self._key_replicas[key]
        n = len(self._shards)
        if replicas is not None:
            owners = [int(i) for i in replicas]
        else:
            r = min(self.config.replication, n)
            counts = [0] * n
            for existing in self._key_replicas.values():
                for owner in existing:
                    counts[owner] += 1
            usable = [
                i for i in range(n) if not self._shards[i].dead_forever
            ] or list(range(n))
            order = sorted(usable, key=lambda i: (counts[i], i))
            if shard is not None:
                order = [shard] + [i for i in order if i != shard]
            owners = order[:r]
        self._key_shard[key] = owners[0]
        self._key_replicas[key] = owners
        basis = self.registry.entry(key).manifest.get("basis")
        self._key_width[key] = (
            basis.get("n_variables") if isinstance(basis, dict) else None
        )
        return owners

    async def _load_key_async(
        self,
        key: str,
        shard: Optional[int] = None,
        replicas: Optional[Sequence[int]] = None,
    ) -> None:
        """Export ``key`` to the store and install it on every replica.

        Replicas currently mid-respawn are skipped — the fresh worker
        re-reads its key list (which already includes ``key``) during
        the handshake. Raises :class:`ShardCrashError` when no replica
        can ever serve the key again.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, export_model_store, self.registry, [key], self.store_dir
        )
        owners = self._assign(key, shard=shard, replicas=replicas)
        alive = [i for i in owners if self._shards[i].alive]
        if not alive and all(
            self._shards[i].dead_forever for i in owners
        ):
            raise ShardCrashError(
                f"every replica of {key!r} ({owners}) has exhausted its "
                "respawn budget"
            )
        for index in alive:
            reply = await self._control_roundtrip(
                index, {"kind": "load", "key": key}
            )
            if reply.get("kind") != "loaded":
                raise ServingError(
                    f"shard {index} failed to load {key!r}: "
                    f"{reply.get('error', reply)}"
                )

    def _load_key(
        self, key: str, replicas: Optional[Sequence[int]] = None
    ) -> None:
        self._run(self._load_key_async(key, replicas=replicas))

    # -- internals: shard lifecycle (loop thread) -----------------------
    async def _start_all_shards(self) -> None:
        await asyncio.gather(
            *(self._spawn_shard(handle) for handle in self._shards)
        )

    async def _stop_all_shards(self) -> None:
        for handle in self._shards:
            for task in handle.tasks:
                task.cancel()
            if handle.writer is not None:
                try:
                    # A hung shard never drains its socket; don't let a
                    # polite shutdown frame block the whole stop.
                    await asyncio.wait_for(
                        write_frame_async(
                            handle.writer, {"kind": "shutdown"}
                        ),
                        timeout=1.0,
                    )
                    handle.writer.close()
                except (
                    asyncio.TimeoutError,
                    ConnectionError,
                    OSError,
                    RuntimeError,
                ):
                    pass
            handle.alive = False
        loop = asyncio.get_running_loop()
        for handle in self._shards:
            process = handle.process
            if process is None or not process.is_alive():
                continue
            await loop.run_in_executor(None, process.join, 2.0)
            if process.is_alive():
                # terminate() alone leaves a zombie: SIGTERM may be
                # ignored by a hung worker, and an unjoined child is
                # never reaped. Escalate terminate→join→kill→join so
                # stop() always leaves zero alive children behind.
                process.terminate()
                await loop.run_in_executor(None, process.join, 2.0)
            if process.is_alive():
                process.kill()
                await loop.run_in_executor(None, process.join, 2.0)

    def _shard_keys(self, index: int) -> List[str]:
        return sorted(
            key for key, owners in self._key_replicas.items()
            if index in owners
        )

    async def _spawn_shard(self, handle: _ShardHandle) -> None:
        """Spawn (or respawn) one worker and wait for its handshake."""
        parent, child = socket.socketpair()
        process = self._mp.Process(
            target=shard_main,
            args=(
                child,
                self.store_dir,
                self._shard_keys(handle.index),
                handle.index,
            ),
            daemon=True,
            name=f"repro-shard-{handle.index}",
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, process.start)
        child.close()
        # Owned by the handle before the handshake, so a stop() that
        # cancels a respawn mid-handshake still reaps the new worker.
        handle.process = process
        reader, writer = await asyncio.open_connection(sock=parent)
        try:
            ready, _ = await asyncio.wait_for(
                read_frame_async(reader),
                timeout=self.config.start_timeout_s,
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
            writer.close()
            process.terminate()
            raise ShardCrashError(
                f"shard {handle.index} never came up: "
                f"{type(error).__name__}"
            ) from error
        if ready.get("kind") != "ready":  # pragma: no cover - defensive
            raise ShardCrashError(
                f"shard {handle.index} sent {ready.get('kind')!r} "
                "instead of the ready handshake"
            )
        handle.sock = parent
        handle.reader = reader
        handle.writer = writer
        # One queue per handle, reused across respawns: requests that
        # arrive while the shard is being respawned sit here and are
        # served by the new worker instead of orphaning until deadline.
        if handle.queue is None:
            handle.queue = asyncio.Queue()
        handle.carry = None
        handle.store_pss_bytes = ready.get("store_pss_bytes")
        handle.alive = True
        handle.tasks = [
            asyncio.ensure_future(self._reader_task(handle)),
            asyncio.ensure_future(self._sender_task(handle)),
        ]

    async def _on_shard_death(self, handle: _ShardHandle) -> None:
        """Fail the shard's in-flight requests; respawn if budget allows."""
        if not handle.alive:
            return
        handle.alive = False
        for task in handle.tasks:
            if task is not asyncio.current_task():
                task.cancel()
        if handle.writer is not None:
            try:
                handle.writer.close()
            except (OSError, RuntimeError):  # pragma: no cover
                pass
        pid = (
            handle.process.pid if handle.process is not None else None
        )
        # Every live request is pending, whether sent, carried by the
        # sender or still queued; the queue's other items are control
        # frames and requests already abandoned on their deadline.
        crashed = list(handle.pending.values())
        handle.pending.clear()
        handle.pending_rows = 0
        handle.carry = None
        while handle.queue is not None and not handle.queue.empty():
            handle.queue.get_nowait()
        for item in crashed:
            if item.charge:
                self.metrics.record_crash_failures(
                    handle.index, item.charge, key=item.key
                )
            if not item.future.done():
                item.future.set_exception(
                    ShardCrashError(
                        f"shard {handle.index} (pid {pid}) died with "
                        f"request {item.id} in flight"
                    )
                )
        if self._stopping:
            return
        if handle.respawns >= self.config.max_respawns:
            handle.dead_forever = True
            return
        handle.respawns += 1
        self.metrics.record_respawn(handle.index)
        try:
            await self._spawn_shard(handle)
        except Exception:
            handle.dead_forever = True
            raise

    # -- internals: per-shard tasks (loop thread) -----------------------
    async def _reader_task(self, handle: _ShardHandle) -> None:
        """Dispatch answer frames to their waiting futures."""
        try:
            while True:
                header, arrays = await read_frame_async(handle.reader)
                item = handle.pending.pop(header.get("id"), None)
                if item is None:
                    continue  # deadline-abandoned or unknown
                handle.pending_rows -= item.n
                if item.future.done():
                    continue
                kind = header.get("kind")
                if kind == "result":
                    item.future.set_result((header, arrays))
                elif kind == "error":
                    etype = header.get("etype")
                    message = header.get("error", "shard error")
                    if etype == "deadline":
                        self.metrics.record_deadline_expired(
                            handle.index, item.key, item.charge
                        )
                        item.future.set_exception(DeadlineError(message))
                    else:
                        item.future.set_exception(ServingError(message))
                else:
                    item.future.set_result(header)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            try:
                await self._on_shard_death(handle)
            except Exception:
                pass  # respawn failed; dead_forever is already set
        except asyncio.CancelledError:
            raise

    async def _sender_task(self, handle: _ShardHandle) -> None:
        """Single writer: coalesce same-key predicts, ship frames."""
        try:
            while True:
                if handle.carry is not None:
                    item, handle.carry = handle.carry, None
                else:
                    item = await handle.queue.get()
                if isinstance(item, _ControlItem):
                    header = item.header
                    if item.expiry is not None:
                        # Relative budget attached at write time: the
                        # shard re-anchors it on its own monotonic
                        # clock, so wall-clock steps can't expire it.
                        header = dict(
                            header,
                            budget=max(
                                item.expiry - time.monotonic(), 0.0
                            ),
                        )
                    await write_frame_async(
                        handle.writer, header, item.arrays
                    )
                    continue
                batch = [item]
                rows = item.n
                while rows < self.config.max_batch_rows:
                    try:
                        nxt = handle.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if (
                        isinstance(nxt, _PredictItem)
                        and nxt.key == item.key
                    ):
                        batch.append(nxt)
                        rows += nxt.n
                    else:
                        handle.carry = nxt
                        break
                live = [b for b in batch if not b.future.done()]
                if not live:
                    continue
                now = time.monotonic()
                await write_frame_async(
                    handle.writer,
                    {
                        "kind": "predict",
                        "key": item.key,
                        "reqs": [
                            {
                                "id": b.id,
                                "n": b.n,
                                "budget": max(b.expiry - now, 0.0),
                            }
                            for b in live
                        ],
                    },
                    [
                        np.concatenate([b.x for b in live], axis=0),
                        np.concatenate([b.states for b in live]),
                    ],
                )
        except (ConnectionError, OSError):
            try:
                await self._on_shard_death(handle)
            except Exception:
                pass  # respawn failed; dead_forever is already set
        except asyncio.CancelledError:
            raise

    # -- internals: request submission (loop thread) --------------------
    def _candidates(self, key: str) -> List[_ShardHandle]:
        """Replica handles to try for ``key``, in failover order.

        Live replicas first (primary leading), then replicas currently
        mid-respawn (their persistent queue survives the respawn, so
        queueing there is better than failing when nothing is live).
        Permanently-dead shards never appear.
        """
        handles = [
            self._shards[index] for index in self._key_replicas[key]
        ]
        live = [h for h in handles if h.alive and not h.dead_forever]
        respawning = [
            h for h in handles if not h.alive and not h.dead_forever
        ]
        return live + respawning

    async def _submit(
        self,
        key: str,
        expiry: float,
        count: int,
        attempt: Callable[[_ShardHandle, float], Awaitable[Any]],
    ) -> Tuple[Any, int]:
        """Run ``attempt(handle, attempt_expiry)`` with replica failover;
        returns (its reply, serving shard index).

        Each attempt gets an equal slice of the remaining monotonic
        budget (the final attempt gets all of it), so a hung primary
        burns only its slice before the request moves to a replica. A
        :class:`ShardCrashError` fails over immediately; a
        :class:`DeadlineError` fails over while overall budget remains.
        Each failover counts ``count`` (rows for a predict, 1 for a
        yield).
        """
        candidates = self._candidates(key)
        if not candidates:
            raise ShardCrashError(
                f"every replica of {key!r} "
                f"({self._key_replicas[key]}) exhausted its respawn "
                f"budget ({self.config.max_respawns}); unservable"
            )
        for tried, handle in enumerate(candidates):
            remaining = expiry - time.monotonic()
            attempts_left = len(candidates) - tried
            attempt_expiry = (
                expiry
                if attempts_left == 1
                else time.monotonic() + remaining / attempts_left
            )
            try:
                return await attempt(handle, attempt_expiry), handle.index
            except (ShardCrashError, DeadlineError):
                if attempts_left == 1 or expiry - time.monotonic() <= 0:
                    raise
                self.metrics.record_failover(
                    handle.index, candidates[tried + 1].index, key, count
                )
        raise AssertionError("unreachable")  # pragma: no cover

    async def _attempt_predict(
        self,
        handle: _ShardHandle,
        key: str,
        x: np.ndarray,
        states: np.ndarray,
        expiry: float,
    ) -> Tuple[Dict, List[np.ndarray]]:
        """One replica attempt: admission, enqueue, bounded wait."""
        n = int(x.shape[0])
        if handle.pending_rows + n > self.config.max_queue_rows:
            self.metrics.record_shed(handle.index, key, n)
            raise ShedError(
                f"shard {handle.index} queue is full "
                f"({handle.pending_rows} rows in flight, bound "
                f"{self.config.max_queue_rows}); request of {n} rows shed"
            )
        item = _PredictItem(
            id=next(self._ids),
            key=key,
            x=x,
            states=states,
            expiry=expiry,
            future=asyncio.get_event_loop().create_future(),
        )
        handle.pending[item.id] = item
        handle.pending_rows += n
        await handle.queue.put(item)
        timeout = expiry - time.monotonic()
        try:
            return await asyncio.wait_for(item.future, timeout=timeout)
        except asyncio.TimeoutError:
            if handle.pending.pop(item.id, None) is not None:
                handle.pending_rows -= n
            self.metrics.record_deadline_expired(handle.index, key, n)
            raise DeadlineError(
                f"request {item.id} ({n} rows on shard {handle.index}) "
                f"expired after {max(timeout, 0.0):.3f}s"
            ) from None

    async def _attempt_yield(
        self,
        handle: _ShardHandle,
        key: str,
        specs: List[Dict],
        n_samples: int,
        seed: int,
        confidence: float,
        expiry: float,
    ) -> Dict:
        """One replica attempt of a yield report: enqueue, bounded wait.

        Registered in ``handle.pending`` like a predict, so a worker
        death while the report is computing fails the attempt with
        :class:`ShardCrashError` and moves it to the next replica.
        """
        item = _Waiter(
            id=next(self._ids),
            key=key,
            charge=1,
            future=asyncio.get_event_loop().create_future(),
        )
        header = {
            "kind": "yield",
            "id": item.id,
            "key": key,
            "specs": specs,
            "n_samples": n_samples,
            "seed": seed,
            "confidence": confidence,
        }
        handle.pending[item.id] = item
        await handle.queue.put(_ControlItem(header=header, expiry=expiry))
        timeout = expiry - time.monotonic()
        try:
            return await asyncio.wait_for(item.future, timeout=timeout)
        except asyncio.TimeoutError:
            handle.pending.pop(item.id, None)
            self.metrics.record_deadline_expired(handle.index, key, 1)
            raise DeadlineError(
                f"yield request {item.id} on shard {handle.index} "
                f"expired after {max(timeout, 0.0):.3f}s"
            ) from None

    async def _enqueue_control(self, index: int, header: Dict) -> None:
        handle = self._shards[index]
        if handle.queue is None:
            raise ShardCrashError(f"shard {index} is down")
        await handle.queue.put(_ControlItem(header=header))

    async def _control_roundtrip(
        self, index: int, header: Dict
    ) -> Dict:
        """Send a control frame expecting a reply; wait for it."""
        handle = self._shards[index]
        if not handle.alive:
            raise ShardCrashError(f"shard {index} is down")
        item = _Waiter(
            id=next(self._ids),
            key=None,
            charge=0,
            future=asyncio.get_event_loop().create_future(),
        )
        header = dict(header, id=item.id)
        handle.pending[item.id] = item
        await handle.queue.put(_ControlItem(header=header))
        try:
            reply = await asyncio.wait_for(
                item.future, timeout=self.config.start_timeout_s
            )
        except asyncio.TimeoutError:
            handle.pending.pop(item.id, None)
            raise DeadlineError(
                f"shard {index} did not answer a "
                f"{header.get('kind')!r} frame within "
                f"{self.config.start_timeout_s}s"
            ) from None
        if isinstance(reply, dict):
            return reply
        raise ServingError(  # pragma: no cover - defensive
            f"unexpected control reply {reply!r}"
        )

    async def _collect_metrics(self) -> List[Dict]:
        replies = await asyncio.gather(
            *(
                self._control_roundtrip(handle.index, {"kind": "metrics"})
                for handle in self._shards
                if handle.alive
            ),
            return_exceptions=True,
        )
        return sorted(
            (r for r in replies if isinstance(r, dict)),
            key=lambda r: r.get("shard", 0),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterService(shards={len(self._shards)}, "
            f"routes={sorted(self._routes)}, started={self._started})"
        )
