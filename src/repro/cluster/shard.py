"""Shard worker: a PredictionEngine over memmapped models, behind a pipe.

``shard_main`` is the spawn-context entry point of one cluster worker.
At startup it opens the shared :class:`~repro.cluster.store.ModelStore`
(sha256-verified), builds a private
:class:`~repro.serving.engine.PredictionEngine`, instantiates a
:class:`~repro.serving.engine.ServedModel` per assigned ``name@vN`` key
(coefficients stay memmapped — the worker never copies them), measures
the PSS cost of the mapping, and then serves a simple frame loop on its
socket:

``predict``
    One frame may coalesce several gateway sub-requests over the same
    key; each carries its own relative remaining *budget* (seconds),
    stamped at frame-write time on the sender's monotonic clock.
    Requests whose budget is already spent are answered with a
    structured ``deadline`` error (the rows are not computed); the rest
    are answered by **one** ``predict_array`` call (one matmul per
    state group, the hot path of the whole cluster), and each request's
    reply carries its rows of that array as one column per metric.
``yield``
    Computes a correlation-shared yield/moment report for one served
    key (see :mod:`repro.yields`) and answers it entirely inside the
    reply header — per-state yields with CIs are a few KB of JSON at
    K=201. The handler runs under ``tracemalloc`` and reports the
    computation's peak allocation, so the caller can *prove* no
    MK × MK covariance was densified inside the worker.
``metrics``
    Ships the engine's :meth:`ServingMetrics.snapshot` — counters and
    the latency histogram's buckets — plus the store-mapping PSS
    numbers, so the gateway can sum counters and merge histograms into
    fleet quantiles.
``load``
    Re-opens the store manifest (a canary export may have extended it)
    and installs a new key for serving.
``ping`` / ``shutdown``
    Liveness probe / clean exit.
``kill`` / ``hang``
    Chaos hooks (see ``shard:kill@i`` fault specs): hard ``os._exit``
    and stop-reading-forever respectively.

The loop never lets a request error kill the process: computation
failures are answered as structured error frames and the worker keeps
serving. Only a closed socket (gateway gone) or ``shutdown`` ends it.
"""

from __future__ import annotations

import os
import socket
import time
import tracemalloc
from typing import Dict

import numpy as np

from repro.cluster.protocol import read_frame, send_frame
from repro.cluster.store import ModelStore, mapped_pss_bytes
from repro.serving.engine import PredictionEngine, ServedModel

__all__ = ["shard_main"]


def _serve_predict(
    engine: PredictionEngine,
    served: Dict[str, ServedModel],
    sock: socket.socket,
    header: Dict,
    arrays,
) -> None:
    """Answer one (possibly coalesced) predict frame."""
    key = header["key"]
    reqs = header["reqs"]
    x, states = arrays
    if key not in served:
        for req in reqs:
            send_frame(sock, {
                "kind": "error", "id": req["id"], "etype": "serving",
                "error": f"shard does not serve {key!r}",
            })
        return
    # The wire carries a *relative* remaining budget (seconds), stamped
    # by the gateway at frame-write time; each process reads only its
    # own monotonic clock, so an NTP step or cross-host wall-clock skew
    # can neither expire nor immortalize a request. A budget that
    # reached zero before the frame was even written is dead on arrival.
    live, expired = [], []
    for req in reqs:
        budget = req.get("budget")
        if budget is not None and budget <= 0.0:
            expired.append(req)
        else:
            live.append(req)
    for req in expired:
        send_frame(sock, {
            "kind": "error", "id": req["id"], "etype": "deadline",
            "error": (
                "request expired in the gateway queue "
                "(remaining budget 0 at frame-write time)"
            ),
        })
    if not live:
        return
    # Slice the frame's stacked rows down to the still-live requests.
    offsets, cursor = {}, 0
    keep = []
    for req in reqs:
        offsets[req["id"]] = (cursor, cursor + req["n"])
        cursor += req["n"]
    for req in live:
        start, stop = offsets[req["id"]]
        keep.extend(range(start, stop))
    if len(keep) != x.shape[0]:
        index = np.asarray(keep, dtype=int)
        x, states = x[index], states[index]
    model = served[key]
    try:
        out = engine.predict_array(model, x, states)
    except Exception as error:  # answer, never die
        for req in live:
            send_frame(sock, {
                "kind": "error", "id": req["id"], "etype": "serving",
                "error": f"{type(error).__name__}: {error}",
            })
        return
    metrics = list(model.metric_names)
    cursor = 0
    for req in live:
        block = out[cursor:cursor + req["n"]]
        cursor += req["n"]
        send_frame(
            sock,
            {
                "kind": "result",
                "id": req["id"],
                "metrics": metrics,
                "version": model.version,
            },
            list(block.T),
        )


def _serve_yield(
    served: Dict[str, ServedModel],
    sock: socket.socket,
    header: Dict,
) -> None:
    """Answer one yield-report frame, header-only (no binary payload).

    The whole computation — per-state sampling through the memmapped
    models plus the K × K shrinkage solve — runs under ``tracemalloc``;
    the measured peak rides back in the reply so the gateway side can
    assert the shard never materialized anything near an MK × MK
    covariance while answering fleet-wide per-state yields.
    """
    from repro.applications.yield_estimation import Specification
    from repro.yields import compute_yield_report, report_to_dict

    key = header["key"]
    request_id = header.get("id")
    if key not in served:
        send_frame(sock, {
            "kind": "error", "id": request_id, "etype": "serving",
            "error": f"shard does not serve {key!r}",
        })
        return
    budget = header.get("budget")
    if budget is not None and budget <= 0.0:
        send_frame(sock, {
            "kind": "error", "id": request_id, "etype": "deadline",
            "error": (
                "yield request expired in the gateway queue "
                "(remaining budget 0 at frame-write time)"
            ),
        })
        return
    model = served[key]
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        specs = [
            Specification(
                metric=s["metric"], bound=float(s["bound"]), kind=s["kind"]
            )
            for s in header["specs"]
        ]
        report = compute_yield_report(
            model.models,
            model.basis,
            specs,
            n_samples=int(header.get("n_samples", 400)),
            seed=int(header.get("seed", 0)),
            confidence=float(header.get("confidence", 0.95)),
        )
        _, peak_bytes = tracemalloc.get_traced_memory()
    except Exception as error:  # answer, never die
        send_frame(sock, {
            "kind": "error", "id": request_id, "etype": "serving",
            "error": f"{type(error).__name__}: {error}",
        })
        return
    finally:
        if not was_tracing:
            tracemalloc.stop()
    send_frame(sock, {
        "kind": "yield-result",
        "id": request_id,
        "key": key,
        "version": model.version,
        "peak_bytes": int(peak_bytes),
        "report": report_to_dict(report),
    })


def shard_main(
    sock: socket.socket,
    store_dir: str,
    keys,
    shard_index: int,
) -> None:
    """Run one shard worker over its gateway socket until shutdown.

    Spawn-context entry point (module-level, picklable); ``sock`` is
    the worker's end of a ``socketpair`` duplicated into the child.
    Sends a ``ready`` frame — carrying the store size and this
    process's current PSS charge for the mapped store — once every
    assigned key is installed, so the gateway knows when the shard is
    servable.
    """
    store = ModelStore.open(store_dir)
    store.touch()
    engine = PredictionEngine()
    served: Dict[str, ServedModel] = {
        key: store.served_model(key) for key in keys
    }
    send_frame(sock, {
        "kind": "ready",
        "shard": int(shard_index),
        "pid": os.getpid(),
        "keys": sorted(served),
        "store_bytes": int(store.nbytes),
        "store_pss_bytes": mapped_pss_bytes(store_dir),
    })
    while True:
        try:
            header, arrays = read_frame(sock)
        except (EOFError, ConnectionResetError, OSError):
            return
        kind = header.get("kind")
        if kind == "predict":
            _serve_predict(engine, served, sock, header, arrays)
        elif kind == "yield":
            _serve_yield(served, sock, header)
        elif kind == "metrics":
            send_frame(sock, {
                "kind": "metrics-result",
                "id": header["id"],
                "shard": int(shard_index),
                "pid": os.getpid(),
                "engine": engine.metrics.snapshot(),
                "store_bytes": int(store.nbytes),
                "store_pss_bytes": mapped_pss_bytes(store_dir),
            })
        elif kind == "load":
            key = header["key"]
            try:
                if key not in store.keys():
                    store = ModelStore.open(store_dir)
                served[key] = store.served_model(key)
            except Exception as error:
                send_frame(sock, {
                    "kind": "error", "id": header["id"],
                    "etype": "serving",
                    "error": f"{type(error).__name__}: {error}",
                })
                continue
            send_frame(sock, {
                "kind": "loaded", "id": header["id"], "key": key,
            })
        elif kind == "ping":
            send_frame(sock, {"kind": "pong", "id": header["id"]})
        elif kind == "hang":
            # Chaos: stop reading (and answering) without dying — the
            # gateway's per-request deadlines must take over.
            while True:
                time.sleep(3600.0)
        elif kind == "kill":
            # Chaos: die the hard way, mid-protocol.
            os._exit(1)
        elif kind == "shutdown":
            try:
                send_frame(sock, {"kind": "bye"})
            except OSError:  # pragma: no cover - gateway already gone
                pass
            return
        else:
            send_frame(sock, {
                "kind": "error", "id": header.get("id"),
                "etype": "protocol",
                "error": f"unknown frame kind {kind!r}",
            })
