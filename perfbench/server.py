"""Cluster host for the serve workloads, in its own process tree.

    python3 perfbench/server.py SRC_DIR

Hosts a 2-shard ``ClusterService`` behind a TCP ``ClusterListener`` so
the load generator never shares an interpreter lock with the gateway
loop. Driven by JSON lines on standard input; each reply is one JSON
line on standard output prefixed with ``@@``:

    {"op": "start", "registry": DIR, "keys": [KEY, ...], "store": DIR}
        -> {"address": "127.0.0.1:PORT"}
    {"op": "stop"} -> {}

End of input stops the listener and every shard, then exits.
"""

from __future__ import annotations

import json
import sys
import traceback


def _reply(payload: dict) -> None:
    sys.stdout.write("@@" + json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from common import stop_resource_tracker
    from repro.cluster import ClusterConfig, ClusterService
    from repro.cluster.net import ClusterListener
    from repro.serving import ModelRegistry

    running = []

    def stop() -> None:
        while running:
            running.pop().stop()

    _reply({"booted": True})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            try:
                stop()
                if command["op"] == "start":
                    service = ClusterService(
                        ModelRegistry(command["registry"]),
                        command["keys"],
                        ClusterConfig(n_shards=2),
                        store_dir=command["store"],
                    )
                    service.start()
                    running.append(service)
                    listener = ClusterListener(service, "127.0.0.1:0")
                    running.append(listener.start())
                    _reply({"address": listener.address})
                else:
                    _reply({})
            except Exception:  # report it to the benchmark, keep serving
                _reply({"error": traceback.format_exc()})
    finally:
        stop()
        stop_resource_tracker()


if __name__ == "__main__":
    main()
