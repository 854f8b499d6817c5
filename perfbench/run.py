"""Repository benchmark: four workloads through the public API.

    python3 perfbench/run.py --workload fit_lna --seed 1 --seconds 10 --trace 0

Run from the repository root. Each run builds its inputs from
``--seed``, measures, checks every answer, prints a human-readable
report and, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. A failed answer check exits 1.
See ``perfbench/README.md`` for the workloads and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SPEC_PATH,
    WORK_ROOT,
    Outcome,
    environment,
    forbidden_settings,
    stop_resource_tracker,
)

WORKLOADS = ("fit_lna", "fit_sweep", "serve_mc", "serve_tune")
MAX_PROBLEMS_SHOWN = 20

#: The eleven end-to-end figures, printed by name and unit on every run
#: (``n/a`` where a workload has no such operation). Only those that
#: are steady enough to gate are also JSON ``end_to_end`` metrics.
HEADLINE_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "fit_s": "s",
    "model_err_pct": "%",
    "yield_s": "s",
    "rows_per_s": "rows/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "swap_ms": "ms",
    "max_rps": "req/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name: str):
    if name.startswith("fit_"):
        import fitload as module
    else:
        import serveload as module
    return getattr(module, name)


def _report(outcome: Outcome, spec: dict, trace: bool) -> None:
    print(f"== {outcome.workload}")
    figures = dict(outcome.headline, **outcome.e2e)
    for name, unit in HEADLINE_UNITS.items():
        value = figures.get(name)
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<16} {shown:>14} {unit}")
    gated = ", ".join(
        f"{e['name']}={outcome.e2e[e['name']]:.4f} {e['unit']}"
        for e in spec["end_to_end"] if e["name"] in outcome.e2e
    )
    print(f"  gated            {gated}")
    print(f"  operations       attempted={outcome.attempted} "
          f"succeeded={outcome.attempted - outcome.failed} "
          f"failed={outcome.failed}")
    for key, value in outcome.extra.items():
        print(f"  {key}: {value}")
    if trace:
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        for name, value in sorted(outcome.layers.items()):
            print(f"  [layer] {name:<26} {value:>14.4f} {units.get(name, '')}")
    for line in outcome.warnings:
        print(f"  WARNING: {line}")
    for line in outcome.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED CHECK: {line}")
    if len(outcome.problems) > MAX_PROBLEMS_SHOWN:
        print(f"  ... {len(outcome.problems) - MAX_PROBLEMS_SHOWN} more "
              "failed checks")
    print(f"  environment: {json.dumps(environment(), sort_keys=True)}")


def main(argv=None) -> int:
    args = _parse(argv)
    blocked = forbidden_settings()
    if blocked:
        print(
            f"refusing to run with {', '.join(blocked)} set: the benchmark "
            "measures the library's default solver dispatch and inline CV "
            "grid; unset it and run again",
            file=sys.stderr,
        )
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads(SPEC_PATH.read_text())

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcome = Outcome(args.workload)
    try:
        _workload(args.workload)(
            outcome, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    if outcome.attempted:
        outcome.headline["error_rate"] = outcome.failed / outcome.attempted

    if args.trace:
        pool = dict(outcome.headline, **outcome.layers)
        wanted = [(e, pool.get(e["name"], 0.0)) for e in spec["per_layer"]]
    else:
        wanted = [(e, outcome.e2e[e["name"]]) for e in spec["end_to_end"]]
    metrics = {
        entry["name"]: {"value": float(value), "unit": entry["unit"]}
        for entry, value in wanted
    }
    correct = outcome.attempted > 0 and not outcome.problems
    _report(outcome, spec, bool(args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
