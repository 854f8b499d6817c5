"""Command-line interface for the reproduction harness.

    python -m repro table1 [--scale small|medium|paper] [--seed N]
    python -m repro table2
    python -m repro fig2 [--metric nf_db|gain_db|iip3_dbm]
    python -m repro fig3 [--metric nf_db|gain_db|i1db_dbm]
    python -m repro all
    python -m repro info
    python -m repro serve-bench [--requests N] [--method NAME]
    python -m repro sweep-fit [--points K] [--train N] [--registry DIR]
    python -m repro yield-report [--spec 'nf_db<=1.55'] [--points K] ...
    python -m repro bench [--quick] [--check] [--update-baseline]
    python -m repro registry list|push|get --root DIR ...
    python -m repro active-fit [--circuit lna|mixer] [--strategy NAME] ...
    python -m repro stream [--batches N] [--drift-shift S] ...
    python -m repro cluster serve-bench [--shards N] [--canary A:B:W] ...

Output is the paper-style text tables; `reproduce_paper.py` in examples/
offers the same through a script, and the benchmark suite wraps the same
entry points with assertions. ``serve-bench`` exercises the serving
subsystem end-to-end (fit → registry push → one-row vs bulk serving),
``registry`` manages a model registry directory, ``active-fit`` runs
the active-learning loop on a circuit (checkpointable with ``--checkpoint``
/ ``--resume``, optionally pushing the converged model to a registry with
its acquisition provenance in the manifest), and ``stream`` runs the
online-ingest loop: seed fit → absorb batches → drift-triggered refits →
registry pushes → serving hot-swaps (record/replay with ``--record`` /
``--replay``, chaos via ``--fault-plan 'stream:nan@2'``).
``sweep-fit`` runs the swept-frequency workload end-to-end: simulate the
K-point S21/NF sweep (state-balanced, so C-BMF takes the Kronecker
solver), fit, push the model set to a registry and verify the frozen
artifacts predict identically after the round-trip.
``yield-report`` fits the same sweep (or loads a pushed model set with
``--registry``/``--key``) and prints the fleet yield report: per-state
pass probability under the ``--spec`` bounds with correlation-shared
shrinkage across the learned K × K prior correlation and an analytic
confidence interval per state (see :mod:`repro.yields`).
``cluster serve-bench`` spins up the horizontal serving cluster —
asyncio gateway over ``--shards`` worker processes sharing one
memmapped model store — drives a concurrent request stream through it,
and prints the per-shard/per-version report; ``--canary
name@vA:name@vB:weight`` routes a weighted split between two registry
versions, and ``--fault-plan 'shard:kill@0'`` kills a shard mid-run to
exercise crash detection and respawn.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro import __version__
from repro.evaluation.report import (
    format_comparison_table,
    format_sweep_table,
)
from repro.paper import (
    METRIC_LABELS,
    SCALES,
    resolve_scale,
    run_cost_table,
    run_figure_sweep,
)

__all__ = ["main"]


def _print_table(circuit: str, title: str, scale, seed: int) -> None:
    results = run_cost_table(circuit, scale, seed=seed)
    print(format_comparison_table(
        f"{title} — {circuit.upper()} (scale: {scale.name})",
        [results["somp"], results["cbmf"]],
        METRIC_LABELS,
    ))
    ratio = (
        results["somp"].cost.total_hours / results["cbmf"].cost.total_hours
    )
    print(f"overall cost reduction: {ratio:.2f}x")


def _print_figure(
    circuit: str, title: str, scale, seed: int, metric: Optional[str]
) -> None:
    try:
        sweep = run_figure_sweep(
            circuit,
            scale,
            seed=seed,
            metrics=(metric,) if metric else None,
        )
    except KeyError as error:
        raise SystemExit(f"unknown metric: {error}") from error
    for name in (metric,) if metric else sweep.metric_names:
        print(format_sweep_table(
            title, sweep, name, METRIC_LABELS.get(name)
        ))
        print()


def _cmd_info(args) -> None:
    print(f"repro {__version__} — C-BMF (DAC 2016) reproduction")
    print(f"scales: {', '.join(sorted(SCALES))}")
    scale = resolve_scale(args.scale)
    print(
        f"active scale: {scale.name} "
        f"(K={scale.n_states}, test {scale.n_test_per_state}/state, "
        f"pool {scale.pool_per_state}/state)"
    )
    from repro.evaluation.methods import available_methods

    print(f"methods: {', '.join(available_methods())}")


def _cmd_serve_bench(args) -> int:
    """Fit, push, then benchmark the serving path (single vs batched)."""
    import tempfile

    import numpy as np

    from repro.circuits.lna import TunableLNA
    from repro.modelset import PerformanceModelSet
    from repro.serving import ModelRegistry, ModelService
    from repro.simulate.montecarlo import MonteCarloEngine

    rng = np.random.default_rng(args.seed)
    lna = TunableLNA(n_states=args.states, n_variables=None)
    print(
        f"fitting {args.method} model set — LNA, K={args.states} states, "
        f"{lna.n_variables} variables, {args.train}/state training samples"
    )
    data = MonteCarloEngine(lna, seed=args.seed).run(args.train + 6)
    train, _ = data.split(args.train)
    started = time.perf_counter()
    models = PerformanceModelSet.fit_dataset(
        train, method=args.method, seed=args.seed
    )
    print(f"fit {len(models.metric_names)} metrics "
          f"in {time.perf_counter() - started:.2f}s")

    def run(registry):
        entry = registry.push("lna", models)
        print(f"pushed {entry.key} -> {entry.path}")

        n = args.requests
        pool = rng.standard_normal((args.pool, lna.n_variables))
        x = pool[rng.integers(0, args.pool, n)]
        states = rng.integers(0, args.states, n)

        def single_pass():
            service = ModelService(registry)
            service.load("lna@latest")
            t0 = time.perf_counter()
            for i in range(n):
                service.predict("lna", x[i], states[i])
            return time.perf_counter() - t0, service

        def batched_pass():
            service = ModelService(registry)
            service.load("lna@latest")
            t0 = time.perf_counter()
            results = service.predict_many("lna", x, states)
            return time.perf_counter() - t0, service, results

        single_pass()  # warm numpy/BLAS so the comparison is fair
        batched_pass()
        # Best-of-N: a shared box's scheduler noise dwarfs the effect
        # being measured, and the minimum is the least-noisy estimator.
        t_single = min(single_pass()[0] for _ in range(args.trials))
        t_batch, service, results = batched_pass()
        for _ in range(args.trials - 1):
            t_again, _, _ = batched_pass()
            t_batch = min(t_batch, t_again)

        # Bit-identity: the engine computes one FrozenModel.predict per
        # state on that state's stacked rows in request order; mirror
        # that exact call here.
        frozen = models.freeze()
        worst = 0.0
        for state in range(args.states):
            rows = np.flatnonzero(states == state)
            if not rows.size:
                continue
            design = models.basis.expand(x[rows])
            for metric, model in frozen.items():
                served = np.array([results[i].values[metric] for i in rows])
                diff = np.abs(served - model.predict(design, state))
                worst = max(worst, float(diff.max()))
        identical = worst == 0.0
        snapshot = service.metrics.snapshot()
        print()
        print(f"requests            {n} "
              f"({args.pool} unique points x {args.states} states)")
        print(f"single-request      {t_single:.3f}s "
              f"({n / t_single:,.0f} req/s)")
        print(f"micro-batched       {t_batch:.3f}s "
              f"({n / t_batch:,.0f} req/s)")
        print(f"speedup             {t_single / t_batch:.1f}x")
        print(f"bit-identical       {identical} "
              f"(max |diff| = {worst:.1e})")
        print(f"batches             {snapshot['batches']} "
              f"(mean size {snapshot['mean_batch_size']:.0f})")
        print(f"p50 / p95 latency   {snapshot['p50_latency_ms']:.4f} / "
              f"{snapshot['p95_latency_ms']:.4f} ms")
        return 0 if identical else 1

    if args.registry:
        return run(ModelRegistry(args.registry))
    with tempfile.TemporaryDirectory() as tmp:
        return run(ModelRegistry(tmp))


def _cmd_sweep_fit(args) -> int:
    """Swept-frequency fit: simulate → Kronecker-path fit → registry."""
    import tempfile

    import numpy as np

    from repro.modelset import PerformanceModelSet
    from repro.paper import simulate_sweep
    from repro.serving import ModelRegistry

    print(
        f"simulating lna_sweep — {args.points} frequency points, "
        f"{args.train} shared process samples"
    )
    started = time.perf_counter()
    train = simulate_sweep(
        n_points=args.points,
        n_samples_per_state=args.train,
        seed=args.seed,
    )
    print(f"dataset ready in {time.perf_counter() - started:.2f}s "
          f"(K={train.n_states}, {train.n_variables} variables)")

    metrics = (args.metric,) if args.metric else None
    started = time.perf_counter()
    models = PerformanceModelSet.fit_dataset(
        train, method="cbmf", metrics=metrics, seed=args.seed
    )
    elapsed = time.perf_counter() - started
    solvers = {
        metric: getattr(
            getattr(models.model(metric), "predictor", None),
            "solver",
            "dense",
        )
        for metric in models.metric_names
    }
    print(f"fit {len(models.metric_names)} metrics in {elapsed:.2f}s "
          f"(posterior solver: "
          f"{', '.join(f'{m}={s}' for m, s in sorted(solvers.items()))})")

    def run(registry):
        entry = registry.push(args.name, models)
        print(f"pushed {entry.key} -> {entry.path}")
        loaded = registry.load(entry.key)

        rng = np.random.default_rng(args.seed)
        probe = rng.standard_normal((8, train.n_variables))
        worst = 0.0
        for state in (0, train.n_states // 2, train.n_states - 1):
            live = models.predict(probe, state)
            back = loaded.predict(probe, state)
            for metric in models.metric_names:
                worst = max(
                    worst,
                    float(np.max(np.abs(live[metric] - back[metric]))),
                )
        ok = worst <= 1e-12
        print(f"round-trip          parity={'ok' if ok else 'FAILED'} "
              f"(max |live - reloaded| = {worst:.1e})")
        return 0 if ok else 1

    if args.registry:
        return run(ModelRegistry(args.registry))
    with tempfile.TemporaryDirectory() as tmp:
        return run(ModelRegistry(tmp))


#: Default pass/fail bounds of ``yield-report`` on the lna_sweep
#: metrics — chosen so the per-state yield actually varies across the
#: sweep (the regime shrinkage is for). Loading other metrics via
#: ``--key`` requires explicit ``--spec``.
DEFAULT_SWEEP_SPECS = ("s21_db>=16.5", "nf_db<=1.55")


def _cmd_yield_report(args) -> int:
    """Fleet yield report: fit (or load) a model set, shrink, print."""
    from repro.applications.yield_estimation import Specification
    from repro.modelset import PerformanceModelSet
    from repro.paper import simulate_sweep
    from repro.yields import (
        compute_yield_report,
        format_yield_report,
        report_to_dict,
    )

    if args.key and not args.spec:
        print(
            "--key loads arbitrary metrics; pass at least one --spec "
            "like 'nf_db<=1.55'",
            file=sys.stderr,
        )
        return 2
    spec_texts = list(args.spec) if args.spec else list(DEFAULT_SWEEP_SPECS)
    specs = [Specification.parse(text) for text in spec_texts]

    if args.key:
        from repro.serving import ModelRegistry

        if not args.registry:
            print("--key requires --registry", file=sys.stderr)
            return 2
        models = ModelRegistry(args.registry).load(args.key)
        print(f"loaded {args.key} from {args.registry} "
              f"(K={models.n_states}, "
              f"metrics: {', '.join(models.metric_names)})")
    else:
        print(
            f"simulating lna_sweep — {args.points} frequency points, "
            f"{args.train} shared process samples"
        )
        train = simulate_sweep(
            n_points=args.points,
            n_samples_per_state=args.train,
            seed=args.seed,
        )
        started = time.perf_counter()
        models = PerformanceModelSet.fit_dataset(
            train, method="cbmf", seed=args.seed
        )
        print(f"fit {len(models.metric_names)} metrics in "
              f"{time.perf_counter() - started:.2f}s")

    started = time.perf_counter()
    report = compute_yield_report(
        models.as_mapping(),
        models.basis,
        specs,
        n_samples=args.samples,
        seed=args.seed,
        confidence=args.confidence,
    )
    elapsed = time.perf_counter() - started
    print(format_yield_report(report, max_rows=args.max_rows))
    print(f"[{report.n_states} states x {args.samples} samples "
          f"in {elapsed:.2f}s]")
    if args.json:
        from pathlib import Path

        payload = report_to_dict(report)
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    if not report.correlation_shared:
        print(
            "warning: no learned correlation on the loaded models — "
            "intervals are the independent per-state fallback",
            file=sys.stderr,
        )
    return 0


def _cmd_active_fit(args) -> int:
    """Actively fit one circuit metric; optionally push to a registry."""
    from repro.active import (
        ActiveFitConfig,
        ActiveFitLoop,
        CircuitOracle,
        StoppingRule,
        push_result,
    )
    from repro.circuits.lna import TunableLNA
    from repro.circuits.mixer import TunableMixer
    from repro.evaluation.methods import make_acquisition
    from repro.evaluation.report import format_active_history
    from repro.simulate.cost import LNA_COST_MODEL, MIXER_COST_MODEL

    circuit_cls = {"lna": TunableLNA, "mixer": TunableMixer}[args.circuit]
    cost_model = {
        "lna": LNA_COST_MODEL, "mixer": MIXER_COST_MODEL
    }[args.circuit]
    circuit = circuit_cls(n_states=args.states, n_variables=None)
    metric = args.metric or circuit.metric_names[0]
    oracle = CircuitOracle(circuit, metric, max_retries=args.max_retries)
    if args.fault_plan:
        from repro.faults import FaultPlan, FaultyOracle

        plan = FaultPlan.parse(args.fault_plan, seed=args.seed)
        oracle = FaultyOracle(oracle, plan)
        print(f"fault injection active: {args.fault_plan!r}")

    kwargs = {}
    if args.strategy in ("variance", "cost_weighted"):
        kwargs["explore_fraction"] = args.explore
    if args.strategy == "cost_weighted":
        kwargs["state_costs"] = (
            [cost_model.seconds_per_sample] * circuit.n_states
        )
    if args.strategy == "yield_variance":
        if not args.spec:
            print(
                "--strategy yield_variance requires at least one --spec "
                f"bound on {metric!r}, e.g. --spec '{metric}<=1.5'",
                file=sys.stderr,
            )
            return 2
        kwargs["specs"] = list(args.spec)
    strategy = make_acquisition(args.strategy, **kwargs)

    config = ActiveFitConfig(
        metric=metric,
        strategy=strategy,
        init_per_state=args.init,
        batch_per_round=args.batch,
        n_candidates=args.candidates,
        holdout_per_state=args.holdout,
        stopping=StoppingRule(
            max_rounds=args.rounds, max_samples=args.budget
        ),
        seed=args.seed,
        checkpoint_dir=args.checkpoint,
        max_retries=args.max_retries,
    )
    loop = ActiveFitLoop(oracle, config)
    print(
        f"active-fit {args.circuit}:{metric} — K={circuit.n_states}, "
        f"{circuit.n_variables} variables, strategy={strategy.name}, "
        f"seed={args.seed}"
    )
    result = loop.run(resume=args.resume)
    print(format_active_history(result.history))
    cost = result.ledger.modeling_cost(cost_model)
    print(
        f"simulations: {result.ledger.total} "
        f"(per state: {list(result.ledger.per_state)}) "
        f"~ {cost.simulation_hours:.2f} modeled hours"
    )
    if args.registry:
        from repro.serving import ModelRegistry

        entry = push_result(
            ModelRegistry(args.registry),
            args.name or args.circuit,
            result,
            loop.basis,
            cost_model=cost_model,
        )
        print(f"pushed {entry.key} -> {entry.path}")
        print(json.dumps(entry.manifest["acquisition"], indent=2,
                         sort_keys=True))
    return 0


def _cmd_stream(args) -> int:
    """Run the streaming loop: seed fit → absorb → refit → push → swap."""
    import tempfile

    import numpy as np

    from repro.basis.polynomial import LinearBasis
    from repro.core.cbmf import CBMF
    from repro.errors import SimulationError
    from repro.serving import ModelRegistry, ModelService
    from repro.streaming import (
        DriftConfig,
        OnlineCBMF,
        OracleStream,
        ReplayStream,
        ShiftedOracle,
        StreamingConfig,
        StreamingService,
        record_stream,
    )

    rng = np.random.default_rng(args.seed)
    if args.circuit:
        from repro.active import CircuitOracle
        from repro.circuits.lna import TunableLNA
        from repro.circuits.mixer import TunableMixer

        circuit_cls = {"lna": TunableLNA, "mixer": TunableMixer}
        circuit = circuit_cls[args.circuit](
            n_states=args.states, n_variables=None
        )
        metric = args.metric or circuit.metric_names[0]
        oracle = CircuitOracle(circuit, metric)
    else:
        from repro.active import SyntheticOracle

        # A sparse linear ground truth with correlated per-state rows —
        # the regime the streaming posterior is exact for.
        metric = args.metric or "value"
        coef = np.zeros((args.states, args.variables + 1))
        coef[:, 0] = rng.normal(1.0, 0.5)
        active = rng.choice(
            args.variables, size=min(4, args.variables), replace=False
        )
        for j in active:
            coef[:, j + 1] = rng.normal(0.0, 1.0) + rng.normal(
                0.0, 0.1, size=args.states
            )
        oracle = SyntheticOracle(coef, noise_std=0.05, metric=metric)
    basis = LinearBasis(oracle.n_variables)

    print(
        f"seed fit {oracle.name}:{metric} — K={oracle.n_states}, "
        f"{oracle.n_variables} variables, {args.train}/state warm-up"
    )
    inputs = [
        rng.standard_normal((args.train, oracle.n_variables))
        for _ in range(oracle.n_states)
    ]
    targets = [oracle.observe(x, k) for k, x in enumerate(inputs)]
    fitted = CBMF(seed=args.seed).fit(basis.expand_states(inputs), targets)
    online = OnlineCBMF.from_cbmf(fitted, basis=basis, metric=metric)

    if args.drift_shift is not None:
        drift_at = (
            args.drift_at if args.drift_at is not None
            else args.batches // 2
        )
        oracle = ShiftedOracle(
            oracle, shift=args.drift_shift, after_calls=drift_at
        )
        print(
            f"drift injection: +{args.drift_shift} after observe() call "
            f"{drift_at}"
        )

    if args.replay:
        stream = ReplayStream(args.replay)
        print(f"replaying {len(stream)} batches from {args.replay}")
    else:
        stream = OracleStream(
            oracle,
            n_batches=args.batches,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        if args.record:
            batches = list(stream)
            record_stream(batches, args.record)
            print(f"recorded {len(batches)} batches -> {args.record}")
            stream = batches

    plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        plan = FaultPlan.parse(args.fault_plan, seed=args.seed)
        print(f"fault injection active: {args.fault_plan!r}")

    config = StreamingConfig(
        name=args.name,
        push_every=args.push_every,
        drift=DriftConfig(threshold=args.drift_threshold),
        fault_plan=plan,
        refit_window=args.refit_window,
    )

    def run(registry):
        serving = ModelService(registry)
        service = StreamingService(
            online, registry, config, serving=serving
        )
        try:
            report = service.run(stream)
        except SimulationError as error:
            print(f"stream aborted: {error}", file=sys.stderr)
            return 1
        summary = report.summary()
        snapshot = service.metrics.snapshot()
        print()
        print(f"batches             {summary['batches']} "
              f"(absorbed {summary['absorbed']}, "
              f"quarantined {summary['quarantined']})")
        print(f"rows absorbed       {snapshot['rows_absorbed']} "
              f"(posterior now {service.online.n_rows} rows)")
        print(f"drift refits        {summary['refits']}")
        drifted = [r.index for r in report.records if r.drifted]
        if drifted:
            print(f"drift flagged at    batches {drifted}")
        print(f"published           {snapshot['pushes']} versions "
              f"(final: {summary['final_key']})")
        print(f"hot swaps           {snapshot['swaps']} ok / "
              f"{snapshot['swap_failures']} failed")
        if snapshot["p50_absorb_ms"] is not None:
            print(f"absorb p50 / p95    "
                  f"{snapshot['p50_absorb_ms']:.3f} / "
                  f"{snapshot['p95_absorb_ms']:.3f} ms")
        served = serving.served_model(args.name)
        probe = rng.standard_normal(oracle.n_variables)
        result = serving.predict(args.name, probe, 0)
        print(f"serving             {args.name}@v{served.version} "
              f"({metric} at a probe point: "
              f"{result.values[metric]:.4f})")
        return 0

    if args.registry:
        return run(ModelRegistry(args.registry))
    with tempfile.TemporaryDirectory() as tmp:
        return run(ModelRegistry(tmp))


def _parse_canary(spec: str):
    """Parse ``name@vA:name@vB:weight`` into ``(stable, canary, weight)``."""
    parts = spec.rsplit(":", 1)
    if len(parts) != 2:
        raise SystemExit(
            f"bad --canary spec {spec!r}; want name@vA:name@vB:weight"
        )
    keys, weight_text = parts[0].split(":"), parts[1]
    if len(keys) != 2:
        raise SystemExit(
            f"bad --canary spec {spec!r}; want name@vA:name@vB:weight"
        )
    try:
        weight = float(weight_text)
    except ValueError:
        raise SystemExit(
            f"bad --canary weight {weight_text!r}; want a float in [0, 1]"
        ) from None
    return keys[0], keys[1], weight


def _fit_demo_fleet(args):
    """Fit the demo LNA model set used by the cluster subcommands."""
    from repro.circuits.lna import TunableLNA
    from repro.modelset import PerformanceModelSet
    from repro.simulate.montecarlo import MonteCarloEngine

    lna = TunableLNA(n_states=args.states, n_variables=None)
    print(
        f"fitting {args.method} model set — LNA, K={args.states} states, "
        f"{lna.n_variables} variables, {args.train}/state training samples"
    )
    data = MonteCarloEngine(lna, seed=args.seed).run(args.train + 4)
    train, _ = data.split(args.train)
    models = PerformanceModelSet.fit_dataset(
        train, method=args.method, seed=args.seed
    )
    return lna, models


def _cluster_config(args):
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        n_shards=args.shards,
        replication=args.replication,
        max_queue_rows=args.queue_rows,
        default_deadline_s=args.deadline,
    )


def _cmd_cluster(args) -> int:
    if args.cluster_command == "serve":
        return _cluster_serve(args)
    if args.connect:
        return _cluster_connect_bench(args)
    return _cluster_serve_bench(args)


def _cluster_serve(args) -> int:
    """Fit a demo fleet and serve it over a TCP/Unix listener."""
    import tempfile

    from repro.cluster import ClusterListener, ClusterService
    from repro.serving import ModelRegistry

    _, models = _fit_demo_fleet(args)
    names = [f"lna{i}" for i in range(args.shards)]

    def run(registry):
        for name in names:
            registry.push(name, models)  # v1
            registry.push(name, models)  # v2 (hot-swap/canary target)
        keys = [f"{name}@v1" for name in names]
        service = ClusterService(registry, keys, config=_cluster_config(args))
        with service:
            with ClusterListener(service, args.listen) as listener:
                print(
                    f"cluster listening on {listener.address} — "
                    f"{args.shards} shards, replication "
                    f"{args.replication}, serving {', '.join(names)}",
                    flush=True,
                )
                try:
                    if args.duration > 0:
                        time.sleep(args.duration)
                    else:
                        while True:
                            time.sleep(3600.0)
                except KeyboardInterrupt:
                    print("\nshutting down")
            print(service.report())
        return 0

    if args.registry:
        return run(ModelRegistry(args.registry))
    with tempfile.TemporaryDirectory() as tmp:
        return run(ModelRegistry(tmp))


def _drive_cluster_traffic(names, batches, predict, max_workers):
    """Hammer ``predict(name, x, states)``; return the error tally."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.errors import (
        DeadlineError,
        ServingError,
        ShardCrashError,
        ShedError,
    )

    errors = {"shed": 0, "deadline": 0, "crash": 0, "other": 0}

    def drive(name, chunk):
        for x, states in chunk:
            try:
                predict(name, x, states)
            except ShedError:
                errors["shed"] += 1
            except DeadlineError:
                errors["deadline"] += 1
            except ShardCrashError:
                errors["crash"] += 1
            except ServingError:
                errors["other"] += 1

    def run_chunk(slicer):
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(
                lambda name: drive(name, slicer(batches[name])), names
            ))

    return errors, run_chunk


def _cluster_connect_bench(args) -> int:
    """Client mode: drive an already-listening cluster over the wire."""
    import numpy as np

    from repro.cluster import ClusterClient

    with ClusterClient(args.connect) as probe:
        routes = probe.describe_routes()
        names = sorted(routes)
        if not names:
            print(f"no models served at {args.connect}")
            return 1
        print(
            f"connected to {args.connect}: "
            + ", ".join(
                f"{name}={routes[name]['stable']}" for name in names
            )
        )
        clients = {name: ClusterClient(args.connect) for name in names}
        try:
            batches = {}
            for i, name in enumerate(names):
                n_variables = routes[name].get("n_variables")
                if not n_variables:
                    print(
                        f"{name}: registry manifest records no "
                        "n_variables; cannot size request vectors"
                    )
                    return 1
                rng = np.random.default_rng([args.seed, i])
                batches[name] = [
                    (
                        rng.standard_normal((args.rows, n_variables)),
                        rng.integers(0, args.states, args.rows),
                    )
                    for _ in range(args.requests)
                ]
            errors, run_chunk = _drive_cluster_traffic(
                names,
                batches,
                lambda name, x, states: clients[name].predict_many(
                    name, x, states
                ),
                max_workers=len(names),
            )
            started = time.perf_counter()
            run_chunk(lambda b: b)
            elapsed = time.perf_counter() - started
        finally:
            for client in clients.values():
                client.close()
        total_rows = len(names) * args.requests * args.rows
        print()
        print(f"rows served         {total_rows} in {elapsed:.3f}s "
              f"({total_rows / elapsed:,.0f} rows/s, over TCP)")
        print(f"request failures    shed={errors['shed']} "
              f"deadline={errors['deadline']} "
              f"crash={errors['crash']} other={errors['other']}")
        print()
        print(probe.report())
    return 0


def _cluster_serve_bench(args) -> int:
    """Run the horizontal serving cluster end-to-end and report it."""
    import contextlib
    import tempfile

    import numpy as np

    from repro.cluster import ClusterClient, ClusterListener, ClusterService
    from repro.serving import ModelRegistry

    rng = np.random.default_rng(args.seed)
    lna, models = _fit_demo_fleet(args)

    names = [f"lna{i}" for i in range(args.shards)]
    plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        plan = FaultPlan.parse(args.fault_plan, seed=args.seed)
        print(f"fault injection active: {args.fault_plan!r}")

    def run(registry):
        for name in names:
            registry.push(name, models)  # v1
            registry.push(name, models)  # v2 (canary target)
        keys = [f"{name}@v1" for name in names]
        with ClusterService(
            registry, keys, config=_cluster_config(args)
        ) as cluster:
            if args.canary:
                stable, canary, weight = _parse_canary(args.canary)
                cluster.load(stable)
                cluster.set_canary(
                    stable.split("@", 1)[0], canary, weight
                )
                print(f"canary: {stable} -> {canary} at {weight:.0%}")

            listener = None
            clients = {}
            if args.listen is not None:
                listener = ClusterListener(cluster, args.listen).start()
                print(f"listener: {listener.address} (driving over "
                      "the network)")
                clients = {
                    name: ClusterClient(listener.address)
                    for name in names
                }
                predict = lambda name, x, states: (  # noqa: E731
                    clients[name].predict_many(name, x, states)
                )
            else:
                predict = cluster.predict_many

            batches = {
                name: [
                    (
                        rng.standard_normal((args.rows, lna.n_variables)),
                        rng.integers(0, args.states, args.rows),
                    )
                    for _ in range(args.requests)
                ]
                for name in names
            }
            errors, run_chunk = _drive_cluster_traffic(
                names, batches, predict, max_workers=args.shards
            )
            half = args.requests // 2
            try:
                started = time.perf_counter()
                run_chunk(lambda b: b[:half])
                if plan is not None:
                    applied = cluster.inject_faults(plan)
                    print(f"injected mid-run: {applied}")
                run_chunk(lambda b: b[half:])
                elapsed = time.perf_counter() - started
            finally:
                for client in clients.values():
                    client.close()
                if listener is not None:
                    with contextlib.suppress(Exception):
                        listener.stop()

            total_rows = args.shards * args.requests * args.rows
            print()
            print(f"rows served         {total_rows} in {elapsed:.3f}s "
                  f"({total_rows / elapsed:,.0f} rows/s, "
                  f"{args.shards} shards)")
            print(f"request failures    shed={errors['shed']} "
                  f"deadline={errors['deadline']} "
                  f"crash={errors['crash']} other={errors['other']}")
            print(f"failovers           {cluster.metrics.total_failovers}")
            print()
            print(cluster.report())
        return 0

    if args.registry:
        return run(ModelRegistry(args.registry))
    with tempfile.TemporaryDirectory() as tmp:
        return run(ModelRegistry(tmp))


def _cmd_registry(args) -> int:
    """Registry maintenance: list entries, push artifacts, inspect keys."""
    from pathlib import Path

    from repro.core.frozen import FrozenModel
    from repro.modelset import PerformanceModelSet
    from repro.serving import ModelRegistry, RegistryError

    registry = ModelRegistry(args.root)
    try:
        if args.registry_command == "list":
            entries = registry.list_entries()
            if not entries:
                print(f"(empty registry at {registry.root})")
                return 0
            print(f"{'KEY':<24} {'KIND':<9} {'K':>3} {'M':>5}  "
                  f"{'CREATED':<20} METRICS")
            for entry in entries:
                manifest = entry.manifest
                print(
                    f"{entry.key:<24} {entry.kind:<9} "
                    f"{manifest.get('n_states', '?'):>3} "
                    f"{manifest.get('n_basis', '?'):>5}  "
                    f"{manifest.get('created_at', '?'):<20} "
                    f"{', '.join(entry.metrics)}"
                )
            return 0
        if args.registry_command == "push":
            source = Path(args.path)
            if source.is_dir():
                model = PerformanceModelSet.load_dir(source)
            else:
                model = FrozenModel.load(source)
            entry = registry.push(args.name, model, version=args.set_version)
            print(f"pushed {entry.key} -> {entry.path}")
            return 0
        # get
        entry = registry.entry(args.key)
        registry.load_models(entry.key)  # checksum verification
        print(json.dumps(entry.manifest, indent=2, sort_keys=True))
        if args.dest:
            model = registry.load(entry.key)
            if isinstance(model, FrozenModel):
                dest = Path(args.dest)
                dest.mkdir(parents=True, exist_ok=True)
                model.save(dest / f"{model.metric or 'model'}.npz")
            else:
                model.save_dir(args.dest)
            print(f"exported {entry.key} -> {args.dest}")
        return 0
    except (RegistryError, FileNotFoundError, ValueError) as error:
        raise SystemExit(f"registry error: {error}") from error


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the C-BMF paper's tables and figures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--scale", default=None, choices=sorted(SCALES),
            help="experiment size (default: REPRO_SCALE env or 'small')",
        )
        p.add_argument("--seed", type=int, default=2016)

    for name, help_text in (
        ("table1", "Table 1: LNA error and cost"),
        ("table2", "Table 2: mixer error and cost"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)

    for name, help_text in (
        ("fig2", "Figure 2(b)-(d): LNA error vs samples"),
        ("fig3", "Figure 3(b)-(d): mixer error vs samples"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument(
            "--metric", default=None,
            help="limit to one metric (default: all panels)",
        )

    p = sub.add_parser("all", help="every table and figure")
    common(p)

    p = sub.add_parser("info", help="version, scales, methods")
    common(p)

    p = sub.add_parser(
        "serve-bench",
        help="fit -> registry push -> serve: one-row vs bulk benchmark",
    )
    p.add_argument("--requests", type=int, default=10_000,
                   help="how many mixed-state requests to serve")
    p.add_argument("--pool", type=int, default=2_000,
                   help="unique sample points the requests draw from")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--train", type=int, default=12,
                   help="training samples per state")
    p.add_argument("--method", default="cbmf",
                   help="estimator to fit (default: cbmf)")
    p.add_argument("--registry", default=None,
                   help="persist the registry here (default: temp dir)")
    p.add_argument("--trials", type=int, default=3,
                   help="timing trials per path (best-of-N)")
    p.add_argument("--seed", type=int, default=2016)

    p = sub.add_parser(
        "sweep-fit",
        help="simulate a frequency sweep, fit on the Kronecker path, "
             "verify the registry round-trip",
    )
    p.add_argument("--points", type=int, default=201,
                   help="sweep points K (default: 201, the VNA classic)")
    p.add_argument("--train", type=int, default=10,
                   help="shared process samples per sweep point")
    p.add_argument("--metric", default=None, choices=("s21_db", "nf_db"),
                   help="fit one metric only (default: both)")
    p.add_argument("--registry", default=None,
                   help="persist the registry here (default: temp dir)")
    p.add_argument("--name", default="lna_sweep",
                   help="registry model name (default: 'lna_sweep')")
    p.add_argument("--seed", type=int, default=2016)

    p = sub.add_parser(
        "yield-report",
        help="per-state yield with correlation-shared shrinkage + CIs",
    )
    p.add_argument("--spec", action="append", default=None,
                   help="pass/fail bound 'metric<=x' or 'metric>=x' "
                        "(repeatable; default: the lna_sweep bounds "
                        + " and ".join(repr(s) for s in
                                       DEFAULT_SWEEP_SPECS) + ")")
    p.add_argument("--points", type=int, default=201,
                   help="sweep points K when fitting (default: 201)")
    p.add_argument("--train", type=int, default=10,
                   help="shared process samples per sweep point")
    p.add_argument("--samples", type=int, default=400,
                   help="Monte-Carlo samples per state (default: 400)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="confidence level of the per-state intervals")
    p.add_argument("--registry", default=None,
                   help="load the model set from this registry root")
    p.add_argument("--key", default=None,
                   help="registry key to load (skips the sweep fit)")
    p.add_argument("--json", default=None,
                   help="also write the full report to this JSON file")
    p.add_argument("--max-rows", type=int, default=12,
                   help="worst states shown in the table (default: 12)")
    p.add_argument("--seed", type=int, default=2016)

    from repro.bench import add_bench_parser

    add_bench_parser(sub)

    p = sub.add_parser(
        "active-fit",
        help="actively fit a circuit metric (uncertainty-aware sampling)",
    )
    p.add_argument("--circuit", default="lna", choices=("lna", "mixer"))
    p.add_argument("--metric", default=None,
                   help="metric to fit (default: the circuit's first)")
    p.add_argument(
        "--strategy", default="variance",
        choices=("variance", "random", "cost_weighted", "correlation",
                 "yield_variance"),
        help="acquisition strategy (default: variance)",
    )
    p.add_argument("--spec", action="append", default=None,
                   help="yield bound 'metric<=x' / 'metric>=x' for "
                        "--strategy yield_variance (repeatable)")
    p.add_argument("--states", type=int, default=4,
                   help="number of knob states K")
    p.add_argument("--rounds", type=int, default=6,
                   help="maximum fit/acquire rounds")
    p.add_argument("--init", type=int, default=4,
                   help="random warm-up samples per state")
    p.add_argument("--batch", type=int, default=8,
                   help="simulations bought per round (across states)")
    p.add_argument("--candidates", type=int, default=64,
                   help="candidate pool size per state per round")
    p.add_argument("--holdout", type=int, default=25,
                   help="holdout samples per state for stopping/reporting")
    p.add_argument("--budget", type=int, default=None,
                   help="hard cap on total simulations")
    p.add_argument("--explore", type=float, default=0.25,
                   help="random fraction of each batch (variance family)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="oracle retries before a row is quarantined "
                        "(default: 2)")
    p.add_argument("--fault-plan", default=None,
                   help="deterministic fault injection spec, e.g. "
                        "'oracle:raise@1,3' or 'oracle:nan*2' "
                        "(chaos testing; see repro.faults.FaultPlan.parse)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint directory (resumable with --resume)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint instead of starting fresh")
    p.add_argument("--registry", default=None,
                   help="push the converged model to this registry root")
    p.add_argument("--name", default=None,
                   help="registry model name (default: circuit name)")
    p.add_argument("--seed", type=int, default=2016)

    p = sub.add_parser(
        "stream",
        help="online ingest: absorb batches, drift-refit, publish, swap",
    )
    p.add_argument("--circuit", default=None, choices=("lna", "mixer"),
                   help="stream a real circuit oracle (default: synthetic)")
    p.add_argument("--metric", default=None,
                   help="metric to stream (default: circuit's first, or "
                        "'value' for the synthetic oracle)")
    p.add_argument("--states", type=int, default=3,
                   help="number of knob states K")
    p.add_argument("--variables", type=int, default=8,
                   help="sample dimension of the synthetic oracle")
    p.add_argument("--train", type=int, default=20,
                   help="warm-up samples per state for the seed fit")
    p.add_argument("--batches", type=int, default=12,
                   help="stream length in batches")
    p.add_argument("--batch-size", type=int, default=6,
                   help="rows per batch")
    p.add_argument("--push-every", type=int, default=1,
                   help="publish after every Nth absorbed batch")
    p.add_argument("--drift-shift", type=float, default=None,
                   help="inject a step drift of this size mid-stream")
    p.add_argument("--drift-at", type=int, default=None,
                   help="observe() call the drift engages at "
                        "(default: halfway through the stream)")
    p.add_argument("--drift-threshold", type=float, default=3.0,
                   help="smoothed mean-z² refit trigger (default: 3.0)")
    p.add_argument("--refit-window", type=int, default=None,
                   help="refit on the last N absorbed batches only "
                        "(forgetting window; default: keep everything)")
    p.add_argument("--fault-plan", default=None,
                   help="deterministic fault injection, e.g. "
                        "'stream:nan@2' or 'stream:raise@*3' "
                        "(see repro.faults.FaultPlan.parse)")
    p.add_argument("--registry", default=None,
                   help="persist the registry here (default: temp dir)")
    p.add_argument("--record", default=None,
                   help="record the generated stream to this .npz")
    p.add_argument("--replay", default=None,
                   help="replay a recorded stream .npz instead of "
                        "drawing fresh batches")
    p.add_argument("--name", default="stream",
                   help="registry model name (default: 'stream')")
    p.add_argument("--seed", type=int, default=2016)

    p = sub.add_parser(
        "cluster",
        help="horizontal serving cluster: gateway + shard processes",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)
    p_cbench = cluster_sub.add_parser(
        "serve-bench",
        help="fit -> store export -> multi-shard serving benchmark",
    )
    p_cbench.add_argument("--shards", type=int, default=2,
                          help="shard worker processes (default: 2)")
    p_cbench.add_argument("--requests", type=int, default=40,
                          help="request batches per model name")
    p_cbench.add_argument("--rows", type=int, default=32,
                          help="rows per request batch")
    p_cbench.add_argument("--states", type=int, default=4)
    p_cbench.add_argument("--train", type=int, default=12,
                          help="training samples per state")
    p_cbench.add_argument("--method", default="somp",
                          help="estimator to fit (default: somp)")
    p_cbench.add_argument("--queue-rows", type=int, default=4096,
                          help="admission bound: rows in flight per shard")
    p_cbench.add_argument("--deadline", type=float, default=30.0,
                          help="default per-request deadline in seconds")
    p_cbench.add_argument("--canary", default=None,
                          help="weighted version split, e.g. "
                               "'lna0@v1:lna0@v2:0.3'")
    p_cbench.add_argument("--fault-plan", default=None,
                          help="chaos spec applied mid-run, e.g. "
                               "'shard:kill@0' or 'shard:hang@1'")
    p_cbench.add_argument("--replication", type=int, default=1,
                          help="replicas per model key (default: 1; "
                               "2+ enables failover)")
    p_cbench.add_argument("--listen", default=None,
                          help="serve through a real listener at this "
                               "address (host:port or unix:/path) and "
                               "drive the traffic over it")
    p_cbench.add_argument("--connect", default=None,
                          help="client mode: skip fitting, drive an "
                               "already-listening cluster at this "
                               "address")
    p_cbench.add_argument("--registry", default=None,
                          help="persist the registry here "
                               "(default: temp dir)")
    p_cbench.add_argument("--seed", type=int, default=2016)

    p_cserve = cluster_sub.add_parser(
        "serve",
        help="fit a demo fleet and serve it over TCP/Unix sockets",
    )
    p_cserve.add_argument("--listen", default="127.0.0.1:0",
                          help="bind address: host:port or unix:/path "
                               "(default: 127.0.0.1 on an OS port)")
    p_cserve.add_argument("--duration", type=float, default=0.0,
                          help="serve for this many seconds then exit "
                               "(default: 0 = until interrupted)")
    p_cserve.add_argument("--shards", type=int, default=2,
                          help="shard worker processes (default: 2)")
    p_cserve.add_argument("--replication", type=int, default=1,
                          help="replicas per model key (default: 1)")
    p_cserve.add_argument("--states", type=int, default=4)
    p_cserve.add_argument("--train", type=int, default=12,
                          help="training samples per state")
    p_cserve.add_argument("--method", default="somp",
                          help="estimator to fit (default: somp)")
    p_cserve.add_argument("--queue-rows", type=int, default=4096,
                          help="admission bound: rows in flight per shard")
    p_cserve.add_argument("--deadline", type=float, default=30.0,
                          help="default per-request deadline in seconds")
    p_cserve.add_argument("--registry", default=None,
                          help="persist the registry here "
                               "(default: temp dir)")
    p_cserve.add_argument("--seed", type=int, default=2016)

    p = sub.add_parser("registry", help="manage a model registry directory")
    reg_sub = p.add_subparsers(dest="registry_command", required=True)
    p_list = reg_sub.add_parser("list", help="list every name@version")
    p_push = reg_sub.add_parser(
        "push", help="push a model dir (save_dir) or frozen .npz"
    )
    p_push.add_argument("name", help="model name to push under")
    p_push.add_argument("path", help="model directory or .npz file")
    p_push.add_argument("--set-version", type=int, default=None,
                        help="explicit version (default: auto-increment)")
    p_get = reg_sub.add_parser(
        "get", help="verify + print a key's manifest, optionally export"
    )
    p_get.add_argument("key", help="name, name@latest or name@vN")
    p_get.add_argument("--dest", default=None,
                       help="export the artifact to this directory")
    for reg_parser in (p_list, p_push, p_get):
        reg_parser.add_argument(
            "--root", required=True, help="registry root directory"
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        _cmd_info(args)
        return 0
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "sweep-fit":
        return _cmd_sweep_fit(args)
    if args.command == "yield-report":
        return _cmd_yield_report(args)
    if args.command == "bench":
        from repro.bench import main_bench

        return main_bench(args)
    if args.command == "active-fit":
        return _cmd_active_fit(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "registry":
        return _cmd_registry(args)

    scale = resolve_scale(args.scale)
    started = time.perf_counter()
    if args.command == "table1":
        _print_table("lna", "Table 1", scale, args.seed)
    elif args.command == "table2":
        _print_table("mixer", "Table 2", scale, args.seed)
    elif args.command == "fig2":
        _print_figure(
            "lna", "Figure 2 — tunable LNA", scale, args.seed, args.metric
        )
    elif args.command == "fig3":
        _print_figure(
            "mixer", "Figure 3 — tunable mixer", scale, args.seed,
            args.metric,
        )
    elif args.command == "all":
        _print_figure(
            "lna", "Figure 2 — tunable LNA", scale, args.seed, None
        )
        _print_table("lna", "Table 1", scale, args.seed)
        print()
        _print_figure(
            "mixer", "Figure 3 — tunable mixer", scale, args.seed, None
        )
        _print_table("mixer", "Table 2", scale, args.seed)
    print(f"\n[{time.perf_counter() - started:.0f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
