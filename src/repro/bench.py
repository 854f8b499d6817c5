"""Benchmark regression harness — ``python -m repro bench``.

Measures the package's hot paths in six suites and emits
machine-readable reports next to the working directory:

* ``BENCH_fit.json`` — the C-BMF fitting pipeline on the figure-2 LNA
  workload: full ``CBMF.fit``, the S-OMP/cross-validation initializer,
  the EM refinement, one posterior solve and one EM step (the solve plus
  both M-step statistics), with the M-step statistics' parity against
  the dense oracle;
* ``BENCH_serving.json`` — the batched serving engine
  (``predict_many`` throughput on a fitted model set);
* ``BENCH_streaming.json`` — the online-update path (per-batch
  ``OnlineCBMF.absorb`` latency vs a full warm-started refit on the
  same rows);
* ``BENCH_cluster.json`` — the horizontal serving cluster (multi-shard
  ``ClusterService`` throughput vs the single-process ``ModelService``
  on the same request stream, the same stream again over a real TCP
  loopback listener — the socketpair-vs-TCP transport tax — plus the
  shared-memory accounting: the summed PSS cost of N shards mapping
  one store);
* ``BENCH_kron.json`` — the Kronecker posterior solver on the K=201
  swept-frequency workload: full ``CBMF.fit`` through the Kronecker
  path vs the same fit forced onto the dual/Woodbury path
  (``REPRO_POSTERIOR_SOLVER=dual``), a K-scaling curve, and the
  coefficient-parity numbers the speedup is only valid together with;
* ``BENCH_yield.json`` — the correlation-shared yield estimator on the
  same K=201 sweep: per-state yield RMSE of the shrunk estimator vs
  the independent per-state estimator against a 10⁵-sample Monte-Carlo
  ground truth at equal sampling budget, plus the cluster ``yield``
  endpoint's tracemalloc peak (the proof the shard never densifies an
  MK × MK covariance).

Each report carries the workload fingerprint (circuit, scale, shapes,
repeat count) plus environment info, and every timing is the **median**
over ``--repeats`` runs so a single scheduler hiccup cannot fail CI.
``--suite`` selects one report (``fit``/``serving``/``streaming``/
``cluster``/``kron``/``yield``); the default runs all of them.

``--check`` compares the fresh numbers against committed baselines
(``benchmarks/baselines/`` by default) and exits non-zero when any
timing regresses beyond ``--threshold`` (default 1.5×), when the fresh
report fails a gate of its baseline, or when a suite has no baseline.
Gates are data: each baseline carries a ``gates`` list such as
``{"path": "details.speedup_vs_dual", "min": 5}``, checked by
:func:`check_gates`. They hold each suite's absolute claims (the kron
speedup and parity, the fit suite's M-step parity, the yield RMSE win
and memory ceiling) and the work counts its code path fixes (EM
iterations, the posterior solver, state groups per call, rows after the
stream), which do not drift with the host the way timings do.
Baselines are refreshed by re-running with ``--update-baseline`` on a
quiet machine; the gates carry forward unchanged, so a change that
moves a gated count edits the gate in its own diff.

The demo workloads the CLI also drives live here once: the LNA fleet
fit (:func:`demo_fleet`), random request batches
(:func:`request_batches`), the threaded traffic driver
(:func:`drive_requests`), the K-point sweep problem
(:func:`sweep_problem`) and the registry scope
(:func:`registry_scope`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "DEFAULT_SWEEP_SPECS",
    "SUITES",
    "bench_cluster",
    "bench_fit",
    "bench_kron",
    "bench_serving",
    "bench_streaming",
    "bench_yield",
    "check_gates",
    "check_regression",
    "demo_fleet",
    "drive_requests",
    "main_bench",
    "registry_scope",
    "request_batches",
    "sweep_problem",
]

#: Default location of the committed baselines.
BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

#: Default regression gate: fail CI when current > baseline × threshold.
DEFAULT_THRESHOLD = 1.5

#: Pass/fail bounds on the lna_sweep metrics, chosen so the per-state
#: yield actually varies across the sweep (the regime shrinkage is for).
#: The yield suite and ``yield-report`` both use them.
DEFAULT_SWEEP_SPECS = ("s21_db>=16.5", "nf_db<=1.55")


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock of ``repeats`` calls (first call also warms)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return float(statistics.median(samples))


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Demo workloads (shared with the CLI).
# ----------------------------------------------------------------------
@contextlib.contextmanager
def registry_scope(root=None) -> Iterator:
    """A :class:`~repro.serving.ModelRegistry` at ``root``, or in a
    temporary directory removed on exit when ``root`` is empty."""
    from repro.serving import ModelRegistry

    if root:
        yield ModelRegistry(root)
        return
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        yield ModelRegistry(tmp)


def demo_fleet(n_states: int, n_train: int, method: str, seed: int):
    """Fit the demo LNA model set on ``n_train`` rows per state."""
    from repro.circuits.lna import TunableLNA
    from repro.modelset import PerformanceModelSet
    from repro.simulate.montecarlo import MonteCarloEngine

    lna = TunableLNA(n_states=n_states, n_variables=None)
    data = MonteCarloEngine(lna, seed=seed).run(n_train + 4)
    train, _ = data.split(n_train)
    return PerformanceModelSet.fit_dataset(train, method=method, seed=seed)


def request_batches(
    rng: np.random.Generator,
    shapes: Mapping[str, Tuple[int, int]],
    n_requests: int,
    rows: int,
) -> Dict[str, List[Tuple[np.ndarray, np.ndarray]]]:
    """``n_requests`` random ``(x, states)`` batches of ``rows`` rows per
    model name; ``shapes`` maps each name to ``(n_variables, n_states)``."""
    return {
        name: [
            (
                rng.standard_normal((rows, n_variables)),
                rng.integers(0, n_states, rows),
            )
            for _ in range(n_requests)
        ]
        for name, (n_variables, n_states) in shapes.items()
    }


def drive_requests(predict, batches) -> Dict[str, int]:
    """Send every batch through ``predict(name, x, states)``, one thread
    per model name, and tally the typed serving failures.

    Returns the counts of ``shed`` / ``deadline`` / ``crash`` failures
    and of ``other`` serving errors; any other exception propagates.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.errors import (
        DeadlineError,
        ServingError,
        ShardCrashError,
        ShedError,
    )

    kinds = {ShedError: "shed", DeadlineError: "deadline",
             ShardCrashError: "crash"}
    errors = {"shed": 0, "deadline": 0, "crash": 0, "other": 0}
    lock = threading.Lock()

    def drive(name):
        for x, states in batches[name]:
            try:
                predict(name, x, states)
            except ServingError as error:
                with lock:
                    errors[kinds.get(type(error), "other")] += 1

    with ThreadPoolExecutor(max_workers=len(batches)) as pool:
        for future in [pool.submit(drive, name) for name in batches]:
            future.result()
    return errors


def sweep_problem(n_points: int, n_train: int, seed: int):
    """The K-point swept-LNA problem as ``(train, basis, designs)``.

    Every sweep point sees the same ``n_train`` process samples, so the
    designs are state-balanced and C-BMF takes the Kronecker solver.
    """
    from repro.basis.polynomial import LinearBasis
    from repro.paper import simulate_sweep

    train = simulate_sweep(
        n_points=n_points, n_samples_per_state=n_train, seed=seed
    )
    basis = LinearBasis(train.n_variables)
    return train, basis, basis.expand_states(train.inputs())


def _sweep_cbmf(seed: int, max_workers: Optional[int] = None):
    """The kron and yield suites' estimator: a single-point CV grid.

    Every arm deterministically picks the same (r0, σ0, θ), so fits on
    different solver paths are comparable to solver round-off.
    ``max_workers`` is the CV grid's process count (``None`` defers to
    ``REPRO_MAX_WORKERS``).
    """
    from repro.core.cbmf import CBMF
    from repro.core.em import EmConfig
    from repro.core.somp_init import InitConfig

    return CBMF(
        init_config=InitConfig(
            r0_grid=(0.95,),
            sigma0_grid=(0.15,),
            n_basis_grid=(20,),
            n_folds=2,
        ),
        em_config=EmConfig(max_iterations=8),
        seed=seed,
        max_workers=max_workers,
    )


# ----------------------------------------------------------------------
# Suites.
# ----------------------------------------------------------------------
def bench_fit(
    scale_name: str = "medium", repeats: int = 3, seed: int = 2016
) -> dict:
    """Time the fit path on the figure-2 LNA workload at ``scale_name``."""
    from repro.basis.polynomial import LinearBasis
    from repro.core.cbmf import CBMF
    from repro.core.posterior import compute_posterior, compute_posterior_dense
    from repro.core.prior import CorrelatedPrior, ar1_correlation
    from repro.paper import SCALES, load_or_simulate
    from repro.utils.parallel import one_blas_thread

    scale = SCALES[scale_name]
    pool, _ = load_or_simulate("lna", scale, seed)
    train = pool.head(scale.table_cbmf_per_state)
    basis = LinearBasis(pool.n_variables)
    designs = basis.expand_states(train.inputs())
    targets = train.targets("nf_db")

    # Stage timings come from the FitReport of full fits; the posterior
    # and EM-step microbenchmarks isolate the EM inner loop: the E-step
    # solve alone, then the solve plus both M-step statistics it feeds.
    fits = []

    def one_fit():
        model = CBMF(seed=0).fit(designs, targets)
        fits.append(model.report_)

    fit_median = _median_seconds(one_fit, repeats)
    init_median = float(
        statistics.median(r.init_seconds for r in fits)
    )
    em_median = float(statistics.median(r.em_seconds for r in fits))

    prior = CorrelatedPrior(
        lambdas=np.full(basis.n_basis, 0.5),
        correlation=ar1_correlation(len(designs), 0.8),
    )

    def solve():
        return compute_posterior(
            designs, targets, prior, 0.01, want_blocks=True
        )

    def em_step():
        posterior = solve()
        posterior.mstep_lambda_stats(prior.correlation)
        posterior.mstep_scaled_moment(prior.lambdas)

    # Timed on one BLAS thread, the way every fit runs the same calls.
    with one_blas_thread():
        posterior_median = _median_seconds(solve, max(repeats, 5))
        em_step_median = _median_seconds(em_step, max(repeats, 5))
        posterior_solver = solve().solver

    # M-step statistics against the dense oracle's literal einsums on a
    # sub-problem small enough to materialize: first 6 states, first 60
    # basis columns.
    k_sub, m_sub = min(6, len(designs)), min(60, basis.n_basis)
    sub_designs = [d[:, :m_sub] for d in designs[:k_sub]]
    sub_targets = targets[:k_sub]
    sub_prior = CorrelatedPrior(
        lambdas=np.full(m_sub, 0.5),
        correlation=ar1_correlation(k_sub, 0.8),
    )
    fast = compute_posterior(
        sub_designs, sub_targets, sub_prior, 0.01, method="dual"
    )
    dense = compute_posterior_dense(
        sub_designs, sub_targets, sub_prior, 0.01
    )
    pairs = list(
        zip(
            fast.mstep_lambda_stats(sub_prior.correlation),
            dense.mstep_lambda_stats(sub_prior.correlation),
        )
    )
    pairs.append(
        (
            fast.mstep_scaled_moment(sub_prior.lambdas),
            dense.mstep_scaled_moment(sub_prior.lambdas),
        )
    )
    mstep_parity = max(
        float(np.max(np.abs(got - want)) / (np.max(np.abs(want)) or 1.0))
        for got, want in pairs
    )

    report = fits[-1]
    return {
        "kind": "fit",
        "config": {
            "circuit": "lna",
            "metric": "nf_db",
            "scale": scale_name,
            "seed": seed,
            "n_states": len(designs),
            "n_basis": basis.n_basis,
            "n_rows": int(sum(d.shape[0] for d in designs)),
            "repeats": repeats,
        },
        "env": _environment(),
        "timings_seconds": {
            "cbmf_fit": fit_median,
            "somp_init": init_median,
            "em": em_median,
            "posterior_solve": posterior_median,
            "em_step": em_step_median,
        },
        "details": {
            "em_iterations": report.em.n_iterations,
            "em_posterior_seconds": report.em.posterior_seconds,
            "em_mstep_seconds": report.em.mstep_seconds,
            "n_active": report.n_active,
            "posterior_solver": posterior_solver,
            "mstep_vs_dense_parity": mstep_parity,
        },
    }


def bench_serving(
    n_states: int = 4,
    n_train: int = 12,
    n_requests: int = 4000,
    n_pool: int = 1000,
    repeats: int = 3,
    seed: int = 2016,
) -> dict:
    """Time the serving path: bulk ``predict_many`` throughput."""
    from repro.serving import ModelService

    rng = np.random.default_rng(seed)
    models = demo_fleet(n_states, n_train, "cbmf", seed)
    pool = rng.standard_normal((n_pool, models.basis.n_variables))
    x = pool[rng.integers(0, n_pool, n_requests)]
    states = rng.integers(0, n_states, n_requests)

    with registry_scope() as registry:
        registry.push("lna", models)
        service = ModelService(registry)
        service.load("lna@latest")
        service.predict_many("lna", x, states)  # warm BLAS
        # The warm call is the service's first, so its batch counter
        # holds the kernel calls one call makes.
        kernel_calls = service.metrics.snapshot()["batches"]
        batched_median = _median_seconds(
            lambda: service.predict_many("lna", x, states), repeats
        )

    return {
        "kind": "serving",
        "config": {
            "circuit": "lna",
            "n_states": n_states,
            "n_train_per_state": n_train,
            "n_requests": n_requests,
            "n_pool": n_pool,
            "seed": seed,
            "repeats": repeats,
        },
        "env": _environment(),
        "timings_seconds": {
            "predict_many": batched_median,
        },
        "details": {
            "requests_per_second": n_requests / batched_median,
            "kernel_calls_per_call": kernel_calls,
        },
    }


#: Streaming workload dimensions per scale name. The quick/CI baseline
#: uses "small"; the committed speedup claim is measured at "medium".
STREAM_SCALES = {
    "small": dict(
        n_states=4, n_variables=12, n_train=15, batch_size=8, n_batches=12
    ),
    "medium": dict(
        n_states=8, n_variables=40, n_train=30, batch_size=10, n_batches=20
    ),
}


def bench_streaming(
    scale_name: str = "medium", repeats: int = 3, seed: int = 2016
) -> dict:
    """Time the streaming path: per-batch absorb vs full warm refit.

    The claim under test is the O(n²·b) Cholesky extension making
    per-batch ingest cheap relative to refitting the whole model from
    scratch on the same rows — ``absorb_batch`` is the median per-batch
    update latency over a fresh stream, ``full_refit`` the median
    warm-started EM refit on everything absorbed so far.
    """
    from repro.active.oracle import SyntheticOracle
    from repro.core.cbmf import CBMF
    from repro.streaming import OnlineCBMF, OracleStream

    dims = STREAM_SCALES[scale_name]
    n_states = dims["n_states"]
    n_variables = dims["n_variables"]
    rng = np.random.default_rng(seed)
    coef = np.zeros((n_states, n_variables + 1))
    coef[:, 0] = 1.0
    for j in rng.choice(n_variables, size=6, replace=False):
        coef[:, j + 1] = rng.normal(0.0, 1.0) + rng.normal(
            0.0, 0.1, size=n_states
        )
    oracle = SyntheticOracle(coef, noise_std=0.05)
    inputs = [
        rng.standard_normal((dims["n_train"], n_variables))
        for _ in range(n_states)
    ]
    targets = [oracle.observe(x, k) for k, x in enumerate(inputs)]
    fitted = CBMF(seed=seed).fit(
        oracle.basis.expand_states(inputs), targets
    )
    # Pre-draw the batches so the timings exclude the oracle.
    batches = list(
        OracleStream(
            oracle,
            n_batches=dims["n_batches"],
            batch_size=dims["batch_size"],
            seed=seed,
        )
    )

    online = None
    absorb_samples = []
    for _ in range(repeats):
        online = OnlineCBMF.from_cbmf(
            fitted, basis=oracle.basis, metric=oracle.metric
        )
        per_batch = []
        for batch in batches:
            started = time.perf_counter()
            online.absorb(batch.x, batch.y, batch.state)
            per_batch.append(time.perf_counter() - started)
        absorb_samples.append(statistics.median(per_batch))
    absorb_median = float(statistics.median(absorb_samples))
    refit_median = _median_seconds(lambda: online.refit(), repeats)

    return {
        "kind": "streaming",
        "config": {
            "scale": scale_name,
            "n_states": n_states,
            "n_variables": n_variables,
            "n_train_per_state": dims["n_train"],
            "batch_size": dims["batch_size"],
            "n_batches": dims["n_batches"],
            "seed": seed,
            "repeats": repeats,
        },
        "env": _environment(),
        "timings_seconds": {
            "absorb_batch": absorb_median,
            "full_refit": refit_median,
        },
        "details": {
            "rows_after_stream": int(online.n_rows),
            "absorb_vs_refit_speedup": refit_median / absorb_median,
        },
    }


#: Cluster workload dimensions per scale name. ``pss_n_basis`` sizes
#: the synthetic model used for the shared-memory accounting (6 states
#: × n_basis float64 ≈ the store footprint being shared).
CLUSTER_SCALES = {
    "small": dict(
        n_shards=2, n_requests=30, rows_per_request=32,
        pss_n_basis=60_000,
    ),
    "medium": dict(
        n_shards=4, n_requests=80, rows_per_request=64,
        pss_n_basis=400_000,
    ),
}


def _cluster_pss(registry, key, store_dir, n_shards: int):
    """Summed store PSS of ``n_shards`` workers mapping one store."""
    from repro.cluster import ClusterConfig, ClusterService

    config = ClusterConfig(n_shards=n_shards)
    with ClusterService(
        registry, [key], config=config, store_dir=store_dir
    ) as service:
        snapshots = service.shard_engine_snapshots()
        values = [s.get("store_pss_bytes") for s in snapshots]
        store_bytes = snapshots[0].get("store_bytes", 0)
    if any(v is None for v in values) or len(values) != n_shards:
        return None, store_bytes
    return int(sum(values)), store_bytes


def bench_cluster(
    scale_name: str = "medium", repeats: int = 3, seed: int = 2016
) -> dict:
    """Time the cluster: multi-shard throughput vs one process, plus PSS.

    Throughput compares the same threaded request stream (one client
    thread per model name) against a single-process ``ModelService`` and an
    ``n_shards``-worker ``ClusterService``. On a many-core machine the
    shards' matmuls run in true parallel; on one core the cluster pays the
    transport overhead without the parallel payoff — ``details``
    records ``cpu_count`` so readers can interpret the speedup.

    The memory half exports one deliberately large model and compares
    the *summed* store PSS of ``n_shards`` workers against one worker
    mapping the same store: shared pages are charged 1/N to each
    mapper, so near-perfect sharing keeps the sum near 1× the store
    size.
    """
    import os

    from repro.basis.polynomial import LinearBasis
    from repro.cluster import (
        ClusterClient,
        ClusterConfig,
        ClusterListener,
        ClusterService,
    )
    from repro.core.frozen import FrozenModel
    from repro.modelset import PerformanceModelSet
    from repro.serving import ModelService

    dims = CLUSTER_SCALES[scale_name]
    n_shards = dims["n_shards"]
    rng = np.random.default_rng(seed)
    models = demo_fleet(4, 12, "somp", seed)

    names = [f"lna{i}" for i in range(n_shards)]
    batches = request_batches(
        rng,
        {name: (models.basis.n_variables, 4) for name in names},
        dims["n_requests"],
        dims["rows_per_request"],
    )
    n_rows_total = n_shards * dims["n_requests"] * dims["rows_per_request"]

    def timed_traffic(predict) -> float:
        def drive():
            errors = drive_requests(predict, batches)
            if any(errors.values()):
                raise RuntimeError(f"benchmark requests failed: {errors}")

        drive()  # warm BLAS and connections
        return _median_seconds(drive, repeats)

    with registry_scope() as registry:
        for name in names:
            registry.push(name, models)

        service = ModelService(registry)
        for name in names:
            service.load(f"{name}@latest")
        single_median = timed_traffic(service.predict_many)

        config = ClusterConfig(n_shards=n_shards)
        with ClusterService(
            registry,
            [f"{name}@v1" for name in names],
            config=config,
            store_dir=registry.root / "store",
        ) as cluster:
            cluster_median = timed_traffic(cluster.predict_many)

            # TCP-loopback lane: same cluster, same request stream, but
            # every call crosses a real socket through the listener and
            # pays frame encode/decode both ways.
            with ClusterListener(cluster, "127.0.0.1:0") as listener:
                clients = {
                    name: ClusterClient(listener.address)
                    for name in names
                }
                try:
                    tcp_median = timed_traffic(
                        lambda name, x, states: clients[name].predict_many(
                            name, x, states
                        )
                    )
                finally:
                    for client in clients.values():
                        client.close()

        # Shared-memory accounting on a model big enough to dwarf page
        # noise: N workers mapping one store must together cost ~1× it.
        big = PerformanceModelSet(
            {
                "metric": FrozenModel(
                    coef=rng.standard_normal((6, dims["pss_n_basis"])),
                    metric="metric",
                )
            },
            LinearBasis(dims["pss_n_basis"] - 1),
        )
        registry.push("pss", big)
        pss_single, store_bytes = _cluster_pss(
            registry, "pss@v1", registry.root / "pss_store_1", 1
        )
        pss_multi, _ = _cluster_pss(
            registry, "pss@v1", registry.root / "pss_store_n", n_shards
        )

    return {
        "kind": "cluster",
        "config": {
            "scale": scale_name,
            "n_shards": n_shards,
            "n_requests": dims["n_requests"],
            "rows_per_request": dims["rows_per_request"],
            "pss_n_basis": dims["pss_n_basis"],
            "seed": seed,
            "repeats": repeats,
        },
        "env": _environment(),
        "timings_seconds": {
            "single_process": single_median,
            "cluster": cluster_median,
            "cluster_tcp": tcp_median,
        },
        "details": {
            "cpu_count": os.cpu_count(),
            "rows_total": n_rows_total,
            "single_rows_per_second": n_rows_total / single_median,
            "cluster_rows_per_second": n_rows_total / cluster_median,
            "cluster_vs_single_speedup": single_median / cluster_median,
            "tcp_rows_per_second": n_rows_total / tcp_median,
            "tcp_vs_socketpair_ratio": tcp_median / cluster_median,
            "store_bytes": store_bytes,
            "pss_bytes_1_shard": pss_single,
            "pss_bytes_n_shards": pss_multi,
            "pss_share_ratio": (
                None
                if not pss_single or pss_multi is None
                else pss_multi / pss_single
            ),
        },
    }


#: The K-scaling curve recorded in the kron report / EXPERIMENTS.md.
KRON_K_CURVE = (32, 64, 128, 201)


def bench_kron(
    repeats: int = 3,
    seed: int = 2016,
    n_points: int = 201,
    n_train: int = 10,
    k_curve=KRON_K_CURVE,
) -> dict:
    """Time ``CBMF.fit`` on the swept-frequency workload: kron vs dual.

    Both arms run the *identical* pipeline (same data, same single-point
    CV grid, same EM cap); only ``REPRO_POSTERIOR_SOLVER`` differs. The
    CV grid runs inline whatever ``REPRO_MAX_WORKERS`` says: a process
    pool started inside each timed fit would add the same start-up
    seconds to both arms and pull the ratio towards 1, so the measured
    ratio is purely the solver. The dual arm is timed once per K (it is
    the slow arm, 10-30 s at K=201 — exactly the cost the Kronecker path
    removes); the kron arm reports the median over ``repeats``.
    Coefficient parity is recorded at full K between the two arms, and
    both fast paths are checked against ``compute_posterior_dense`` on a
    column/state-restricted sub-problem small enough to materialize the
    MK × MK prior.
    """
    import os

    from repro.core.posterior import compute_posterior, compute_posterior_dense
    from repro.core.prior import CorrelatedPrior, ar1_correlation

    train, basis, designs = sweep_problem(n_points, n_train, seed)
    targets = train.targets("s21_db")

    def fit(n_states: int):
        return _sweep_cbmf(seed, max_workers=1).fit(
            designs[:n_states], targets[:n_states]
        )

    def timed_dual(fn):
        previous = os.environ.get("REPRO_POSTERIOR_SOLVER")
        os.environ["REPRO_POSTERIOR_SOLVER"] = "dual"
        try:
            started = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - started
        finally:
            if previous is None:
                del os.environ["REPRO_POSTERIOR_SOLVER"]
            else:
                os.environ["REPRO_POSTERIOR_SOLVER"] = previous

    curve = []
    kron_models = {}
    for k in k_curve:
        if k > n_points:
            continue
        started = time.perf_counter()
        kron_models[k] = fit(k)
        kron_seconds = time.perf_counter() - started
        _, dual_seconds = timed_dual(lambda: fit(k))
        curve.append(
            {
                "k": int(k),
                "kron_seconds": kron_seconds,
                "dual_seconds": dual_seconds,
                "speedup": dual_seconds / kron_seconds,
            }
        )

    # Headline: median kron fit at full K against the (single) dual run.
    kron_median = _median_seconds(lambda: fit(n_points), max(repeats, 1))
    dual_model, dual_seconds = timed_dual(lambda: fit(n_points))
    kron_model = kron_models.get(n_points) or fit(n_points)
    denom = float(np.max(np.abs(dual_model.coef_))) or 1.0
    coef_parity = float(
        np.max(np.abs(kron_model.coef_ - dual_model.coef_)) / denom
    )

    # Dense-oracle parity on a sub-problem that fits in memory: first 32
    # states, first 60 basis columns (MK = 1920).
    k_sub, m_sub = min(32, n_points), min(60, basis.n_basis)
    sub_designs = [d[:, :m_sub] for d in designs[:k_sub]]
    sub_targets = targets[:k_sub]
    sub_prior = CorrelatedPrior(
        lambdas=np.full(m_sub, 0.5),
        correlation=ar1_correlation(k_sub, 0.9),
    )
    dense = compute_posterior_dense(
        sub_designs, sub_targets, sub_prior, 0.01
    )
    dense_scale = float(np.max(np.abs(dense.mean))) or 1.0

    def parity_vs_dense(method: str) -> float:
        result = compute_posterior(
            sub_designs, sub_targets, sub_prior, 0.01, method=method
        )
        return float(
            np.max(np.abs(result.mean - dense.mean)) / dense_scale
        )

    return {
        "kind": "kron",
        "config": {
            "circuit": "lna_sweep",
            "metric": "s21_db",
            "n_points": n_points,
            "n_train_per_state": n_train,
            "n_basis": basis.n_basis,
            "seed": seed,
            "repeats": repeats,
            "k_curve": [point["k"] for point in curve],
        },
        "env": _environment(),
        "timings_seconds": {
            "kron_fit_k201": kron_median,
            "dual_fit_k201": dual_seconds,
        },
        "details": {
            "solver_used": kron_model.predictor.solver,
            "speedup_vs_dual": dual_seconds / kron_median,
            "coef_parity_vs_dual": coef_parity,
            "kron_vs_dense_parity": parity_vs_dense("kron"),
            "dual_vs_dense_parity": parity_vs_dense("dual"),
            "k_scaling": curve,
        },
    }


#: Fixed workload of the yield suite. The config is deliberately
#: independent of ``--quick``/``--scale`` so the committed baseline
#: matches every invocation; only ``repeats`` (excluded from the
#: fingerprint) varies.
YIELD_BUDGET = 400
YIELD_MC_SAMPLES = 100_000
YIELD_REPS = 5


def bench_yield(
    repeats: int = 3,
    seed: int = 2016,
    n_points: int = 201,
    n_train: int = 10,
) -> dict:
    """Yield-estimator quality + the cluster ``yield`` endpoint memory.

    Fits the K=201 swept-frequency workload once (the same fast
    single-point CV grid as the kron suite), then treats the fitted
    posterior mean as the population: a ``YIELD_MC_SAMPLES``-sample
    Monte-Carlo pass defines the ground-truth per-state yield under
    ``DEFAULT_SWEEP_SPECS``. Each of ``YIELD_REPS`` seeded replicates
    draws the small equal budget (``YIELD_BUDGET`` samples/state),
    estimates per-state yield twice from the *same* draws —
    independently (empirical fraction per state) and with
    correlation-shared shrinkage across the learned K × K prior
    correlation — and the report records both RMSE curves. The cluster
    arm pushes the frozen set to a one-shard ``ClusterService`` and
    answers the identical query through the ``yield`` frame, recording
    the shard's tracemalloc peak next to the dense-covariance byte
    count it must stay far below.
    """
    from repro.applications.yield_estimation import Specification
    from repro.cluster import ClusterConfig, ClusterService
    from repro.modelset import PerformanceModelSet
    from repro.yields import compute_yield_report, sample_state_estimates

    train, basis, designs = sweep_problem(n_points, n_train, seed)
    fitted = {}

    def one_fit():
        for metric in train.metric_names:
            fitted[metric] = _sweep_cbmf(seed).fit(
                designs, train.targets(metric)
            )

    fit_median = _median_seconds(one_fit, max(repeats, 1))
    models = PerformanceModelSet(fitted, basis)
    frozen = models.freeze()
    specs = [Specification.parse(text) for text in DEFAULT_SWEEP_SPECS]

    # Ground truth: the big Monte-Carlo pass through the same frozen
    # models, on a stream disjoint from every replicate's budget draw.
    truth = sample_state_estimates(
        frozen, basis, specs,
        n_samples=YIELD_MC_SAMPLES, seed=seed + 500_000,
    ).yields

    rmse_raw: List[float] = []
    rmse_shrunk: List[float] = []
    estimate_samples: List[float] = []
    last_report = None
    for rep in range(YIELD_REPS):
        started = time.perf_counter()
        estimates = sample_state_estimates(
            frozen, basis, specs,
            n_samples=YIELD_BUDGET, seed=seed + rep,
        )
        estimate_samples.append(time.perf_counter() - started)
        last_report = compute_yield_report(
            frozen, basis, specs,
            n_samples=YIELD_BUDGET, seed=seed + rep, estimates=estimates,
        )
        rmse_raw.append(float(
            np.sqrt(np.mean((last_report.yield_raw - truth) ** 2))
        ))
        rmse_shrunk.append(float(
            np.sqrt(np.mean((last_report.yield_shrunk - truth) ** 2))
        ))
    estimate_median = float(statistics.median(estimate_samples))
    rmse_raw_mean = float(np.mean(rmse_raw))
    rmse_shrunk_mean = float(np.mean(rmse_shrunk))

    # Cluster arm: the same query answered by a shard from the shared
    # store, peak-metered. The dense alternative would materialize an
    # MK × MK covariance — record its byte cost next to the peak.
    dense_cov_bytes = int((basis.n_basis * n_points) ** 2 * 8)
    with registry_scope() as registry:
        registry.push("lna_sweep", models)
        config = ClusterConfig(n_shards=1)
        with ClusterService(
            registry,
            ["lna_sweep@v1"],
            config=config,
            store_dir=registry.root / "store",
        ) as cluster:
            started = time.perf_counter()
            reply = cluster.yield_report(
                "lna_sweep",
                list(DEFAULT_SWEEP_SPECS),
                n_samples=YIELD_BUDGET,
                seed=seed,
                deadline_s=300.0,
            )
            cluster_seconds = time.perf_counter() - started

    return {
        "kind": "yield",
        "config": {
            "circuit": "lna_sweep",
            "specs": list(DEFAULT_SWEEP_SPECS),
            "n_points": n_points,
            "n_train_per_state": n_train,
            "n_basis": basis.n_basis,
            "budget_per_state": YIELD_BUDGET,
            "mc_samples": YIELD_MC_SAMPLES,
            "n_reps": YIELD_REPS,
            "seed": seed,
            "repeats": repeats,
        },
        "env": _environment(),
        "timings_seconds": {
            "fit": fit_median,
            "estimate": estimate_median,
            "cluster_yield": cluster_seconds,
        },
        "details": {
            "rmse_independent": rmse_raw_mean,
            "rmse_shrunk": rmse_shrunk_mean,
            "rmse_improvement": (
                rmse_raw_mean / rmse_shrunk_mean
                if rmse_shrunk_mean > 0 else None
            ),
            "rmse_independent_per_rep": rmse_raw,
            "rmse_shrunk_per_rep": rmse_shrunk,
            "tau2": last_report.tau2,
            "correlation_shared": last_report.correlation_shared,
            "fleet_yield": last_report.fleet_yield,
            "cluster_peak_bytes": int(reply["peak_bytes"]),
            "dense_cov_bytes": dense_cov_bytes,
            "peak_fraction_of_dense": (
                reply["peak_bytes"] / dense_cov_bytes
            ),
            "cluster_version": reply["version"],
        },
    }


# ----------------------------------------------------------------------
# Gates.
# ----------------------------------------------------------------------
#: Gate operators: ``min``/``max`` inclusive, ``above``/``below`` strict.
GATE_OPERATORS = {
    "min": operator.ge,
    "max": operator.le,
    "above": operator.gt,
    "below": operator.lt,
    "equals": operator.eq,
}


def check_gates(report: dict, gates: Sequence[dict]) -> List[str]:
    """Check ``report`` against a baseline's ``gates``; return failures.

    Each gate is ``{"path": "details.key", <operator>: bound}`` with one
    operator of :data:`GATE_OPERATORS`; the dotted path indexes the
    report. A missing or ``None`` value fails its gate, and so does a
    value the operator cannot compare with the bound.
    """
    problems: List[str] = []
    for gate in gates:
        ops = [key for key in gate if key != "path"]
        if (
            "path" not in gate
            or len(ops) != 1
            or ops[0] not in GATE_OPERATORS
        ):
            raise ValueError(
                f"malformed gate {gate!r}: want a 'path' and one of "
                f"{sorted(GATE_OPERATORS)}"
            )
        op, bound = ops[0], gate[ops[0]]
        value = report
        for part in gate["path"].split("."):
            value = value.get(part) if isinstance(value, dict) else None
        try:
            ok = value is not None and bool(GATE_OPERATORS[op](value, bound))
        except TypeError:
            ok = False
        if not ok:
            problems.append(
                f"{report.get('kind')}: gate {gate['path']} {op} "
                f"{bound!r} failed (got {value!r})"
            )
    return problems


def check_regression(
    current: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> List[str]:
    """Compare one report against its baseline; return regression messages.

    The workload fingerprints must agree (same circuit/scale/shapes) —
    otherwise the comparison is meaningless and reported as such. The
    environment block is informational only: baselines from a faster or
    slower machine are exactly what the ×``threshold`` headroom absorbs.
    """
    problems: List[str] = []
    workload_keys = set(baseline.get("config", {})) - {"repeats"}
    for key in sorted(workload_keys):
        if current["config"].get(key) != baseline["config"].get(key):
            problems.append(
                f"config mismatch on {key!r}: current "
                f"{current['config'].get(key)!r} vs baseline "
                f"{baseline['config'].get(key)!r} — refresh the baseline"
            )
    if problems:
        return problems
    for name, base_value in baseline.get("timings_seconds", {}).items():
        value = current.get("timings_seconds", {}).get(name)
        if value is None:
            problems.append(f"timing {name!r} missing from current run")
            continue
        if base_value > 0 and value > base_value * threshold:
            problems.append(
                f"{current['kind']}:{name} regressed {value / base_value:.2f}× "
                f"({value:.4f}s vs baseline {base_value:.4f}s, "
                f"gate {threshold}×)"
            )
    return problems


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
#: Suite name -> benchmark, in run order. Each writes ``BENCH_<suite>.json``.
SUITES: Dict[str, Callable[..., dict]] = {
    "fit": bench_fit,
    "serving": bench_serving,
    "streaming": bench_streaming,
    "cluster": bench_cluster,
    "kron": bench_kron,
    "yield": bench_yield,
}

#: Suites whose workload size follows ``--scale``; the others are fixed.
SCALED_SUITES = ("fit", "streaming", "cluster")


def _write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main_bench(args: argparse.Namespace) -> int:
    """Entry point of ``python -m repro bench``."""
    scale_name = "small" if args.quick else args.scale
    repeats = args.repeats if args.repeats else (3 if args.quick else 5)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    baseline_dir = Path(args.baseline_dir)
    selected = list(SUITES) if args.suite == "all" else [args.suite]

    reports: Dict[str, dict] = {}
    for suite in selected:
        kwargs = {"repeats": repeats, "seed": args.seed}
        if suite in SCALED_SUITES:
            kwargs["scale_name"] = scale_name
        print(f"benchmarking {suite} ...")
        report = SUITES[suite](**kwargs)
        print("  " + "  ".join(
            f"{name} {seconds:.4g}s"
            for name, seconds in report["timings_seconds"].items()
        ))
        reports[suite] = report
        _write_report(report, output_dir / f"BENCH_{suite}.json")

    if args.update_baseline:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for suite, report in reports.items():
            path = baseline_dir / f"BENCH_{suite}.json"
            gates = (
                json.loads(path.read_text()).get("gates", [])
                if path.exists() else []
            )
            _write_report(dict(report, gates=gates), path)
        return 0

    if args.check:
        failures: List[str] = []
        for suite, report in reports.items():
            path = baseline_dir / f"BENCH_{suite}.json"
            if not path.exists():
                failures.append(f"{suite}: no baseline at {path}")
                continue
            baseline = json.loads(path.read_text())
            failures.extend(
                check_regression(report, baseline, threshold=args.threshold)
            )
            failures.extend(check_gates(report, baseline.get("gates", [])))
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print(
            f"no regressions beyond {args.threshold}× and every gate "
            "holds — ok"
        )
    return 0


def add_bench_parser(sub) -> None:
    """Register the ``bench`` subcommand on a subparsers object."""
    p = sub.add_parser(
        "bench",
        help="benchmark suites with JSON reports, regression and gate checks",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="small scale + fewer repeats (the CI perf-smoke setting)",
    )
    p.add_argument(
        "--suite", default="all", choices=("all", *SUITES),
        help="run a single benchmark suite (default: all)",
    )
    p.add_argument(
        # The scales every scaled suite defines.
        "--scale", default="medium", choices=("small", "medium"),
        help="fit/streaming/cluster workload scale when not --quick "
             "(default: medium)",
    )
    p.add_argument("--repeats", type=int, default=None,
                   help="timing repeats per stage (median is reported)")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--output-dir", default=".",
                   help="where BENCH_*.json land (default: cwd)")
    p.add_argument(
        "--baseline-dir", default=str(BASELINE_DIR),
        help="committed baselines (default: benchmarks/baselines)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="compare against the baselines and their gates; exit 1 on "
             "a regression, a failed gate or a missing baseline",
    )
    p.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baselines with this run's numbers, keeping "
             "their gates",
    )
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="regression gate ratio (default: 1.5)")
