"""Benchmark regression harness — ``python -m repro bench``.

Measures the two hot paths of the package and emits machine-readable
reports next to the working directory:

* ``BENCH_fit.json`` — the C-BMF fitting pipeline on the figure-2 LNA
  workload: full ``CBMF.fit``, the S-OMP/cross-validation initializer,
  the EM refinement and one posterior solve;
* ``BENCH_serving.json`` — the micro-batched serving engine
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
timing regresses beyond ``--threshold`` (default 1.5×). The kron suite
additionally enforces *absolute* gates — fit speedup ≥ 5× over the dual
path and coefficient parity ≤ 1e-8 — independent of the baseline; the
yield suite likewise gates on shrunk-beats-independent RMSE and on the
shard's memory peak staying far below the dense-covariance cost.
Baselines are refreshed by re-running with ``--update-baseline`` on a
quiet machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "bench_cluster",
    "bench_fit",
    "bench_kron",
    "bench_serving",
    "bench_streaming",
    "bench_yield",
    "check_kron_gates",
    "check_regression",
    "check_yield_gates",
    "main_bench",
]

#: Default location of the committed baselines.
BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

#: Default regression gate: fail CI when current > baseline × threshold.
DEFAULT_THRESHOLD = 1.5


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


def bench_fit(
    scale_name: str = "medium", repeats: int = 3, seed: int = 2016
) -> dict:
    """Time the fit path on the figure-2 LNA workload at ``scale_name``."""
    from repro.basis.polynomial import LinearBasis
    from repro.core.cbmf import CBMF
    from repro.core.posterior import compute_posterior
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
    # microbenchmark isolates the EM inner loop's dominant kernel.
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
    # Timed on one BLAS thread, the way every fit runs the same call.
    with one_blas_thread():
        posterior_median = _median_seconds(
            lambda: compute_posterior(
                designs, targets, prior, 0.01, want_blocks=True
            ),
            max(repeats, 5),
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
        },
        "details": {
            "em_iterations": report.em.n_iterations,
            "em_posterior_seconds": report.em.posterior_seconds,
            "em_mstep_seconds": report.em.mstep_seconds,
            "n_active": report.n_active,
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
    """Time the serving path: micro-batched ``predict_many`` throughput."""
    import tempfile

    from repro.circuits.lna import TunableLNA
    from repro.modelset import PerformanceModelSet
    from repro.serving import ModelRegistry, ModelService
    from repro.simulate.montecarlo import MonteCarloEngine

    rng = np.random.default_rng(seed)
    lna = TunableLNA(n_states=n_states, n_variables=None)
    data = MonteCarloEngine(lna, seed=seed).run(n_train + 4)
    train, _ = data.split(n_train)
    models = PerformanceModelSet.fit_dataset(train, method="cbmf", seed=seed)

    pool = rng.standard_normal((n_pool, lna.n_variables))
    x = pool[rng.integers(0, n_pool, n_requests)]
    states = rng.integers(0, n_states, n_requests)

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.push("lna", models)
        service = ModelService(registry)
        service.load("lna@latest")
        service.predict_many("lna", x, states)  # warm caches/BLAS
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
    "paper": dict(
        n_states=16, n_variables=120, n_train=60, batch_size=16,
        n_batches=30,
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


def _drive_requests(predict_many, names, batches) -> None:
    """Hammer a predict_many callable from one thread per model name."""
    from concurrent.futures import ThreadPoolExecutor

    def one(name):
        for x, states in batches[name]:
            predict_many(name, x, states)

    with ThreadPoolExecutor(max_workers=len(names)) as pool:
        for future in [pool.submit(one, name) for name in names]:
            future.result()


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
    import tempfile

    from repro.basis.polynomial import LinearBasis
    from repro.circuits.lna import TunableLNA
    from repro.cluster import ClusterConfig, ClusterService
    from repro.core.frozen import FrozenModel
    from repro.modelset import PerformanceModelSet
    from repro.serving import ModelRegistry, ModelService
    from repro.simulate.montecarlo import MonteCarloEngine

    dims = CLUSTER_SCALES[scale_name]
    n_shards = dims["n_shards"]
    rng = np.random.default_rng(seed)
    lna = TunableLNA(n_states=4, n_variables=None)
    data = MonteCarloEngine(lna, seed=seed).run(16)
    train, _ = data.split(12)
    models = PerformanceModelSet.fit_dataset(train, method="somp", seed=seed)

    names = [f"lna{i}" for i in range(n_shards)]
    batches = {
        name: [
            (
                rng.standard_normal(
                    (dims["rows_per_request"], lna.n_variables)
                ),
                rng.integers(0, 4, dims["rows_per_request"]),
            )
            for _ in range(dims["n_requests"])
        ]
        for name in names
    }
    n_rows_total = n_shards * dims["n_requests"] * dims["rows_per_request"]

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        for name in names:
            registry.push(name, models)

        service = ModelService(registry)
        for name in names:
            service.load(f"{name}@latest")
        _drive_requests(service.predict_many, names, batches)  # warm BLAS
        single_median = _median_seconds(
            lambda: _drive_requests(
                service.predict_many, names, batches
            ),
            repeats,
        )

        config = ClusterConfig(n_shards=n_shards)
        with ClusterService(
            registry,
            [f"{name}@v1" for name in names],
            config=config,
            store_dir=Path(tmp) / "store",
        ) as cluster:
            _drive_requests(cluster.predict_many, names, batches)
            cluster_median = _median_seconds(
                lambda: _drive_requests(
                    cluster.predict_many, names, batches
                ),
                repeats,
            )

            # TCP-loopback lane: same cluster, same request stream, but
            # every call crosses a real socket through the listener and
            # pays frame encode/decode both ways.
            from repro.cluster import ClusterClient, ClusterListener

            with ClusterListener(cluster, "127.0.0.1:0") as listener:
                clients = {
                    name: ClusterClient(listener.address)
                    for name in names
                }
                try:
                    tcp_predict = lambda name, x, states: (  # noqa: E731
                        clients[name].predict_many(name, x, states)
                    )
                    _drive_requests(tcp_predict, names, batches)
                    tcp_median = _median_seconds(
                        lambda: _drive_requests(
                            tcp_predict, names, batches
                        ),
                        repeats,
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
            registry, "pss@v1", Path(tmp) / "pss_store_1", 1
        )
        pss_multi, _ = _cluster_pss(
            registry, "pss@v1", Path(tmp) / "pss_store_n", n_shards
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


#: Absolute gates of the kron suite (ISSUE 8 acceptance criteria):
#: the Kronecker fit must beat the dual-path fit by at least this factor
#: at K=201 while matching its coefficients (and the dense oracle on the
#: sub-problem) to this relative tolerance.
KRON_MIN_SPEEDUP = 5.0
KRON_PARITY_RTOL = 1e-8

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
    CV grid, same EM cap); only ``REPRO_POSTERIOR_SOLVER`` differs, so
    the measured ratio is purely the solver. The dual arm is timed once
    per K (it costs minutes at K=201 — exactly the problem the Kronecker
    path removes); the kron arm reports the median over ``repeats``.
    Coefficient parity is recorded at full K between the two arms, and
    both fast paths are checked against ``compute_posterior_dense`` on a
    column/state-restricted sub-problem small enough to materialize the
    MK × MK prior.
    """
    import os

    from repro.basis.polynomial import LinearBasis
    from repro.core.cbmf import CBMF
    from repro.core.em import EmConfig
    from repro.core.posterior import compute_posterior, compute_posterior_dense
    from repro.core.prior import CorrelatedPrior, ar1_correlation
    from repro.core.somp_init import InitConfig
    from repro.paper import simulate_sweep

    train = simulate_sweep(
        n_points=n_points, n_samples_per_state=n_train, seed=seed
    )
    basis = LinearBasis(train.n_variables)
    designs = basis.expand_states(train.inputs())
    targets = train.targets("s21_db")
    # Single-point CV grid: both arms deterministically pick the same
    # (r0, σ0, θ), so the final coefficients are comparable bit-for-bit
    # modulo solver round-off — the parity this report gates on.
    init_config = InitConfig(
        r0_grid=(0.95,),
        sigma0_grid=(0.15,),
        n_basis_grid=(20,),
        n_folds=2,
    )
    em_config = EmConfig(max_iterations=8)

    def fit(n_states: int) -> "CBMF":
        model = CBMF(
            init_config=init_config, em_config=em_config, seed=seed
        )
        return model.fit(designs[:n_states], targets[:n_states])

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


def check_kron_gates(report: dict) -> List[str]:
    """Absolute acceptance gates of the kron report (baseline-free)."""
    problems: List[str] = []
    details = report.get("details", {})
    speedup = details.get("speedup_vs_dual", 0.0)
    if speedup < KRON_MIN_SPEEDUP:
        problems.append(
            f"kron fit speedup {speedup:.2f}× below the "
            f"{KRON_MIN_SPEEDUP}× gate"
        )
    for key in ("coef_parity_vs_dual", "kron_vs_dense_parity",
                "dual_vs_dense_parity"):
        value = details.get(key)
        if value is None or value > KRON_PARITY_RTOL:
            problems.append(
                f"kron parity {key}={value} exceeds {KRON_PARITY_RTOL}"
            )
    if details.get("solver_used") != "kron":
        problems.append(
            "the benchmarked fit did not take the Kronecker path "
            f"(solver_used={details.get('solver_used')!r})"
        )
    return problems


#: Fixed workload of the yield suite (ISSUE 9 acceptance criteria).
#: The config is deliberately independent of ``--quick``/``--scale`` so
#: the committed baseline matches every invocation; only ``repeats``
#: (excluded from the fingerprint) varies.
YIELD_SPECS = ("s21_db>=16.5", "nf_db<=1.55")
YIELD_BUDGET = 400
YIELD_MC_SAMPLES = 100_000
YIELD_REPS = 5
#: The shard's tracemalloc peak while answering the yield query must
#: stay below this fraction of the dense MK × MK covariance it would
#: take to answer naively (K=201, M≈238 ⇒ ~18 GB dense).
YIELD_PEAK_FRACTION = 0.01


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
    ``YIELD_SPECS``. Each of ``YIELD_REPS`` seeded replicates draws the
    small equal budget (``YIELD_BUDGET`` samples/state), estimates
    per-state yield twice from the *same* draws — independently
    (empirical fraction per state) and with correlation-shared
    shrinkage across the learned K × K prior correlation — and the
    report records both RMSE curves. The cluster arm pushes the frozen
    set to a one-shard ``ClusterService`` and answers the identical
    query through the ``yield`` frame, recording the shard's
    tracemalloc peak next to the dense-covariance byte count it must
    stay far below.
    """
    import tempfile

    from repro.applications.yield_estimation import Specification
    from repro.basis.polynomial import LinearBasis
    from repro.cluster import ClusterConfig, ClusterService
    from repro.core.cbmf import CBMF
    from repro.core.em import EmConfig
    from repro.core.somp_init import InitConfig
    from repro.modelset import PerformanceModelSet
    from repro.paper import simulate_sweep
    from repro.serving import ModelRegistry
    from repro.yields import compute_yield_report, sample_state_estimates

    train = simulate_sweep(
        n_points=n_points, n_samples_per_state=n_train, seed=seed
    )
    basis = LinearBasis(train.n_variables)
    designs = basis.expand_states(train.inputs())
    init_config = InitConfig(
        r0_grid=(0.95,),
        sigma0_grid=(0.15,),
        n_basis_grid=(20,),
        n_folds=2,
    )
    em_config = EmConfig(max_iterations=8)

    fitted = {}

    def one_fit():
        for metric in train.metric_names:
            model = CBMF(
                init_config=init_config, em_config=em_config, seed=seed
            )
            fitted[metric] = model.fit(designs, train.targets(metric))

    fit_median = _median_seconds(one_fit, max(repeats, 1))
    models = PerformanceModelSet(fitted, basis)
    frozen = models.freeze()
    specs = [Specification.parse(text) for text in YIELD_SPECS]

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
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        registry.push("lna_sweep", models)
        config = ClusterConfig(n_shards=1)
        with ClusterService(
            registry,
            ["lna_sweep@v1"],
            config=config,
            store_dir=Path(tmp) / "store",
        ) as cluster:
            started = time.perf_counter()
            reply = cluster.yield_report(
                "lna_sweep",
                list(YIELD_SPECS),
                n_samples=YIELD_BUDGET,
                seed=seed,
                deadline_s=300.0,
            )
            cluster_seconds = time.perf_counter() - started

    return {
        "kind": "yield",
        "config": {
            "circuit": "lna_sweep",
            "specs": list(YIELD_SPECS),
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


def check_yield_gates(report: dict) -> List[str]:
    """Absolute acceptance gates of the yield report (baseline-free)."""
    problems: List[str] = []
    details = report.get("details", {})
    raw = details.get("rmse_independent")
    shrunk = details.get("rmse_shrunk")
    if raw is None or shrunk is None or not shrunk < raw:
        problems.append(
            f"shrunk yield RMSE {shrunk} does not beat the independent "
            f"estimator {raw} at equal budget"
        )
    if not details.get("correlation_shared"):
        problems.append(
            "the report did not use the learned correlation "
            "(correlation_shared is false — shrinkage fell back to "
            "independent intervals)"
        )
    peak = details.get("cluster_peak_bytes")
    dense = details.get("dense_cov_bytes")
    if peak is None or dense is None or peak >= dense * YIELD_PEAK_FRACTION:
        problems.append(
            f"cluster yield endpoint peaked at {peak} bytes — not far "
            f"enough below the dense MK×MK covariance ({dense} bytes, "
            f"gate {YIELD_PEAK_FRACTION:.0%})"
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


def _write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


#: Suite registry: report filename per suite, in run order.
SUITES = ("fit", "serving", "streaming", "cluster", "kron", "yield")


def main_bench(args: argparse.Namespace) -> int:
    """Entry point of ``python -m repro bench``."""
    scale_name = "small" if args.quick else args.scale
    repeats = args.repeats if args.repeats else (3 if args.quick else 5)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    baseline_dir = Path(args.baseline_dir)
    selected = SUITES if args.suite == "all" else (args.suite,)

    reports: Dict[str, dict] = {}

    if "fit" in selected:
        print(
            f"benchmarking fit path (scale={scale_name}, "
            f"repeats={repeats}) ..."
        )
        fit_report = bench_fit(scale_name, repeats=repeats, seed=args.seed)
        timings = fit_report["timings_seconds"]
        print(
            f"  cbmf_fit {timings['cbmf_fit']:.3f}s  "
            f"somp_init {timings['somp_init']:.3f}s  "
            f"em {timings['em']:.3f}s  "
            f"posterior {timings['posterior_solve'] * 1e3:.2f}ms"
        )
        reports["BENCH_fit.json"] = fit_report

    if "serving" in selected:
        print("benchmarking serving path ...")
        serving_report = bench_serving(repeats=repeats, seed=args.seed)
        serving_t = serving_report["timings_seconds"]["predict_many"]
        print(
            f"  predict_many {serving_t:.3f}s "
            f"({serving_report['details']['requests_per_second']:,.0f} "
            "req/s)"
        )
        reports["BENCH_serving.json"] = serving_report

    if "streaming" in selected:
        print("benchmarking streaming path ...")
        streaming_report = bench_streaming(
            scale_name, repeats=repeats, seed=args.seed
        )
        streaming_t = streaming_report["timings_seconds"]
        print(
            f"  absorb_batch {streaming_t['absorb_batch'] * 1e3:.3f}ms  "
            f"full_refit {streaming_t['full_refit']:.3f}s  "
            f"(speedup "
            f"{streaming_report['details']['absorb_vs_refit_speedup']:.0f}x)"
        )
        reports["BENCH_streaming.json"] = streaming_report

    if "cluster" in selected:
        print("benchmarking cluster path ...")
        cluster_report = bench_cluster(
            scale_name, repeats=repeats, seed=args.seed
        )
        cluster_d = cluster_report["details"]
        ratio = cluster_d["pss_share_ratio"]
        print(
            f"  single {cluster_d['single_rows_per_second']:,.0f} rows/s  "
            f"cluster {cluster_d['cluster_rows_per_second']:,.0f} rows/s  "
            f"tcp {cluster_d['tcp_rows_per_second']:,.0f} rows/s  "
            f"(speedup {cluster_d['cluster_vs_single_speedup']:.2f}x on "
            f"{cluster_d['cpu_count']} cores; tcp/socketpair "
            f"{cluster_d['tcp_vs_socketpair_ratio']:.2f}x; pss share "
            f"{'n/a' if ratio is None else f'{ratio:.2f}x'})"
        )
        reports["BENCH_cluster.json"] = cluster_report

    if "kron" in selected:
        print("benchmarking kron solver (K=201 sweep, dual arm runs "
              "once) ...")
        kron_report = bench_kron(repeats=repeats, seed=args.seed)
        kron_t = kron_report["timings_seconds"]
        kron_d = kron_report["details"]
        print(
            f"  kron_fit {kron_t['kron_fit_k201']:.3f}s  "
            f"dual_fit {kron_t['dual_fit_k201']:.3f}s  "
            f"(speedup {kron_d['speedup_vs_dual']:.1f}x, coef parity "
            f"{kron_d['coef_parity_vs_dual']:.2e})"
        )
        reports["BENCH_kron.json"] = kron_report

    if "yield" in selected:
        print("benchmarking yield estimator (K=201 sweep, "
              f"{YIELD_MC_SAMPLES:,}-sample MC ground truth) ...")
        yield_report = bench_yield(repeats=repeats, seed=args.seed)
        yield_d = yield_report["details"]
        print(
            f"  rmse independent {yield_d['rmse_independent']:.4f}  "
            f"shrunk {yield_d['rmse_shrunk']:.4f}  "
            f"(improvement {yield_d['rmse_improvement']:.2f}x; shard "
            f"peak {yield_d['cluster_peak_bytes'] / 1e6:.1f} MB vs "
            f"{yield_d['dense_cov_bytes'] / 1e9:.1f} GB dense)"
        )
        reports["BENCH_yield.json"] = yield_report

    for name, report in reports.items():
        _write_report(report, output_dir / name)

    if args.update_baseline:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for name, report in reports.items():
            _write_report(report, baseline_dir / name)
        return 0

    if args.check:
        failures: List[str] = []
        for name, report in reports.items():
            baseline_path = baseline_dir / name
            if baseline_path.exists():
                baseline = json.loads(baseline_path.read_text())
                failures.extend(
                    check_regression(
                        report, baseline, threshold=args.threshold
                    )
                )
            else:
                print(f"no baseline at {baseline_path}; skipping check")
            if report["kind"] == "kron":
                # Absolute gates, enforced with or without a baseline.
                failures.extend(check_kron_gates(report))
            if report["kind"] == "yield":
                failures.extend(check_yield_gates(report))
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print(f"no regressions beyond {args.threshold}× — ok")
    return 0


def add_bench_parser(sub) -> None:
    """Register the ``bench`` subcommand on a subparsers object."""
    p = sub.add_parser(
        "bench",
        help="fit/serving benchmarks with JSON reports and regression gate",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="small scale + fewer repeats (the CI perf-smoke setting)",
    )
    p.add_argument(
        "--suite", default="all", choices=("all",) + SUITES,
        help="run a single benchmark suite (default: all)",
    )
    p.add_argument(
        "--scale", default="medium",
        help="fit workload scale when not --quick (default: medium)",
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
        help="compare against the baselines; exit 1 on regression",
    )
    p.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baselines with this run's numbers",
    )
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="regression gate ratio (default: 1.5)")
