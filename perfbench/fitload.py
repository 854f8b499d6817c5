"""Fit workloads: ``fit_lna`` (dual posterior path) and ``fit_sweep``
(Kronecker path plus the yield report), with the traced fit ledger.

Both fit through ``PerformanceModelSet.fit_dataset(method="cbmf")`` one
metric at a time, so each metric's fit is one timed operation; the
model set is assembled from the per-metric fits exactly as the
all-metrics call would build it (same estimator, same seed).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from common import (
    SETUP_REPEATS,
    TRACE_DIR,
    Outcome,
    Tracer,
    median,
    peak_rss_mb,
)

#: Held-out process draws of the swept LNA used for scoring fit_sweep.
SWEEP_TEST_SAMPLES = 5


def derived_seed(seed: int, stream: int) -> int:
    """An independent integer seed for one named input stream."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _setup(outcome: Outcome, workdir: Path, simulate):
    """Run ``simulate(cache_dir)`` into fresh caches; keep the last result."""
    seconds = []
    for rep in range(SETUP_REPEATS):
        started = time.perf_counter()
        data = simulate(workdir / f"cache{rep}")
        seconds.append(time.perf_counter() - started)
    outcome.e2e["setup_s"] = median(seconds)
    return data


def fit_model_set(train, seed: int, metrics=None
                  ) -> Tuple[object, Dict[str, float]]:
    """C-BMF fit of every metric; returns the set and per-metric seconds."""
    from repro.modelset import PerformanceModelSet

    models, seconds, basis = {}, {}, None
    for metric in metrics or train.metric_names:
        started = time.perf_counter()
        part = PerformanceModelSet.fit_dataset(
            train, method="cbmf", metrics=[metric], seed=seed
        )
        seconds[metric] = time.perf_counter() - started
        models[metric] = part.model(metric)
        basis = part.basis
    return PerformanceModelSet(models, basis), seconds


def model_error_pct(models, test) -> float:
    """Mean over metrics of the paper's relative error on held-out data."""
    from repro.evaluation.error import modeling_error_percent

    designs = models.basis.expand_states(test.inputs())
    errors = []
    for metric in models.metric_names:
        model = models.model(metric)
        predictions = [model.predict(d, k) for k, d in enumerate(designs)]
        errors.append(modeling_error_percent(predictions, test.targets(metric)))
    return float(np.mean(errors))


def _check_fits(outcome: Outcome, models) -> None:
    for metric in models.metric_names:
        coef = models.model(metric).coef_
        finite = coef is not None and bool(np.all(np.isfinite(coef)))
        outcome.operation(finite, f"fit {metric}: non-finite coefficients")


def _yield_report(models, seed: int):
    from repro.applications.yield_estimation import Specification
    from repro.cli import DEFAULT_SWEEP_SPECS
    from repro.yields import compute_yield_report

    specs = [Specification.parse(text) for text in DEFAULT_SWEEP_SPECS]
    return compute_yield_report(
        models.as_mapping(), models.basis, specs, n_samples=400, seed=seed
    )


def _check_yield(outcome: Outcome, report) -> None:
    ordered = bool(
        np.all(report.yield_ci_lower <= report.yield_shrunk)
        and np.all(report.yield_shrunk <= report.yield_ci_upper)
    )
    outcome.operation(
        report.correlation_shared and ordered,
        "yield report: correlation not shared or lower <= shrunk <= upper "
        "violated",
    )


# ----------------------------------------------------------------------
# The traced ledger
# ----------------------------------------------------------------------
def _install_fit_wrappers(tracer: Tracer) -> None:
    import repro.core.cbmf as cbmf
    import repro.core.em as em
    import repro.core.somp_init as somp_init
    import repro.yields.report as yields_report

    tracer.wrap(cbmf, "somp_initialize", "somp_init")
    tracer.wrap(
        somp_init, "parallel_map", "cv_grid",
        tag=lambda args, result: {"cells": len(args[1])},
    )
    tracer.wrap(somp_init, "select_shared_support", "greedy")
    tracer.wrap(cbmf, "run_em", "em")
    tracer.wrap(
        em, "compute_posterior", "posterior",
        tag=lambda args, result: {"solver": result.solver},
    )
    tracer.wrap(cbmf, "PosteriorPredictor", "predictor")
    tracer.wrap(yields_report, "sample_state_estimates", "yields.sample")
    tracer.wrap(yields_report, "model_correlation", "yields.shrink")
    tracer.wrap(yields_report, "correlation_shrink", "yields.shrink")


def _ledger(outcome: Outcome, tracer: Tracer, models, fit_s: float) -> None:
    layers = outcome.layers
    layers["somp_init.s"] = tracer.total("somp_init")
    layers["somp_init.cv_s"] = tracer.total("cv_grid")
    layers["somp_init.cv_cells"] = sum(
        s["cells"] for s in tracer.named("cv_grid")
    )
    layers["greedy.s"] = tracer.total("greedy")
    layers["greedy.scans"] = len(tracer.named("greedy"))
    layers["posterior.s"] = tracer.total("posterior")
    layers["posterior.dual_calls"] = len(
        tracer.named("posterior", solver="dual")
    )
    layers["posterior.kron_calls"] = len(
        tracer.named("posterior", solver="kron")
    )
    layers["em.s"] = tracer.total("em")
    layers["mstep.s"] = tracer.self_time("em")
    layers["em.iters"] = sum(
        models.model(m).report_.em.n_iterations for m in models.metric_names
    )
    layers["predictor.s"] = tracer.total("predictor")
    attributed = layers["somp_init.s"] + layers["em.s"] + layers["predictor.s"]
    layers["fit.unattributed_s"] = fit_s - attributed
    layers["ledger.closure_pct"] = 100.0 * attributed / fit_s
    layers["yields.sample_s"] = tracer.total("yields.sample")
    layers["yields.shrink_s"] = tracer.total("yields.shrink")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _run_fit(outcome: Outcome, train, test, seed: int, with_yield: bool,
             trace: bool) -> None:
    """Fit, score, check; traced runs wrap the fit path while fitting.

    A traced run takes its figures from the traced pass, then refits
    the last metric untraced; the refit must reproduce the traced
    coefficients exactly.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        _install_fit_wrappers(tracer)
    try:
        models, seconds = fit_model_set(train, seed)
        if with_yield:
            started = time.perf_counter()
            report = _yield_report(models, seed)
            outcome.headline["yield_s"] = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.unwrap()
    fit_s = sum(seconds.values())
    _check_fits(outcome, models)
    outcome.headline["fit_s"] = fit_s
    outcome.headline["model_err_pct"] = model_error_pct(models, test)
    outcome.extra["per_metric_fit_s"] = {
        m: round(s, 3) for m, s in seconds.items()
    }
    outcome.extra["n_states"] = train.n_states
    outcome.extra["n_basis"] = models.basis.n_basis
    outcome.extra["solvers"] = {
        m: models.model(m).predictor.solver for m in models.metric_names
    }
    if with_yield:
        outcome.extra["fleet_yield"] = round(report.fleet_yield, 4)
        _check_yield(outcome, report)
    # The workload's one operation: the model-set fit (fit_lna), or the
    # whole yield-report pipeline after simulation (fit_sweep).
    outcome.e2e["latency_ms"] = 1e3 * (
        fit_s + outcome.headline.get("yield_s", 0.0)
    )
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    if tracer is None:
        return

    metric = train.metric_names[-1]
    plain, plain_seconds = fit_model_set(train, seed, metrics=[metric])
    outcome.operation(
        np.array_equal(plain.model(metric).coef_, models.model(metric).coef_),
        "traced fit differs from the untraced fit",
    )
    _ledger(outcome, tracer, models, fit_s)
    # One traced fit against one untraced fit differs by host noise
    # (±10-30% per pair), so the overhead is the wrappers' own measured
    # cost; the pair difference is printed for reference.
    outcome.layers["trace.overhead_pct"] = (
        100.0 * len(tracer.spans) * Tracer.span_cost_s() / fit_s
    )
    outcome.extra["traced_vs_untraced_refit_pct"] = round(
        100.0 * (seconds[metric] / plain_seconds[metric] - 1.0), 1
    )
    trace_file = TRACE_DIR / f"{outcome.workload}-seed{seed}.json"
    tracer.dump(trace_file)
    outcome.extra["trace_file"] = str(trace_file)


def fit_lna(outcome: Outcome, seed: int, seconds: float, trace: bool,
            workdir: Path) -> None:
    """Table-1 C-BMF fit of the K=16 tunable LNA at medium scale."""
    from repro.paper import SCALES, load_or_simulate

    scale = SCALES["medium"]
    pool, test = _setup(
        outcome, workdir,
        lambda cache: load_or_simulate("lna", scale, seed, cache_dir=cache),
    )
    train = pool.head(scale.table_cbmf_per_state)
    _run_fit(outcome, train, test, seed, False, trace)


def fit_sweep(outcome: Outcome, seed: int, seconds: float, trace: bool,
              workdir: Path) -> None:
    """The ``yield-report`` pipeline on the K=201 swept LNA."""
    from repro.paper import simulate_sweep

    train = _setup(
        outcome, workdir,
        lambda cache: simulate_sweep(201, 10, seed, cache_dir=cache),
    )
    test = simulate_sweep(
        201, SWEEP_TEST_SAMPLES, derived_seed(seed, 1),
        cache_dir=workdir / "test",
    )
    _run_fit(outcome, train, test, seed, True, trace)
