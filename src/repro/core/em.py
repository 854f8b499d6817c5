"""EM refinement of the C-BMF hyper-parameters (paper Section 3.3).

Starting from the S-OMP/cross-validation initial guess, each iteration
alternates:

* **E-step** — the posterior at the current ``Ω = {λ, R, σ0}``
  (eq. 19-21): mean blocks ``μ_p^m`` and the covariance blocks ``Σ_p^m``
  in the solver's factored form;
* **M-step** — the closed-form updates (eq. 29-31):

    λ_m ← ( μ^mᵀ R⁻¹ μ^m + Tr(R⁻¹ Σ^m) ) / K
    R   ← (1/M) Σ_m ( Σ^m + μ^m μ^mᵀ ) / λ_m
    σ0² ← ( ‖y − Dμ‖² + Tr(D Σ_p Dᵀ) ) / N_total

Implementation notes beyond the paper:

* **Pruning.** Bases whose λ falls below ``prune_threshold × max(λ)`` are
  frozen (their EM fixed point is λ_m ← λ_m and their limit contribution to
  the R update is exactly the current R), and excluded from the posterior
  solve. This is the standard sparse-Bayesian-learning acceleration; set
  ``prune_threshold=0`` for the literal full-M iteration.
* **Scale pinning.** ``λ_m·R`` is invariant to ``(cλ, R/c)``; after every R
  update the pair is renormalized so R keeps a unit mean diagonal.
* **PSD guarding.** The R update is symmetrized and eigenvalue-floored so
  round-off can never leave the PSD cone.
* **One eigendecomposition of R per iteration.** The floor is applied in
  R's eigenbasis, and those eigenpairs (rescaled by the scale pin) travel
  with the next prior (``CorrelatedPrior.eigenpairs``), so the Kronecker
  E-step and the prior's PSD check decompose nothing again. The
  initializer's R is decomposed once, before the first E-step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import validate_multistate
from repro.core.kronecker import _psd_eigh
from repro.core.multistate import MultiStateData
from repro.core.posterior import PosteriorResult, compute_posterior
from repro.core.prior import CorrelatedPrior
from repro.utils.linalg import nearest_psd_eigh, symmetrize

__all__ = ["EmConfig", "EmTrace", "run_em"]


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM iteration."""

    #: Hard iteration cap.
    max_iterations: int = 60
    #: Convergence: relative NLL change below this stops the iteration.
    tolerance: float = 1e-5
    #: Relative λ threshold below which a basis is frozen and excluded
    #: from the posterior solve. The default 0 disables pruning — the
    #: paper-literal full-M iteration, which measurably beats aggressive
    #: pruning on diffuse circuits (many moderately-important bases).
    #: Set ~1e-4 to trade a little accuracy for faster EM at large M.
    prune_threshold: float = 0.0
    #: Lower bound on λ to keep the prior proper.
    lambda_floor: float = 1e-12
    #: Eigenvalue floor applied to the updated R.
    r_eigenvalue_floor: float = 1e-6
    #: Learn R (eq. 30); False keeps the initial R fixed (ablation).
    update_r: bool = True
    #: Force R diagonal each update — recovers uncorrelated (classic BMF
    #: style) magnitudes while keeping the shared template (ablation).
    diagonal_r: bool = False
    #: Learn σ0 (eq. 31); False keeps the initial value.
    update_noise: bool = True
    #: Lower bound on σ0².
    min_noise_var: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")
        if self.prune_threshold < 0.0:
            raise ValueError("prune_threshold must be >= 0")


@dataclass
class EmTrace:
    """Diagnostics of one EM run."""

    nll_history: List[float] = field(default_factory=list)
    active_history: List[int] = field(default_factory=list)
    noise_history: List[float] = field(default_factory=list)
    converged: bool = False
    seconds: float = 0.0
    #: Wall-clock spent in the E-step posterior solves (incl. the final
    #: full-basis solve), for profiling the fit path. The solve returns
    #: the covariance factored, so this excludes reading it.
    posterior_seconds: float = 0.0
    #: Wall-clock spent in the closed-form M-step updates, including the
    #: products that read the factored covariance (on the dual path, two
    #: ``n × n × M`` GEMMs over ``C⁻¹``).
    mstep_seconds: float = 0.0

    @property
    def n_iterations(self) -> int:
        """Completed EM iterations."""
        return len(self.nll_history)


def run_em(
    designs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    prior: CorrelatedPrior,
    noise_var: float,
    config: Optional[EmConfig] = None,
) -> Tuple[CorrelatedPrior, float, PosteriorResult, EmTrace]:
    """Refine ``{λ, R, σ0}`` by EM and return the final posterior.

    Returns ``(prior, noise_var, posterior, trace)`` where ``posterior`` is
    evaluated at the final hyper-parameters over the **full** basis set,
    with the bases pruned at those hyper-parameters held at λ = 0: the
    returned mean has shape (M, K) regardless of pruning and is exactly
    zero on pruned bases, and the posterior conditions on the active set
    the mean came from. It keeps its factorization (``want_blocks=False``)
    for :class:`repro.core.predictive.PosteriorPredictor`.
    """
    designs, targets = validate_multistate(designs, targets)
    config = config or EmConfig()
    started = time.perf_counter()

    data = MultiStateData.from_states(designs, targets, validate=False)
    n_states = data.n_states
    n_basis = data.n_basis
    n_total = data.n_rows
    lambdas = prior.lambdas.copy()
    correlation = prior.correlation.copy()
    eigenpairs = prior.eigenpairs or _psd_eigh(correlation)
    trace = EmTrace()

    previous_nll: Optional[float] = None
    for _ in range(config.max_iterations):
        active = _active_set(lambdas, config.prune_threshold)
        sub_data = data.restrict(active)
        sub_prior = CorrelatedPrior._from_eigenpairs(
            lambdas[active], correlation, eigenpairs
        )
        e_started = time.perf_counter()
        posterior = compute_posterior(
            sub_data, prior=sub_prior, noise_var=noise_var, want_blocks=True
        )
        trace.posterior_seconds += time.perf_counter() - e_started
        trace.nll_history.append(posterior.nll)
        trace.active_history.append(int(active.size))
        trace.noise_history.append(noise_var)

        # ---------------- M-step ----------------
        # The moment contractions live on PosteriorResult so each solver
        # supplies them from its own factored covariance, without
        # materializing (M, K, K) blocks.
        m_started = time.perf_counter()
        quad, traces = posterior.mstep_lambda_stats(correlation)
        new_lambdas = lambdas.copy()
        new_lambdas[active] = np.maximum(
            (quad + traces) / n_states, config.lambda_floor
        )

        if config.update_r:
            safe_lambda = np.maximum(new_lambdas[active], config.lambda_floor)
            # Frozen bases contribute their EM limit: the current R each.
            n_frozen = n_basis - active.size
            summed = (
                posterior.mstep_scaled_moment(safe_lambda)
                + n_frozen * correlation
            )
            new_r = symmetrize(summed / n_basis)
            if config.diagonal_r:
                new_r = np.diag(np.diag(new_r))
            new_r, omega, q_matrix = nearest_psd_eigh(
                new_r, floor=config.r_eigenvalue_floor
            )
        else:
            new_r = correlation
            omega, q_matrix = eigenpairs

        if config.update_noise:
            noise_var = max(
                (posterior.residual_sq + posterior.require_trace_dsd())
                / n_total,
                config.min_noise_var,
            )

        # Pin the (λ, R) scale.
        scale = float(np.mean(np.diag(new_r)))
        lambdas = new_lambdas * scale
        correlation = new_r / scale
        eigenpairs = (omega / scale, q_matrix)
        trace.mstep_seconds += time.perf_counter() - m_started

        if previous_nll is not None:
            denom = max(abs(previous_nll), 1.0)
            if abs(previous_nll - posterior.nll) / denom < config.tolerance:
                trace.converged = True
                break
        previous_nll = posterior.nll

    final_prior = CorrelatedPrior._from_eigenpairs(
        lambdas, correlation, eigenpairs
    )
    e_started = time.perf_counter()
    final_posterior = _full_posterior(data, final_prior, noise_var, config)
    trace.posterior_seconds += time.perf_counter() - e_started
    trace.seconds = time.perf_counter() - started
    return final_prior, noise_var, final_posterior, trace


def _active_set(lambdas: np.ndarray, threshold: float) -> np.ndarray:
    """Bases retained in the posterior solve."""
    if threshold <= 0.0:
        return np.arange(lambdas.shape[0])
    peak = float(lambdas.max(initial=0.0))
    active = np.flatnonzero(lambdas > threshold * peak)
    if active.size == 0:
        # Degenerate prior — keep the single largest λ to stay solvable.
        active = np.array([int(np.argmax(lambdas))])
    return active


def _full_posterior(
    data: MultiStateData,
    prior: CorrelatedPrior,
    noise_var: float,
    config: EmConfig,
) -> PosteriorResult:
    """Final MAP solve on the full basis set, pruned bases at λ = 0."""
    active = _active_set(prior.lambdas, config.prune_threshold)
    lambdas = np.zeros_like(prior.lambdas)
    lambdas[active] = prior.lambdas[active]
    return compute_posterior(
        data,
        prior=CorrelatedPrior._from_eigenpairs(
            lambdas, prior.correlation, prior.eigenpairs
        ),
        noise_var=noise_var,
        want_blocks=False,
    )
