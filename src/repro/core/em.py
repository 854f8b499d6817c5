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

Every iteration updates all M bases. Implementation notes beyond the
paper:

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

#: Lower bound on λ, which keeps the prior proper.
LAMBDA_FLOOR = 1e-12
#: Eigenvalue floor applied to the updated R.
R_EIGENVALUE_FLOOR = 1e-6
#: Lower bound on σ0².
MIN_NOISE_VAR = 1e-12


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM iteration."""

    #: Hard iteration cap.
    max_iterations: int = 60
    #: Convergence: relative NLL change below this stops the iteration.
    tolerance: float = 1e-5
    #: Learn R (eq. 30); False keeps the initial R fixed (ablation).
    update_r: bool = True
    #: Force R diagonal each update — recovers uncorrelated (classic BMF
    #: style) magnitudes while keeping the shared template (ablation).
    diagonal_r: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")


@dataclass
class EmTrace:
    """Diagnostics of one EM run."""

    nll_history: List[float] = field(default_factory=list)
    noise_history: List[float] = field(default_factory=list)
    converged: bool = False
    seconds: float = 0.0
    #: Wall-clock spent in the E-step posterior solves (incl. the final
    #: solve), for profiling the fit path. The solve returns the
    #: covariance factored, so this excludes reading it.
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
    evaluated at the final hyper-parameters. It keeps its factorization
    (``want_blocks=False``) for
    :class:`repro.core.predictive.PosteriorPredictor`.
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
        e_started = time.perf_counter()
        posterior = compute_posterior(
            data,
            prior=CorrelatedPrior._from_eigenpairs(
                lambdas, correlation, eigenpairs
            ),
            noise_var=noise_var,
            want_blocks=True,
        )
        trace.posterior_seconds += time.perf_counter() - e_started
        trace.nll_history.append(posterior.nll)
        trace.noise_history.append(noise_var)

        # ---------------- M-step ----------------
        # The moment contractions live on PosteriorResult so each solver
        # supplies them from its own factored covariance, without
        # materializing (M, K, K) blocks.
        m_started = time.perf_counter()
        quad, traces = posterior.mstep_lambda_stats(correlation)
        new_lambdas = np.maximum((quad + traces) / n_states, LAMBDA_FLOOR)

        if config.update_r:
            new_r = symmetrize(
                posterior.mstep_scaled_moment(new_lambdas) / n_basis
            )
            if config.diagonal_r:
                new_r = np.diag(np.diag(new_r))
            new_r, omega, q_matrix = nearest_psd_eigh(
                new_r, floor=R_EIGENVALUE_FLOOR
            )
        else:
            new_r = correlation
            omega, q_matrix = eigenpairs

        noise_var = max(
            (posterior.residual_sq + posterior.require_trace_dsd()) / n_total,
            MIN_NOISE_VAR,
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
    final_posterior = compute_posterior(
        data, prior=final_prior, noise_var=noise_var, want_blocks=False
    )
    trace.posterior_seconds += time.perf_counter() - e_started
    trace.seconds = time.perf_counter() - started
    return final_prior, noise_var, final_posterior, trace
