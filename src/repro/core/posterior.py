"""MAP posterior of the C-BMF model (paper Section 3.2).

The posterior of the stacked coefficient vector α (eq. 19) is Gaussian with

    Σ_p = A − A Dᵀ (σ0² I + D A Dᵀ)⁻¹ D A                  (eq. 20, via
                                                            push-through)
    μ_p = σ0⁻² Σ_p Dᵀ y = A Dᵀ C⁻¹ y,   C = σ0² I + D A Dᵀ

``D`` is the ``NK × MK`` permuted block-diagonal design (eq. 18) and ``A``
the block prior (eq. 11). Forming either is hopeless at the paper's scale
(M·K ≈ 40 000), but both products collapse:

* ``D A Dᵀ = (Φ Λ Φᵀ) ∘ R[s, s]`` — an ``n × n`` Hadamard product, where
  ``Φ`` stacks the per-state designs row-wise, ``Λ = diag(λ)``, and ``s``
  maps each row to its state;
* the per-basis posterior mean is ``μ_p^m = λ_m · R · (D_mᵀ C⁻¹ y)`` and the
  per-basis covariance block ``Σ_p^m = λ_m R − λ_m² R S_m R`` with
  ``S_m[a,b] = Σ_{i∈a, j∈b} Φ[i,m]·C⁻¹[i,j]·Φ[j,m]``.

The EM updates (eq. 29-31) never need the blocks themselves, only three
statistics of them, and each reads ``C⁻¹`` directly (the first two
through one ``n × n × M`` product each):

    Tr(R⁻¹Σ^m)    = λ_m·Tr(R⁻¹R) − λ_m²·φ_mᵀ (C⁻¹ ∘ R[s, s]) φ_m
    Σ_m Σ^m/ℓ_m   = (Σ_m λ_m/ℓ_m)·R − R·B·R,
                    B = blocksum_K(C⁻¹ ∘ Φ·diag(λ²/ℓ)·Φᵀ)
    Tr(D Σ_p Dᵀ)  = σ0²·(n − σ0²·Tr(C⁻¹))

so the dual path returns its covariance factored (:class:`DualFactors`:
the Cholesky factor of ``C``, ``C⁻¹`` and the ``(λ, R)`` of the solve) and
the whole algorithm runs in ``O(n²·M + n³)`` per iteration with no
``(M, K, K)`` array.
``compute_posterior_dense`` keeps the literal textbook formulas, blocks
and einsums included, as a cross-check oracle for tests.

For *state-balanced* data (every state fitted on the same design matrix,
e.g. a swept-frequency dataset) a second fast path exists: the Kronecker
solver of :mod:`repro.core.kronecker`, which decouples the posterior into
K independent M-dimensional solves along the eigenvectors of R and scales
near-linearly in K. :func:`compute_posterior` auto-selects between the
two (``method="auto"``, through
:func:`repro.core.kronecker.choose_solver`); both are validated against
the dense oracle. Either path keeps its factorization of the posterior
(the Cholesky factor of ``C``, or ``(Q, ω, P, γ)``) on every solve, so
:class:`repro.core.predictive.PosteriorPredictor` is built from a
finished solve without factoring anything again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import linalg as sla

from repro.core.base import validate_multistate
from repro.core.kronecker import (
    KroneckerFactors,
    check_solved_correlation,
    choose_solver,
    compute_posterior_kron,
)
from repro.core.multistate import MultiStateData
from repro.core.prior import CorrelatedPrior
from repro.errors import NumericalError
from repro.utils.linalg import cholesky_factor, inv_from_cholesky, inv_psd

__all__ = [
    "DenseBlocks",
    "DualFactors",
    "PosteriorResult",
    "compute_posterior",
    "compute_posterior_dense",
]


@dataclass
class DualFactors:
    """The dual path's covariance ``Σ^m = λ_m·R − λ_m²·R·S_m·R``, factored.

    Holds ``C⁻¹`` and the ``(λ, R)`` of the solve; every M-step statistic
    is one ``n × n × M`` product over them (module docstring), so no
    ``S_m`` or ``Σ^m`` is formed.

    Attributes
    ----------
    data:
        The data the solve ran on.
    factor:
        The lower Cholesky factor of ``C``, shape (n, n).
    c_inv:
        ``C⁻¹``, shape (n, n); ``None`` when the solve skipped the
        covariance pass (``want_blocks=False``).
    r_rows:
        ``R[s, s]``, shape (n, n) — the expansion the solve built ``C``
        from.
    correlation, lambdas:
        The R and λ of the solve.
    mean:
        The posterior mean, shape (M, K).
    """

    data: MultiStateData
    factor: np.ndarray
    c_inv: Optional[np.ndarray]
    r_rows: np.ndarray
    correlation: np.ndarray
    lambdas: np.ndarray
    mean: np.ndarray

    def covariance_blocks(self) -> np.ndarray:
        """Dense (M, K, K) blocks — tests and inspection only.

        Forms every ``S_m`` by a segment sum per state, O(M·K²) memory;
        the fit path reads the statistics below instead.
        """
        data, phi = self.data, self.data.phi
        n_states = data.n_states
        s_tensor = np.empty((data.n_basis, n_states, n_states))
        for b, rows_b in enumerate(data.state_slices):
            cross = phi * (self.c_inv[:, rows_b] @ phi[rows_b])
            s_tensor[:, :, b] = data.segment_sum(cross).T
        s_tensor = 0.5 * (s_tensor + np.swapaxes(s_tensor, 1, 2))
        r = self.correlation
        return (
            self.lambdas[:, None, None] * r[None, :, :]
            - (self.lambdas**2)[:, None, None] * (r @ s_tensor @ r)
        )

    def mstep_lambda_stats(
        self, correlation: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-basis ``(μ^mᵀR⁻¹μ^m, Tr(R⁻¹Σ^m))`` from one GEMM over C⁻¹."""
        check_solved_correlation(self.correlation, correlation)
        r_inv = inv_psd(correlation)
        quad = np.einsum("mk,kl,ml->m", self.mean, r_inv, self.mean)
        phi = self.data.phi
        # φ_mᵀ(C⁻¹ ∘ R[s, s])φ_m = Tr(S_m·R), column by column.
        weighted = (self.c_inv * self.r_rows) @ phi
        tr_sr = np.einsum("im,im->m", phi, weighted)
        tr_rinv_r = float(np.einsum("kl,lk->", r_inv, correlation))
        traces = self.lambdas * tr_rinv_r - self.lambdas**2 * tr_sr
        return quad, traces

    def mstep_scaled_moment(self, scale: np.ndarray) -> np.ndarray:
        """``Σ_m (Σ^m + μ^m·μ^mᵀ)/scale_m`` from one GEMM over C⁻¹."""
        scale = np.asarray(scale, dtype=float)
        data, phi = self.data, self.data.phi
        # B = Σ_m (λ_m²/ℓ_m)·S_m: block-sum C⁻¹ ∘ Φ·diag(λ²/ℓ)·Φᵀ over
        # the state segments of both axes.
        kernel = (phi * (self.lambdas**2 / scale)) @ phi.T
        kernel *= self.c_inv
        b_matrix = data.segment_sum(data.segment_sum(kernel).T)
        b_matrix = 0.5 * (b_matrix + b_matrix.T)
        r = self.correlation
        covariance_part = float(np.sum(self.lambdas / scale)) * r - (
            r @ b_matrix @ r
        )
        mean_part = (self.mean / scale[:, None]).T @ self.mean
        return covariance_part + mean_part


@dataclass
class DenseBlocks:
    """Materialized (M, K, K) covariance blocks — the dense oracle's form.

    Its M-step statistics are the literal einsums of eq. 29-30, which the
    factored forms of :class:`DualFactors` and
    :class:`repro.core.kronecker.KroneckerFactors` are tested against.
    """

    blocks: np.ndarray
    mean: np.ndarray

    def covariance_blocks(self) -> np.ndarray:
        """The blocks themselves."""
        return self.blocks

    def mstep_lambda_stats(
        self, correlation: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-basis ``(μ^mᵀR⁻¹μ^m, Tr(R⁻¹Σ^m))``, literally."""
        r_inv = inv_psd(correlation)
        quad = np.einsum("mk,kl,ml->m", self.mean, r_inv, self.mean)
        traces = np.einsum("kl,mlk->m", r_inv, self.blocks)
        return quad, traces

    def mstep_scaled_moment(self, scale: np.ndarray) -> np.ndarray:
        """``Σ_m (Σ^m + μ^m·μ^mᵀ)/scale_m``, literally."""
        second_moment = self.blocks + np.einsum(
            "mk,ml->mkl", self.mean, self.mean
        )
        contributions = second_moment / np.asarray(scale, dtype=float)[
            :, None, None
        ]
        return contributions.sum(axis=0)


#: The covariance representations a solver can return; each implements
#: ``covariance_blocks``, ``mstep_lambda_stats`` and
#: ``mstep_scaled_moment``.
CovarianceFactors = Union[DualFactors, KroneckerFactors, DenseBlocks]


@dataclass
class PosteriorResult:
    """Posterior summary consumed by MAP prediction and the EM updates.

    Attributes
    ----------
    mean:
        Posterior mean, shape (M, K): ``mean[m, k]`` is the MAP coefficient
        of basis m in state k (the paper's α_{k,m}, eq. 22).
    residual_sq:
        ``‖y − D μ_p‖²`` summed over all states.
    trace_dsd:
        ``Tr(D Σ_p Dᵀ)`` — the posterior-uncertainty term of the σ0
        update. ``None`` when the solve skipped the inverse branch
        (``want_blocks=False``); consumers must go through
        :meth:`require_trace_dsd` so a skipped computation fails loudly
        instead of leaking into noise estimates.
    nll:
        Negative log marginal likelihood (eq. 25, up to the constant
        ``n·log 2π``).
    noise_var:
        The σ0² used for this solve.
    solver:
        Which path produced this result: ``"dual"``, ``"kron"`` or
        ``"oracle"`` (:func:`compute_posterior_dense`).
    factors:
        The posterior covariance in the solver's own representation
        (:class:`DualFactors`, :class:`repro.core.kronecker.KroneckerFactors`
        or the oracle's :class:`DenseBlocks`). Always present: the
        factorization of the solve is kept even when the covariance pass
        was skipped (``want_blocks=False``), and
        :class:`repro.core.predictive.PosteriorPredictor` reads it. The
        M-step goes through :meth:`mstep_lambda_stats`,
        :meth:`mstep_scaled_moment` and :meth:`covariance_blocks`, which
        need the covariance pass.
    """

    mean: np.ndarray
    residual_sq: float
    trace_dsd: Optional[float]
    nll: float
    noise_var: float
    solver: str
    factors: CovarianceFactors

    @property
    def coef(self) -> np.ndarray:
        """Coefficients in estimator layout, shape (K, M)."""
        return self.mean.T

    # ------------------------------------------------------------------
    # representation-agnostic covariance consumers
    # ------------------------------------------------------------------
    def _require_factors(self) -> CovarianceFactors:
        # Every solve sets trace_dsd exactly when it ran the covariance
        # pass (C⁻¹, V or the oracle's blocks).
        if self.trace_dsd is None:
            raise NumericalError(
                "posterior covariance was not computed (solved with "
                "want_blocks=False); re-solve with want_blocks=True"
            )
        return self.factors

    def covariance_blocks(self) -> np.ndarray:
        """Dense (M, K, K) blocks, materialized from the factors on demand.

        O(M·K²) memory on the fast paths — for tests and inspection; the
        fit path consumes the factored statistics below instead.
        """
        return self._require_factors().covariance_blocks()

    def mstep_lambda_stats(
        self, correlation: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-basis ``(μ^mᵀR⁻¹μ^m, Tr(R⁻¹Σ^m))`` for the λ update (eq. 29).

        ``correlation`` must be the R this posterior was solved at; the
        fast paths raise :class:`ValueError` otherwise.
        """
        return self._require_factors().mstep_lambda_stats(correlation)

    def mstep_scaled_moment(self, scale: np.ndarray) -> np.ndarray:
        """``Σ_m (Σ^m + μ^m·μ^mᵀ)/scale_m`` — the R-update numerator (eq. 30)."""
        return self._require_factors().mstep_scaled_moment(scale)

    def require_trace_dsd(self) -> float:
        """``Tr(D Σ_p Dᵀ)``, or :class:`NumericalError` if unavailable.

        Guards the σ0 update: a solve that skipped the inverse branch
        (``want_blocks=False``) has no uncertainty trace, and a
        non-finite one means the inverse itself broke down — both must
        fail here rather than flow silently into noise estimates.
        """
        if self.trace_dsd is None:
            raise NumericalError(
                "trace_dsd was not computed (posterior solved with "
                "want_blocks=False); re-solve with want_blocks=True"
            )
        if not np.isfinite(self.trace_dsd):
            raise NumericalError(
                f"trace_dsd is non-finite ({self.trace_dsd}); the "
                "posterior covariance computation broke down"
            )
        return float(self.trace_dsd)


def _stack(designs: Sequence[np.ndarray], targets: Sequence[np.ndarray]):
    """Stack per-state data row-wise; return (Φ, y, state-of-row)."""
    phi = np.vstack(designs)
    y = np.concatenate(targets)
    state_of_row = np.concatenate(
        [np.full(d.shape[0], k, dtype=int) for k, d in enumerate(designs)]
    )
    return phi, y, state_of_row


def compute_posterior(
    designs: Union[MultiStateData, Sequence[np.ndarray]],
    targets: Optional[Sequence[np.ndarray]] = None,
    prior: CorrelatedPrior = None,
    noise_var: float = None,
    *,
    want_blocks: bool = True,
    method: str = "auto",
) -> PosteriorResult:
    """Posterior mean, factored covariance and marginal likelihood.

    Parameters
    ----------
    designs, targets:
        Per-state design matrices ``B_k`` (N_k × M) and targets ``y_k`` —
        or a prebuilt :class:`MultiStateData` as the first argument (then
        ``targets`` must be omitted), which skips re-stacking and index
        construction entirely. Hot loops (EM, CV) use the cached form.
    prior:
        The correlated prior ``{λ, R}``; ``prior.n_basis`` must match the
        design width and ``prior.n_states`` the state count.
    noise_var:
        Observation noise variance σ0² (> 0).
    want_blocks:
        Skip the covariance pass (``C⁻¹`` on the dual path, the variance
        grid on the Kronecker path) when only the MAP mean, the marginal
        likelihood and the factorization are needed (e.g. to build a
        predictor); the result then has no ``trace_dsd`` and its M-step
        statistics raise :class:`NumericalError`.
    method:
        ``"auto"`` (default) — the path
        :func:`repro.core.kronecker.choose_solver` picks for this data;
        ``"dual"``/``"kron"`` force one path explicitly — ``"kron"``
        raises :class:`ValueError` on unbalanced data.
    """
    if isinstance(designs, MultiStateData):
        if targets is not None:
            raise TypeError(
                "targets must be None when passing MultiStateData"
            )
        data = designs
    else:
        data = MultiStateData.from_states(designs, targets)
    if noise_var is None or noise_var <= 0.0:
        raise ValueError(f"noise_var must be > 0, got {noise_var}")
    n_states = data.n_states
    n_basis = data.n_basis
    if prior.n_basis != n_basis:
        raise ValueError(
            f"prior has {prior.n_basis} bases, designs have {n_basis}"
        )
    if prior.n_states != n_states:
        raise ValueError(
            f"prior has {prior.n_states} states, got {n_states} designs"
        )

    if method not in ("auto", "dual", "kron"):
        raise ValueError(
            f"method must be 'auto', 'dual' or 'kron', got {method!r}"
        )
    if method == "auto":
        method = choose_solver(data)
    if method == "kron":
        return compute_posterior_kron(
            data, prior, noise_var, want_blocks=want_blocks
        )

    lambdas = prior.lambdas
    correlation = prior.correlation
    phi, y = data.phi, data.y
    n_rows = data.n_rows

    # C = σ0²·I + (Φ Λ Φᵀ) ∘ R[s, s]
    r_rows = data.expand_correlation(correlation)
    c_matrix = (phi * lambdas) @ phi.T
    c_matrix *= r_rows
    c_matrix.flat[:: n_rows + 1] += noise_var
    factor = cholesky_factor(c_matrix)

    v = sla.cho_solve((factor, True), y, check_finite=False)

    # W[m, k] = Σ_{rows i of state k} Φ[i, m]·v[i]  →  μ^m = λ_m·R·W[m, :]
    w_matrix = data.segment_sum(phi * v[:, None]).T
    mean = lambdas[:, None] * (w_matrix @ correlation)

    # Residual and marginal likelihood.
    residual = y - data.predict_rows(mean)
    residual_sq = float(residual @ residual)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    nll = float(y @ v) + log_det

    c_inv: Optional[np.ndarray] = None
    trace_dsd: Optional[float] = None
    if want_blocks:
        c_inv = inv_from_cholesky(factor)
        # DADᵀ = C − σ0²·I collapses the uncertainty trace to
        # Tr(D Σ_p Dᵀ) = σ0²·(n − σ0²·Tr(C⁻¹)) — no extra solve needed.
        trace_dsd = noise_var * (
            n_rows - noise_var * float(np.trace(c_inv))
        )
    factors = DualFactors(
        data=data,
        factor=factor,
        c_inv=c_inv,
        r_rows=r_rows,
        correlation=correlation,
        lambdas=lambdas,
        mean=mean,
    )

    return PosteriorResult(
        mean=mean,
        residual_sq=residual_sq,
        trace_dsd=trace_dsd,
        nll=nll,
        noise_var=noise_var,
        solver="dual",
        factors=factors,
    )


def compute_posterior_dense(
    designs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    prior: CorrelatedPrior,
    noise_var: float,
) -> PosteriorResult:
    """Literal-textbook posterior (eq. 18-22) — the O((MK)³) test oracle.

    Materializes the permuted block-diagonal ``D``, the full MK × MK
    prior covariance ``A`` and the complete posterior covariance; only
    usable for small M·K. This function is the ground truth that *both*
    production fast paths are validated against on random shapes
    (including column subsets of the designs): the dual-space/Woodbury
    solve of :func:`compute_posterior` and the Kronecker solve of
    :func:`repro.core.kronecker.compute_posterior_kron` — see
    ``tests/core/test_posterior_parity.py`` and
    ``tests/core/test_kronecker.py``. Keep it deliberately naive: any
    optimization here would erode its oracle status.
    """
    designs, targets = validate_multistate(designs, targets)
    n_states = len(designs)
    n_basis = designs[0].shape[1]
    phi, y, state_of_row = _stack(designs, targets)
    n_rows = phi.shape[0]

    # Column (m·K + k) of D carries basis m for rows of state k (eq. 18
    # after the permutation described below it).
    d_matrix = np.zeros((n_rows, n_basis * n_states))
    for i in range(n_rows):
        k = state_of_row[i]
        for m in range(n_basis):
            d_matrix[i, m * n_states + k] = phi[i, m]

    a_matrix = prior.full_covariance()
    c_matrix = noise_var * np.eye(n_rows) + d_matrix @ a_matrix @ d_matrix.T
    c_inv = np.linalg.inv(c_matrix)
    # The gain K = A·Dᵀ·C⁻¹ gives μ_p = K·y and, in Joseph form,
    # Σ_p = (I − K·D)·A·(I − K·D)ᵀ + σ0²·K·Kᵀ — eq. 20-22 exactly. The
    # shorter A − K·D·A and σ0⁻²·Σ_p·Dᵀ·y cancel when the data outweighs
    # the prior (Σ_p ≪ A) and lose ε·cond(C)·‖A‖/‖Σ_p‖, 1e-7 relative
    # at σ0² = 1e-3 with 10 rows per state; this form loses only ε·cond(C).
    gain = a_matrix @ d_matrix.T @ c_inv
    unexplained = np.eye(n_basis * n_states) - gain @ d_matrix
    sigma = unexplained @ a_matrix @ unexplained.T + noise_var * (
        gain @ gain.T
    )
    mu = gain @ y

    mean = mu.reshape(n_basis, n_states)
    blocks = np.empty((n_basis, n_states, n_states))
    for m in range(n_basis):
        block = slice(m * n_states, (m + 1) * n_states)
        blocks[m] = sigma[block, block]

    residual = y - d_matrix @ mu
    trace_dsd = float(np.trace(d_matrix @ sigma @ d_matrix.T))
    sign, log_det = np.linalg.slogdet(c_matrix)
    if sign <= 0:
        raise np.linalg.LinAlgError("C matrix is not positive definite")
    nll = float(y @ c_inv @ y) + float(log_det)

    return PosteriorResult(
        mean=mean,
        residual_sq=float(residual @ residual),
        trace_dsd=trace_dsd,
        nll=nll,
        noise_var=noise_var,
        solver="oracle",
        factors=DenseBlocks(blocks=blocks, mean=mean),
    )
