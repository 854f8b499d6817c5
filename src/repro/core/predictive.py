"""Posterior-predictive uncertainty for the C-BMF model.

The C-BMF model is a Gaussian process in disguise: marginalizing the
coefficients, two observations — row i in state s_i with basis vector φ_i,
and a query point in state k with basis vector φ — share the covariance

    k((k, φ), (s_i, φ_i)) = R[k, s_i] · φᵀ Λ φ_i

with Λ = diag(λ). The predictive distribution of a new observation follows
from the standard GP conditioning identities using the same ``C = σ0²·I +
(Φ Λ Φᵀ) ∘ R[s, s]`` matrix the MAP solve factorizes:

    mean  = kᵀ C⁻¹ y = φᵀ μ^(k)            (the MAP prediction itself)
    var   = R[k,k]·φᵀΛφ − kᵀ C⁻¹ k  (+ σ0² for a new *measurement*)

A :class:`PosteriorPredictor` is built from a finished posterior solve —
the one :func:`repro.core.em.run_em` ends a fit with — and factors nothing
again: the mean and the variance condition on the one ``C`` that solve
factored. It reads the factorization the solve kept
(:attr:`repro.core.posterior.PosteriorResult.factors`):

* dual path — the Cholesky factor L of C, so ``kᵀC⁻¹k = ‖L⁻¹k‖²``;
* Kronecker path — ``(Q, ω, P, γ)`` of :mod:`repro.core.kronecker`. The
  state-k coefficients are ``Σ_j Q[k, j]·β̃_j`` over independent rotated
  blocks with covariance ``Σ̃_j``, so the latent variance is read in the
  rotated frame, with no C at all:

      var = Σ_j Q[k, j]²·ω_j·Σ_i (Pᵀ√Λφ)_i² / denom[i, j]
            + R[k, k]·(‖√Λφ‖² − ‖Pᵀ√Λφ‖²),

  the second term being the null space of G̃ (``denom = 1``), so a query
  costs O(n·M·r) with r ≤ N.

The mean is ``design @ mean[:, k]`` on both paths.

This gives every C-BMF fit posterior error bars — useful to decide
*where* the next simulation samples buy the most accuracy (see
:mod:`repro.active`). How well they are calibrated depends on where EM
stopped (EXPERIMENTS.md, "One EM path").

The predictor is also the **online-update primitive** of the streaming
subsystem: :meth:`PosteriorPredictor.absorb` appends a fresh batch of b
observations by *extending* the Cholesky factor of C with one Schur
complement block —

    C' = [[C, B], [Bᵀ, D]]  →  L' = [[L, 0], [L21, chol(D − L21 L21ᵀ)]]

with ``L21ᵀ = L⁻¹ B`` — an O(n²·b) update instead of the O((n+b)³)
refactorization. The Cholesky factor of a positive-definite matrix is
unique, so an absorbed predictor is numerically identical to one built
from scratch on the concatenated data. A Kronecker predictor holds no
factor of C; its first absorb takes one from
``compute_posterior(..., method="dual")``, the one place C is built.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from scipy import linalg as sla

from repro.core.posterior import PosteriorResult, compute_posterior
from repro.core.prior import CorrelatedPrior
from repro.errors import NumericalError
from repro.utils.linalg import cholesky_factor
from repro.utils.validation import check_matrix

__all__ = ["PosteriorPredictor"]


class PosteriorPredictor:
    """Predictive mean/std for a fitted correlated-prior model.

    Parameters
    ----------
    designs:
        The :class:`~repro.core.posterior.PosteriorResult` of a finished
        dual or Kronecker solve (with or without its covariance pass),
        passed alone — or the per-state training designs (standardized
        scale), solved here once by
        :func:`~repro.core.posterior.compute_posterior`.
    targets, prior, noise_var:
        With designs: the targets, the (post-EM) hyper-parameters and the
        observation noise σ0² to solve at.
    """

    def __init__(
        self,
        designs: Union[PosteriorResult, Sequence[np.ndarray]],
        targets: Optional[Sequence[np.ndarray]] = None,
        prior: Optional[CorrelatedPrior] = None,
        noise_var: Optional[float] = None,
    ) -> None:
        if isinstance(designs, PosteriorResult):
            if not (targets is None and prior is None and noise_var is None):
                raise TypeError(
                    "pass a PosteriorResult alone, without targets, prior "
                    "or noise_var"
                )
            posterior = designs
        else:
            posterior = compute_posterior(
                designs, targets, prior, noise_var, want_blocks=False
            )
        if posterior.solver not in ("dual", "kron"):
            raise ValueError(
                f"a predictor needs a dual or Kronecker solve, got "
                f"{posterior.solver!r}"
            )
        factors = posterior.factors
        self._lambdas = factors.lambdas
        self._correlation = factors.correlation
        self._noise_var = posterior.noise_var
        self._mean = posterior.mean
        data = factors.data
        self._phi = data.phi
        self._y = data.y
        self._state_of_row = data.state_of_row
        self._factor: Optional[np.ndarray] = None
        self._kron = self._kron_inv_denom = None
        if posterior.solver == "dual":
            self._factor = factors.factor
        else:
            self._kron = factors
            self._kron_inv_denom = 1.0 / (
                1.0 + np.outer(factors.gamma, factors.omega) / self._noise_var
            )

    # ------------------------------------------------------------------
    @property
    def solver(self) -> str:
        """The path of the posterior conditioned on: ``"dual"`` or
        ``"kron"`` (a Kronecker predictor turns ``"dual"`` on absorb)."""
        return "dual" if self._kron is None else "kron"

    @property
    def n_rows(self) -> int:
        """Training rows currently conditioned on (grows with absorb)."""
        return self._phi.shape[0]

    @cached_property
    def prior(self) -> CorrelatedPrior:
        """The (frozen) hyper-parameters this predictor conditions with."""
        return CorrelatedPrior(
            lambdas=self._lambdas, correlation=self._correlation
        )

    @property
    def noise_var(self) -> float:
        """The observation-noise variance σ0² of this predictor."""
        return self._noise_var

    @property
    def mean(self) -> np.ndarray:
        """The posterior mean, shape (M, K): ``mean[m, k]`` is the MAP
        coefficient of basis m in state k (standardized targets)."""
        return self._mean

    def training_rows(self):
        """Views of the conditioned rows: ``(phi, targets, state_of_row)``.

        Read-only by convention — mutating them would desynchronize the
        cached factorization. Streaming refits read the accumulated data
        back out through this.
        """
        return self._phi, self._y, self._state_of_row

    @property
    def dual_weights(self) -> np.ndarray:
        """The dual-space weights α = C⁻¹ y (one per training row).

        Read from the posterior mean through the push-through identity
        ``α = (y − D μ)/σ0²``, on either path.
        """
        fitted = np.einsum(
            "ij,ji->i", self._phi, self._mean[:, self._state_of_row]
        )
        return (self._y - fitted) / self._noise_var

    # ------------------------------------------------------------------
    def _check_query(self, design: np.ndarray, state: int) -> np.ndarray:
        design = check_matrix(
            design, "design", shape=(None, self._lambdas.shape[0])
        )
        n_states = self._correlation.shape[0]
        if not 0 <= state < n_states:
            raise IndexError(
                f"state {state} out of range 0..{n_states - 1}"
            )
        return design

    def absorb(
        self, design: np.ndarray, target: np.ndarray, state: int
    ) -> None:
        """Condition on a fresh batch of observations, in place.

        Appends ``design`` (b × M basis rows) with observed values
        ``target`` at knob ``state`` to the training set and extends the
        Cholesky factor of C by the batch's Schur-complement block — an
        O(n²·b) update at the frozen ``{λ, R, σ0}`` instead of the
        O((n+b)³) refactorization a from-scratch rebuild performs. The
        result is numerically identical to constructing a new
        :class:`PosteriorPredictor` on the concatenated data (the
        Cholesky factor of a positive-definite matrix is unique).
        """
        design = self._check_query(design, state)
        target = np.asarray(target, dtype=float).reshape(-1)
        if target.shape[0] != design.shape[0]:
            raise ValueError(
                f"target has {target.shape[0]} values for "
                f"{design.shape[0]} design rows"
            )
        if not np.all(np.isfinite(target)):
            raise ValueError(
                "absorb refuses non-finite target values; "
                "quarantine the batch upstream"
            )
        if self._kron is not None:
            # The batch breaks the shared-design structure: continue on
            # the dual path from one factor of C. Raises NumericalError
            # if C cannot be factorized — never a silently wrong answer.
            dual = compute_posterior(
                self._kron.data,
                prior=self.prior,
                noise_var=self._noise_var,
                want_blocks=False,
                method="dual",
            )
            self._factor = dual.factors.factor
            self._kron = self._kron_inv_denom = None

        n_old = self._phi.shape[0]
        n_new = design.shape[0]
        # Cross block B (n_old × b) is exactly the query kernel; the new
        # diagonal block D adds the batch self-kernel plus σ0².
        cross = self._cross_covariance(design, state)
        weighted = design * self._lambdas
        diag_block = self._correlation[state, state] * (weighted @ design.T)
        diag_block = 0.5 * (diag_block + diag_block.T)
        diag_block.flat[:: n_new + 1] += self._noise_var
        # L21ᵀ = L⁻¹ B, Schur complement S = D − L21 L21ᵀ.
        l21_t = sla.solve_triangular(
            self._factor, cross, lower=True, check_finite=False
        )
        schur = diag_block - l21_t.T @ l21_t
        schur_factor = cholesky_factor(schur)

        factor = np.zeros((n_old + n_new, n_old + n_new))
        factor[:n_old, :n_old] = self._factor
        factor[n_old:, :n_old] = l21_t.T
        factor[n_old:, n_old:] = schur_factor
        self._factor = factor
        self._phi = np.vstack([self._phi, design])
        self._y = np.concatenate([self._y, target])
        self._state_of_row = np.concatenate(
            [self._state_of_row, np.full(n_new, state, dtype=int)]
        )
        # μ^m = λ_m · R · W[:, m] with W[k, m] = Σ_{i ∈ k} Φ[i, m]·α_i.
        alpha = sla.cho_solve(
            (self._factor, True), self._y, check_finite=False
        )
        w_matrix = np.zeros((self._correlation.shape[0], self._phi.shape[1]))
        np.add.at(w_matrix, self._state_of_row, self._phi * alpha[:, None])
        self._mean = self._lambdas[:, None] * (w_matrix.T @ self._correlation)

    # ------------------------------------------------------------------
    def _cross_covariance(self, design: np.ndarray, state: int) -> np.ndarray:
        """k(query, training): (n_train × n_query)."""
        weighted = self._phi * self._lambdas  # n_train × M
        kernel = weighted @ design.T  # n_train × n_query
        kernel *= self._correlation[self._state_of_row, state][:, None]
        return kernel

    def predict_mean(self, design: np.ndarray, state: int) -> np.ndarray:
        """Predictive mean: the MAP-coefficient prediction."""
        return self._check_query(design, state) @ self._mean[:, state]

    def augmented(self, design: np.ndarray, state: int) -> "PosteriorPredictor":
        """A copy conditioned on extra observations at ``design``/``state``.

        The pseudo-targets are the current predictive means, i.e. a
        "fantasy" update: the predictive mean function is unchanged while
        the predictive variance shrinks exactly as it would for real
        observations (the GP variance never depends on the targets).
        Acquisition loops use this to score a *batch* of candidates
        jointly — greedily conditioning on each pick so the next pick is
        not redundant with it — before any simulation is spent.
        """
        pseudo = self.predict_mean(design, state)
        conditioned = copy.deepcopy(self)
        conditioned.absorb(design, pseudo, state)
        return conditioned

    def predict_std(
        self,
        design: np.ndarray,
        state: int,
        include_noise: bool = False,
    ) -> np.ndarray:
        """Predictive standard deviation per query row.

        ``include_noise=True`` adds the observation noise σ0² — the spread
        of a new *simulation result*, not just of the latent performance.
        """
        design = self._check_query(design, state)
        kron = self._kron
        if kron is not None:
            # Rotated frame: Σ_j Q[s, j]²·ω_j·Σ_i (Pᵀ√Λφ)_i²/denom[i, j],
            # plus G̃'s null space (denom = 1), R[s, s]-weighted.
            scaled = design * np.sqrt(kron.lambdas)
            rotated = scaled @ kron.p
            state_weights = kron.q[state] ** 2 * kron.omega
            rotated_sq = rotated * rotated
            null_sq = np.einsum("ij,ij->i", scaled, scaled) - rotated_sq.sum(
                axis=1
            )
            variance = rotated_sq @ (
                self._kron_inv_denom @ state_weights
            ) + state_weights.sum() * np.maximum(null_sq, 0.0)
        else:
            prior_var = self._correlation[state, state] * np.einsum(
                "ij,j,ij->i", design, self._lambdas, design
            )
            half = sla.solve_triangular(
                self._factor,
                self._cross_covariance(design, state),
                lower=True,
                check_finite=False,
            )
            variance = prior_var - np.einsum("ij,ij->j", half, half)
        variance = np.maximum(variance, 0.0)
        if not np.all(np.isfinite(variance)):
            raise NumericalError(
                f"non-finite predictive variance for state {state} "
                f"({int(np.sum(~np.isfinite(variance)))} of "
                f"{variance.size} queries)"
            )
        if include_noise:
            variance = variance + self._noise_var
        return np.sqrt(variance)
