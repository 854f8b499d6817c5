"""Posterior-predictive uncertainty for the C-BMF model.

The C-BMF model is a Gaussian process in disguise: marginalizing the
coefficients, two observations — row i in state s_i with basis vector φ_i,
and a query point in state k with basis vector φ — share the covariance

    k((k, φ), (s_i, φ_i)) = R[k, s_i] · φᵀ Λ φ_i

with Λ = diag(λ). The predictive distribution of a new observation follows
from the standard GP conditioning identities using the same ``C = σ0²·I +
(Φ Λ Φᵀ) ∘ R[s, s]`` matrix the MAP solve already factorizes:

    mean  = kᵀ C⁻¹ y                      (identical to the MAP prediction)
    var   = R[k,k]·φᵀΛφ − kᵀ C⁻¹ k  (+ σ0² for a new *measurement*)

This gives every C-BMF fit calibrated error bars at the cost of one
triangular solve per query batch — useful to decide *where* the next
simulation samples buy the most accuracy (see :mod:`repro.active`).

The predictor is also the **online-update primitive** of the streaming
subsystem: :meth:`PosteriorPredictor.absorb` appends a fresh batch of b
observations by *extending* the Cholesky factor of C with one Schur
complement block —

    C' = [[C, B], [Bᵀ, D]]  →  L' = [[L, 0], [L21, chol(D − L21 L21ᵀ)]]

with ``L21ᵀ = L⁻¹ B`` — an O(n²·b) update instead of the O((n+b)³)
refactorization. The Cholesky factor of a positive-definite matrix is
unique, so an absorbed predictor is numerically identical to one built
from scratch on the concatenated data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy import linalg as sla

from repro.core.kronecker import (
    KRON_MIN_STATES,
    _psd_eigh,
    resolve_solver_mode,
)
from repro.core.multistate import MultiStateData
from repro.core.prior import CorrelatedPrior
from repro.errors import NumericalError
from repro.utils.linalg import cholesky_factor
from repro.utils.validation import check_matrix

__all__ = ["PosteriorPredictor"]


class PosteriorPredictor:
    """Predictive mean/std for a fitted correlated-prior model.

    Parameters
    ----------
    designs, targets:
        The training data the model was fitted on (standardized scale).
    prior:
        The (post-EM) hyper-parameters.
    noise_var:
        The learned observation noise σ0².
    """

    def __init__(
        self,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
        prior: CorrelatedPrior,
        noise_var: float,
    ) -> None:
        data = MultiStateData.from_states(designs, targets)
        if noise_var <= 0.0:
            raise ValueError(f"noise_var must be > 0, got {noise_var}")
        if prior.n_states != data.n_states:
            raise ValueError(
                f"prior has {prior.n_states} states, got {data.n_states}"
            )
        if prior.n_basis != data.n_basis:
            raise ValueError(
                f"prior has {prior.n_basis} bases, designs have "
                f"{data.n_basis}"
            )
        self._prior = prior
        self._noise_var = noise_var
        self._phi = data.phi
        self._y = data.y
        self._state_of_row = data.state_of_row
        # Kronecker factors (populated in kron mode only).
        self._kron_u: Optional[np.ndarray] = None
        self._kron_q: Optional[np.ndarray] = None
        self._kron_denom: Optional[np.ndarray] = None

        mode = resolve_solver_mode()
        if (
            mode != "dual"
            and (mode == "kron" or data.n_states >= KRON_MIN_STATES)
            and data.state_balanced
        ):
            self._mode = "kron"
            self._init_kron(data.shared_design, data.targets_matrix())
        else:
            self._mode = "dense"
            self._init_dense()

    def _init_dense(self) -> None:
        """Factorize the full n×n kernel matrix C (general path)."""
        gram = (self._phi * self._prior.lambdas) @ self._phi.T
        r_expanded = self._prior.correlation[
            np.ix_(self._state_of_row, self._state_of_row)
        ]
        self._factor: Optional[np.ndarray] = cholesky_factor(
            gram * r_expanded + self._noise_var * np.eye(self._phi.shape[0])
        )
        self._alpha = sla.cho_solve(
            (self._factor, True), self._y, check_finite=False
        )
        self._kron_u = self._kron_q = self._kron_denom = None

    def _init_kron(self, design: np.ndarray, y_matrix: np.ndarray) -> None:
        """Diagonalize C = R ⊗ H + σ0²·I without materializing it.

        With one shared per-state design B (rows state-major in the
        stacked ``_phi``), the kernel matrix factorizes as ``C = R ⊗ H +
        σ0²·I`` with ``H = B Λ Bᵀ`` (N × N). Eigendecomposing both
        factors — ``H = U diag(h) Uᵀ``, ``R = Q diag(ω) Qᵀ`` — gives
        ``C = (Q ⊗ U) diag(σ0² + h_i ω_j) (Q ⊗ U)ᵀ``, so the dual
        weights α = C⁻¹y and every query quadratic form cost
        O(N³ + K³ + NK·(N + K)) instead of O((NK)³).
        """
        lam = self._prior.lambdas
        h_mat = (design * lam) @ design.T
        h, u = _psd_eigh(0.5 * (h_mat + h_mat.T))
        omega, q = _psd_eigh(self._prior.correlation)
        denom = self._noise_var + np.outer(h, omega)  # (N, K), all > 0
        y_rot = u.T @ y_matrix @ q
        alpha = u @ (y_rot / denom) @ q.T  # (N, K), column k = state k
        self._kron_u = u
        self._kron_q = q
        self._kron_denom = denom
        self._alpha = alpha.T.ravel()  # state-major, matching _phi rows
        self._factor = None

    def _densify(self) -> None:
        """Swap from Kronecker factors to the dense Cholesky factor.

        ``absorb`` extends C row-wise, which breaks the Kronecker
        structure (the absorbed state gains rows the others lack), so the
        first absorb on a Kronecker-mode predictor pays one dense
        factorization and continues on the dense path. Raises
        :class:`NumericalError` if C cannot be factorized — never a
        silently wrong answer.
        """
        self._init_dense()
        self._mode = "dense"

    # ------------------------------------------------------------------
    @property
    def solver(self) -> str:
        """Active representation: ``"kron"`` or ``"dense"``."""
        return self._mode

    @property
    def n_rows(self) -> int:
        """Training rows currently conditioned on (grows with absorb)."""
        return self._phi.shape[0]

    @property
    def prior(self) -> CorrelatedPrior:
        """The (frozen) hyper-parameters this predictor conditions with."""
        return self._prior

    @property
    def noise_var(self) -> float:
        """The observation-noise variance σ0² of this predictor."""
        return self._noise_var

    def training_rows(self):
        """Views of the conditioned rows: ``(phi, targets, state_of_row)``.

        Read-only by convention — mutating them would desynchronize the
        cached Cholesky factor. Streaming refits read the accumulated
        data back out through this.
        """
        return self._phi, self._y, self._state_of_row

    @property
    def dual_weights(self) -> np.ndarray:
        """The dual-space weights α = C⁻¹ y (one per training row).

        The MAP coefficients are a linear image of these:
        ``μ^m = λ_m · R · Σ_i Φ[i, m]·α_i`` — the streaming updater
        recomputes its coefficient matrix from them after each absorb.
        """
        return self._alpha

    # ------------------------------------------------------------------
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
        design = check_matrix(
            design, "design", shape=(None, self._prior.n_basis)
        )
        target = np.asarray(target, dtype=float).reshape(-1)
        if target.shape[0] != design.shape[0]:
            raise ValueError(
                f"target has {target.shape[0]} values for "
                f"{design.shape[0]} design rows"
            )
        if not 0 <= state < self._prior.n_states:
            raise IndexError(
                f"state {state} out of range 0..{self._prior.n_states - 1}"
            )
        if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
            raise ValueError(
                "absorb refuses non-finite design/target values; "
                "quarantine the batch upstream"
            )
        if self._mode == "kron":
            self._densify()

        n_old = self._phi.shape[0]
        n_new = design.shape[0]
        # Cross block B (n_old × b) is exactly the query kernel; the new
        # diagonal block D adds the batch self-kernel plus σ0².
        cross = self._cross_covariance(design, state)
        weighted = design * self._prior.lambdas
        diag_block = (
            self._prior.correlation[state, state] * (weighted @ design.T)
        )
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
        self._alpha = sla.cho_solve(
            (self._factor, True), self._y, check_finite=False
        )

    # ------------------------------------------------------------------
    def _cross_covariance(self, design: np.ndarray, state: int) -> np.ndarray:
        """k(query, training): (n_train × n_query)."""
        weighted = self._phi * self._prior.lambdas  # n_train × M
        kernel = weighted @ design.T  # n_train × n_query
        kernel *= self._prior.correlation[self._state_of_row, state][:, None]
        return kernel

    def predict_mean(self, design: np.ndarray, state: int) -> np.ndarray:
        """Predictive mean (equals the MAP-coefficient prediction)."""
        design = check_matrix(
            design, "design", shape=(None, self._prior.n_basis)
        )
        if not 0 <= state < self._prior.n_states:
            raise IndexError(
                f"state {state} out of range 0..{self._prior.n_states - 1}"
            )
        return self._cross_covariance(design, state).T @ self._alpha

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
        design = check_matrix(
            design, "design", shape=(None, self._prior.n_basis)
        )
        if not 0 <= state < self._prior.n_states:
            raise IndexError(
                f"state {state} out of range 0..{self._prior.n_states - 1}"
            )
        pseudo = self.predict_mean(design, state)
        designs: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for k in range(self._prior.n_states):
            mask = self._state_of_row == k
            block = self._phi[mask]
            values = self._y[mask]
            if k == state:
                block = np.vstack([block, design])
                values = np.concatenate([values, pseudo])
            designs.append(block)
            targets.append(values)
        return PosteriorPredictor(
            designs, targets, self._prior, self._noise_var
        )

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
        design = check_matrix(
            design, "design", shape=(None, self._prior.n_basis)
        )
        if not 0 <= state < self._prior.n_states:
            raise IndexError(
                f"state {state} out of range 0..{self._prior.n_states - 1}"
            )
        prior_var = self._prior.correlation[state, state] * np.einsum(
            "ij,j,ij->i", design, self._prior.lambdas, design
        )
        if self._mode == "kron":
            # Query kernel separates: k_q = R[:, s] ⊗ (B Λ φ_q), so
            # kᵀC⁻¹k = Σ_{i,j} (Uᵀ B Λ φ_q)_i² (Qᵀ R[:, s])_j² / denom_ij.
            n_per = self._kron_u.shape[0]
            w = self._phi[:n_per] @ (design * self._prior.lambdas).T
            a_sq = (self._kron_u.T @ w) ** 2  # (N, n_query)
            c_sq = (self._kron_q.T @ self._prior.correlation[:, state]) ** 2
            inner = (1.0 / self._kron_denom) @ c_sq  # (N,)
            quad = np.einsum("iq,i->q", a_sq, inner)
        else:
            kernel = self._cross_covariance(design, state)
            half = sla.solve_triangular(
                self._factor, kernel, lower=True, check_finite=False
            )
            quad = np.einsum("ij,ij->j", half, half)
        variance = prior_var - quad
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

    def pass_probability(
        self,
        design: np.ndarray,
        state: int,
        bound: float,
        kind: str = "max",
        include_noise: bool = True,
    ) -> np.ndarray:
        """Posterior-predictive probability that each query meets a bound.

        Under the Gaussian predictive ``y ~ N(μ, σ²)`` the probability of
        ``y ≤ bound`` (``kind="max"``) is ``Φ((bound − μ)/σ)``; a
        ``kind="min"`` spec takes the complement. This is the per-sample
        building block of the yield service: averaging it over process
        samples gives a spec-pass probability that accounts for *model*
        uncertainty, not just process spread. ``include_noise=True``
        asks about a new measured value rather than the latent mean.
        """
        from scipy.stats import norm

        if kind not in ("max", "min"):
            raise ValueError(f"kind must be 'max' or 'min', got {kind!r}")
        if not np.isfinite(bound):
            raise ValueError(f"bound must be finite, got {bound!r}")
        mean = self.predict_mean(design, state)
        std = self.predict_std(design, state, include_noise=include_noise)
        with np.errstate(divide="ignore"):
            z = np.where(std > 0.0, (float(bound) - mean) / std, np.inf)
        # σ = 0 collapses to a deterministic pass/fail at the mean.
        z = np.where(
            (std > 0.0) | (mean <= float(bound)), z, -np.inf
        )
        probability = norm.cdf(z)
        return probability if kind == "max" else 1.0 - probability
