"""Kronecker-structured posterior solver for state-balanced designs.

The C-BMF prior covariance is ``A = diag(λ) ⊗ R`` (eq. 11). When every
state shares the same design matrix ``B`` (N × M) — one Monte-Carlo draw
evaluated at every knob/frequency state, the natural shape of a swept
measurement — the data term shares the structure: ``DᵀD = G ⊗ I_K`` with
``G = BᵀB``. The posterior precision

    Σ_p⁻¹ = Λ⁻¹ ⊗ R⁻¹ + σ0⁻² · G ⊗ I_K

then block-diagonalizes under the eigendecomposition ``R = Q·diag(ω)·Qᵀ``:
rotating states by Q leaves K *independent* M-dimensional ridge problems,
state j with prior covariance ``ω_j·Λ``. One more (shared!) symmetric
eigendecomposition finishes each of them in closed form: with
``G̃ = √Λ·G·√Λ = P·diag(γ)·Pᵀ`` and ``denom[i, j] = 1 + ω_j·γ_i/σ0²``,

    Σ̃_j = ω_j · √Λ · P · diag(1/denom[:, j]) · Pᵀ · √Λ
    μ̃_j = (ω_j/σ0²) · √Λ · P · diag(1/denom[:, j]) · Pᵀ · √Λ · Bᵀ·(Y·Q)_j

(the square-root form is exact for λ_m = 0 and singular R). Everything
the EM updates consume — mean, per-basis traces, ``Tr(D Σ_p Dᵀ)``, the
marginal likelihood — reduces to O(M·K) grids over ``denom``:

    Tr(D Σ_p Dᵀ)  = Σ_{i,j} ω_j·γ_i / denom[i, j]
    log det C     = n·log σ0² + Σ_{i,j} log denom[i, j]      (Sylvester)
    yᵀC⁻¹y        = σ0⁻²·‖y − Dμ‖² + μᵀA⁻¹μ,  μᵀA⁻¹μ = Σ T²·ω / σ0⁴

with ``T = P·(Z/denom)``, ``Z = Pᵀ·√Λ·Bᵀ·Y·Q``. Total cost is
O(K³ + M³ + MK·(M + K) + NM²) against the dual path's O(n³ + n²M) with
n = N·K — near-linear in K for fixed per-state sample count, which is
what turns "32 knob settings" into 201-point frequency sweeps.

The (M, K, K) covariance blocks are **never materialized** here (and
neither is the MK × MK prior ``A``): :class:`KroneckerFactors` carries
``(Q, ω, P, γ)`` — what the predictor reads, kept on every solve — and,
when the covariance pass ran, ``V[m, j] = Σ̃_j[m, m]``, enough for every
M-step statistic; dense blocks are built only on explicit request.

:func:`choose_solver` is the one rule that picks between this path and
the dual one: ``compute_posterior(method="auto")`` and the S-OMP greedy
scan call it, and a predictor reports the path its posterior took.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.multistate import MultiStateData
from repro.core.prior import CorrelatedPrior
from repro.errors import NumericalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.posterior import PosteriorResult

__all__ = [
    "KRON_MIN_STATES",
    "KroneckerFactors",
    "check_solved_correlation",
    "choose_solver",
    "compute_posterior_kron",
]

#: Minimum state count before the auto-dispatch considers the Kronecker
#: path. Below this the dual solve is already fast, and keeping small-K
#: fits on the historical path preserves bit-identical results for every
#: existing workload (the paper's own examples stop at K = 32 but are
#: *not* state-balanced, so they keep the dual path anyway).
KRON_MIN_STATES = 24

_MODES = ("auto", "dual", "kron")


def choose_solver(data: MultiStateData) -> str:
    """The posterior path for ``data``: ``"kron"`` or ``"dual"``.

    Under the default ``REPRO_POSTERIOR_SOLVER=auto`` the Kronecker path
    needs state-balanced data, at least :data:`KRON_MIN_STATES` states
    and a flop estimate in its favour; ``dual`` disables it everywhere
    (the benchmark's baseline arm); ``kron`` takes it whenever the data
    is balanced, regardless of size. ``compute_posterior(method="auto")``
    and the S-OMP greedy scan both decide here.
    """
    mode = _solver_policy()
    if mode == "kron":
        kron = data.state_balanced
    else:
        kron = mode == "auto" and _kron_cheaper(data)
    return "kron" if kron else "dual"


def _solver_policy() -> str:
    """``REPRO_POSTERIOR_SOLVER``, validated; read by :func:`choose_solver`
    alone."""
    mode = os.environ.get("REPRO_POSTERIOR_SOLVER", "auto").strip().lower()
    if mode not in _MODES:
        raise ValueError(
            f"REPRO_POSTERIOR_SOLVER must be one of {_MODES}, got {mode!r}"
        )
    return mode


def _kron_cheaper(data: MultiStateData) -> bool:
    """Balanced, ≥ :data:`KRON_MIN_STATES` states, and a flop estimate
    that favours the rotation — a 1264-basis LNA fit at K = 32 is
    balanced but dominated by the M³ eigendecomposition, so it stays on
    the dual path."""
    if data.n_states < KRON_MIN_STATES or not data.state_balanced:
        return False
    n_per = data.n_rows // data.n_states
    m, k = float(data.n_basis), float(data.n_states)
    kron_flops = k**3 + m**3 + n_per * m**2 + m * k * (m + k)
    n = float(data.n_rows)
    dual_flops = n**3 / 3.0 + n**2 * m
    return kron_flops < dual_flops


def _psd_eigh(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric PSD matrix, clipped at zero."""
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as error:  # pragma: no cover - rare
        raise NumericalError(
            f"eigendecomposition failed in the Kronecker solver: {error}"
        ) from error
    return np.maximum(values, 0.0), vectors


def check_solved_correlation(
    solved: np.ndarray, correlation: np.ndarray
) -> None:
    """Refuse an M-step at an R other than the one a posterior was solved
    at: factored statistics read that R from the solve, so a different
    one would give wrong numbers without any error."""
    if correlation is not solved and not np.array_equal(correlation, solved):
        raise ValueError(
            "M-step correlation differs from the R this posterior "
            "was solved at — the factored statistics would be wrong"
        )


@dataclass
class KroneckerFactors:
    """Factored posterior covariance ``Σ^m = Q·diag(V[m, :])·Qᵀ``.

    Attributes
    ----------
    data:
        The (balanced) data the solve ran on.
    q, omega:
        Eigenvectors/eigenvalues of the correlation matrix R the solve
        ran at (``R = Q·diag(ω)·Qᵀ``).
    p, gamma:
        Eigenvectors/eigenvalues of ``G̃ = √Λ·BᵀB·√Λ`` (M × M, M).
    correlation:
        The R itself, kept so M-step consumers can verify they pass the
        same matrix the posterior was solved at.
    mean_rot:
        Rotated posterior mean ``μ̃ = mean · Q`` (M × K).
    vdiag:
        ``V[m, j] = Σ̃_j[m, m]`` (M × K) — the complete description of
        the per-basis covariance blocks; ``None`` when the solve skipped
        the covariance pass (``want_blocks=False``).
    lambdas, noise_var:
        The prior scales and σ0² of the solve (for the λ M-step).
    """

    data: MultiStateData
    q: np.ndarray
    omega: np.ndarray
    p: np.ndarray
    gamma: np.ndarray
    correlation: np.ndarray
    mean_rot: np.ndarray
    vdiag: Optional[np.ndarray]
    lambdas: np.ndarray
    noise_var: float

    def covariance_blocks(self) -> np.ndarray:
        """Dense (M, K, K) covariance blocks — tests/inspection only.

        O(M·K²) memory and O(M·K²) time; the fit path never calls this.
        """
        return np.einsum("kj,mj,lj->mkl", self.q, self.vdiag, self.q)

    def mstep_lambda_stats(
        self, correlation: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-basis ``(μ^mᵀR⁻¹μ^m, Tr(R⁻¹Σ^m))`` without forming R⁻¹.

        In the rotated frame both collapse to sums over ω: the quadratic
        form is ``Σ_j μ̃[m, j]²/ω_j`` and the trace ``Σ_j V[m, j]/ω_j``;
        the ω factors cancel analytically (μ̃ and V both carry one power
        of ω), so singular R costs nothing here.
        """
        check_solved_correlation(self.correlation, correlation)
        # μ̃[m, j] = ω_j·λ_m^{1/2}·T[m, j]·λ_m^{1/2}/σ0² with finite T, so
        # μ̃²/ω = λ_m·ω·(λ_m^{1/2}T/σ0²)² — recover it from μ̃ directly,
        # zeroing the 0/0 slots a singular R produces (μ̃ is exactly 0
        # there: the posterior mean lives in the range of R).
        with np.errstate(divide="ignore", invalid="ignore"):
            quad_terms = np.where(
                self.omega[None, :] > 0.0,
                self.mean_rot**2 / self.omega[None, :],
                0.0,
            )
            trace_terms = np.where(
                self.omega[None, :] > 0.0,
                self.vdiag / self.omega[None, :],
                0.0,
            )
        return quad_terms.sum(axis=1), trace_terms.sum(axis=1)

    def mstep_scaled_moment(self, scale: np.ndarray) -> np.ndarray:
        """``Σ_m (Σ^m + μ^m·μ^mᵀ) / scale_m`` — the R-update numerator.

        The covariance part stays factored: ``Σ_m Σ^m/ℓ_m =
        Q·diag(Σ_m V[m,:]/ℓ_m)·Qᵀ``; the mean outer products are a single
        (K × M)(M × K) product. O(M·K² + K³) instead of materializing M
        K×K blocks.
        """
        scale = np.asarray(scale, dtype=float)
        diag_sum = (self.vdiag / scale[:, None]).sum(axis=0)  # (K,)
        covariance_part = (self.q * diag_sum) @ self.q.T
        mean = self.mean_rot @ self.q.T  # (M, K) in the original frame
        mean_part = (mean / scale[:, None]).T @ mean
        return covariance_part + mean_part


def compute_posterior_kron(
    data: MultiStateData,
    prior: CorrelatedPrior,
    noise_var: float,
    *,
    want_blocks: bool = True,
) -> "PosteriorResult":
    """Exact C-BMF posterior through the Kronecker identity.

    Requires ``data.state_balanced`` (every state fitted on the same
    design matrix). Numerically equivalent to the dual-space path and the
    ``compute_posterior_dense`` oracle — parity is pinned at rtol ≤ 1e-8
    in the test suite — at O(K³ + M³ + MK·(M+K)) cost.
    """
    from repro.core.posterior import PosteriorResult

    if not data.state_balanced:
        raise ValueError(
            "the Kronecker solver requires state-balanced designs "
            "(identical design matrix in every state)"
        )
    b_matrix = data.shared_design  # (N, M)
    y_matrix = data.targets_matrix()  # (N, K)
    lambdas = prior.lambdas
    correlation = prior.correlation
    n_per, n_basis = b_matrix.shape
    n_states = data.n_states
    n_rows = data.n_rows

    omega, q_matrix = _psd_eigh(correlation)
    sqrt_lam = np.sqrt(lambdas)
    gram = b_matrix.T @ b_matrix  # G = BᵀB (M, M)
    g_tilde = sqrt_lam[:, None] * gram * sqrt_lam[None, :]
    gamma, p_matrix = _psd_eigh(0.5 * (g_tilde + g_tilde.T))

    # denom[i, j] = 1 + ω_j·γ_i/σ0² — the whole posterior in one grid.
    denom = 1.0 + np.outer(gamma, omega) / noise_var  # (M, K)

    w_rot = b_matrix.T @ y_matrix @ q_matrix  # W̃ = Bᵀ·Y·Q (M, K)
    z_matrix = p_matrix.T @ (sqrt_lam[:, None] * w_rot)
    t_matrix = p_matrix @ (z_matrix / denom)  # finite even at λ, ω → 0
    mean_rot = (
        sqrt_lam[:, None] * t_matrix * (omega[None, :] / noise_var)
    )  # μ̃ (M, K)
    mean = mean_rot @ q_matrix.T  # (M, K)

    # Residual and marginal likelihood (see module docstring identities).
    residual = y_matrix - b_matrix @ mean
    residual_sq = float(np.sum(residual * residual))
    quad_prior = float(np.sum(t_matrix**2 * omega[None, :])) / noise_var**2
    log_det = n_rows * float(np.log(noise_var)) + float(
        np.sum(np.log(denom))
    )
    nll = residual_sq / noise_var + quad_prior + log_det

    vdiag: Optional[np.ndarray] = None
    trace_dsd: Optional[float] = None
    if want_blocks:
        inv_denom = 1.0 / denom
        # V[m, j] = Σ̃_j[m, m] = ω_j·λ_m·Σ_i P[m, i]²/denom[i, j]
        vdiag = (
            lambdas[:, None]
            * ((p_matrix**2) @ inv_denom)
            * omega[None, :]
        )
        trace_dsd = float(np.sum((gamma[:, None] * inv_denom) * omega))
    factors = KroneckerFactors(
        data=data,
        q=q_matrix,
        omega=omega,
        p=p_matrix,
        gamma=gamma,
        correlation=correlation,
        mean_rot=mean_rot,
        vdiag=vdiag,
        lambdas=lambdas,
        noise_var=noise_var,
    )
    return PosteriorResult(
        mean=mean,
        residual_sq=residual_sq,
        trace_dsd=trace_dsd,
        nll=float(nll),
        noise_var=noise_var,
        solver="kron",
        factors=factors,
    )
