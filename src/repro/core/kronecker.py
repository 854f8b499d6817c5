"""Kronecker-structured posterior solver for state-balanced designs.

The C-BMF prior covariance is ``A = diag(λ) ⊗ R`` (eq. 11). When every
state shares the same design matrix ``B`` (N × M) — one Monte-Carlo draw
evaluated at every knob/frequency state, the natural shape of a swept
measurement — the data term shares the structure: ``DᵀD = G ⊗ I_K`` with
``G = BᵀB``. The posterior precision

    Σ_p⁻¹ = Λ⁻¹ ⊗ R⁻¹ + σ0⁻² · G ⊗ I_K

then block-diagonalizes under the eigendecomposition ``R = Q·diag(ω)·Qᵀ``:
rotating states by Q leaves K *independent* M-dimensional ridge problems,
state j with prior covariance ``ω_j·Λ``. They share one design, so one
thin SVD finishes all of them in closed form. ``G̃ = √Λ·G·√Λ`` has rank
r ≤ min(N, M); the SVD ``B·√Λ = U·diag(s)·Pᵀ`` (``full_matrices=False``)
gives its nonzero eigenpairs, γ = s² and P (M × r), without forming G̃.
With ``denom[i, j] = 1 + ω_j·γ_i/σ0²``,

    Σ̃_j = ω_j · √Λ · (I − P·Pᵀ + P · diag(1/denom[:, j]) · Pᵀ) · √Λ
    μ̃_j = (ω_j/σ0²) · √Λ · P · diag(1/denom[:, j]) · Pᵀ · √Λ · Bᵀ·(Y·Q)_j

(the square-root form is exact for λ_m = 0 and singular R). The M − r
null directions of G̃ have ``denom = 1``: they add nothing to the mean,
the trace or the likelihood, only the ``I − P·Pᵀ`` term to Σ̃_j. This is
the push-through identity of the dual path (eq. 19-22), applied inside
the rotation: each solve lives on the rank-N side. Everything the EM
updates consume — mean, per-basis traces, ``Tr(D Σ_p Dᵀ)``, the marginal
likelihood — reduces to O(M·K) grids over ``denom``:

    Tr(D Σ_p Dᵀ)  = Σ_{i,j} ω_j·γ_i / denom[i, j]
    log det C     = n·log σ0² + Σ_{i,j} log denom[i, j]      (Sylvester)
    yᵀC⁻¹y        = σ0⁻²·‖y − Dμ‖² + μᵀA⁻¹μ,  μᵀA⁻¹μ = Σ T²·ω / σ0⁴

with ``T = P·(Z/denom)``, ``Z = Pᵀ·√Λ·Bᵀ·Y·Q = diag(s)·Uᵀ·Y·Q``. Total
cost is O(K³ + N·M·min(N, M) + MK·(N + K)) against the dual path's
O(n³ + n²M) with n = N·K, and the K³ is the eigendecomposition of R,
which EM hands over from its R update (``CorrelatedPrior.eigenpairs``)
instead of repeating. That is near-linear in K for fixed per-state
sample count, which is what turns "32 knob settings" into 201-point
frequency sweeps.

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
    needs state-balanced data and at least :data:`KRON_MIN_STATES`
    states. No size estimate is consulted: on the rank-N side the
    Kronecker path was not slower than the dual one in any posterior
    solve or whole fit measured at K ∈ {24, 32, 64}, N ∈ {2, 3, 6, 10}
    and M ∈ {60, 238, 600, 1264} (EXPERIMENTS.md). ``dual`` disables it
    everywhere (the benchmark's baseline arm); ``kron`` takes it whenever
    the data is balanced, regardless of size.
    ``compute_posterior(method="auto")`` and the S-OMP greedy scan both
    decide here.
    """
    mode = _solver_policy()
    if mode == "kron":
        kron = data.state_balanced
    else:
        kron = (
            mode == "auto"
            and data.n_states >= KRON_MIN_STATES
            and data.state_balanced
        )
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


def _psd_eigh(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric PSD matrix, clipped at zero."""
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as error:  # pragma: no cover - rare
        raise NumericalError(
            f"eigendecomposition failed in the Kronecker solver: {error}"
        ) from error
    return np.maximum(values, 0.0), vectors


def _thin_gram_eigh(
    scaled: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero eigenpairs of ``G̃ = XᵀX`` from one thin SVD of ``X``.

    ``X = B·√Λ`` is N × M and G̃ has rank ≤ min(N, M), so
    ``X = U·diag(s)·Pᵀ`` (``full_matrices=False``) gives γ = s² and P
    without forming G̃. Directions with ``γ ≤ γ_max·max(N, M)·ε`` are
    dropped: they are G̃'s null space, where ``denom = 1`` exactly.
    Returns ``(γ, P, U·diag(s))``, with P of shape (M, r).
    """
    try:
        u_matrix, singular, vt_matrix = np.linalg.svd(
            scaled, full_matrices=False
        )
    except np.linalg.LinAlgError as error:  # pragma: no cover - rare
        raise NumericalError(
            f"SVD failed in the Kronecker solver: {error}"
        ) from error
    gamma = singular**2
    cutoff = gamma.max(initial=0.0) * max(scaled.shape) * np.finfo(float).eps
    keep = gamma > cutoff
    return (
        gamma[keep],
        vt_matrix[keep].T,
        u_matrix[:, keep] * singular[keep],
    )


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
        The r nonzero eigenpairs of ``G̃ = √Λ·BᵀB·√Λ`` (M × r, r) with
        r ≤ min(N, M), from one thin SVD of ``B·√Λ``; the other M − r
        directions are G̃'s null space (``denom = 1`` there).
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
    in the test suite — at O(K³ + N·M·min(N, M) + MK·(N + K)) cost, where
    the K³ is skipped when ``prior.eigenpairs`` carries R's
    eigendecomposition.
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

    if prior.eigenpairs is not None:
        omega, q_matrix = prior.eigenpairs
    else:
        omega, q_matrix = _psd_eigh(correlation)
    sqrt_lam = np.sqrt(lambdas)
    gamma, p_matrix, u_scaled = _thin_gram_eigh(b_matrix * sqrt_lam)

    # denom[i, j] = 1 + ω_j·γ_i/σ0² — the whole posterior in one grid;
    # the null directions of G̃ have denom = 1 and enter in closed form.
    denom = 1.0 + np.outer(gamma, omega) / noise_var  # (r, K)

    # Z = Pᵀ·√Λ·Bᵀ·Y·Q = diag(s)·Uᵀ·Y·Q, read off the SVD.
    z_matrix = u_scaled.T @ (y_matrix @ q_matrix)  # (r, K)
    z_scaled = z_matrix / denom
    t_matrix = p_matrix @ z_scaled  # finite even at λ, ω → 0
    mean_rot = (
        sqrt_lam[:, None] * t_matrix * (omega[None, :] / noise_var)
    )  # μ̃ (M, K)
    mean = mean_rot @ q_matrix.T  # (M, K)

    # Residual and marginal likelihood (see module docstring identities);
    # P has orthonormal columns, so ‖T_j‖ = ‖(Z/denom)_j‖.
    residual = y_matrix - b_matrix @ mean
    residual_sq = float(np.sum(residual * residual))
    quad_prior = float(np.sum(z_scaled**2 * omega[None, :])) / noise_var**2
    log_det = n_rows * float(np.log(noise_var)) + float(
        np.sum(np.log(denom))
    )
    nll = residual_sq / noise_var + quad_prior + log_det

    vdiag: Optional[np.ndarray] = None
    trace_dsd: Optional[float] = None
    if want_blocks:
        inv_denom = 1.0 / denom
        # V[m, j] = ω_j·λ_m·(c_m + Σ_i P[m, i]²/denom[i, j]), where
        # c_m = 1 − ‖P[m, :]‖² is basis m's share of the null space.
        p_sq = p_matrix**2
        if p_matrix.shape[1] == n_basis:
            null_share = np.zeros(n_basis)
        else:
            null_share = np.maximum(1.0 - p_sq.sum(axis=1), 0.0)
        vdiag = (
            lambdas[:, None]
            * (null_share[:, None] + p_sq @ inv_denom)
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
