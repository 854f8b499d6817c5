"""The unified correlated prior of C-BMF (paper Section 3.1).

Coefficients are organized per basis function: ``α_m ∈ R^K`` collects the
coefficient of basis ``m`` in every state (eq. 6-7). The prior is

    α_m ~ N(0, λ_m · R),    α_i ⊥ α_j (i ≠ j)          (eq. 8, 10-11)

* ``λ_m = 0`` forces basis m to zero in *every* state — sparsity plus the
  shared template;
* off-diagonal structure in ``R`` correlates coefficient *magnitudes*
  across states — the information S-OMP discards;
* one shared ``R`` for all bases (eq. 9) keeps the hyper-parameter count at
  ``M + K(K+1)/2 + 1``.

``ar1_correlation`` builds the single-parameter family ``R[i,j] = r0^|i−j|``
(eq. 32) used to seed the EM refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.linalg import is_psd, symmetrize
from repro.utils.validation import check_in_range, check_square, check_vector

__all__ = ["CorrelatedPrior", "ar1_correlation"]


def ar1_correlation(n_states: int, r0: float) -> np.ndarray:
    """The parameterized correlation matrix ``R[i,j] = r0^|i−j|`` (eq. 32).

    Valid for ``0 ≤ r0 < 1``; the result is symmetric positive definite
    with unit diagonal. Correlation decays with state-index distance —
    adjacent knob codes are most alike.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    r0 = check_in_range(r0, "r0", 0.0, 1.0, inclusive=False) if r0 != 0.0 \
        else 0.0
    indexes = np.arange(n_states)
    return r0 ** np.abs(indexes[:, None] - indexes[None, :])


@dataclass
class CorrelatedPrior:
    """Hyper-parameters of the C-BMF prior: ``{λ_1..λ_M, R}``.

    Attributes
    ----------
    lambdas:
        Per-basis sparsity parameters, shape (M,), all ≥ 0.
    correlation:
        Cross-state covariance structure ``R``, shape (K, K), symmetric
        positive semi-definite.
    eigenpairs:
        ``(ω, Q)`` with ``R = Q·diag(ω)·Qᵀ`` and ω ≥ 0 when the prior was
        built from a known eigendecomposition (EM's priors, by
        :meth:`_from_eigenpairs`); ``None`` otherwise. The Kronecker
        solver reads it instead of eigendecomposing R again.
    """

    lambdas: np.ndarray
    correlation: np.ndarray
    eigenpairs: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.lambdas = check_vector(self.lambdas, "lambdas")
        if np.any(self.lambdas < 0.0):
            raise ValueError("lambdas must be non-negative")
        self.correlation = symmetrize(
            check_square(self.correlation, "correlation")
        )
        if self.eigenpairs is not None:
            # Non-negative eigenpairs of R prove it PSD, with no check.
            if np.any(self.eigenpairs[0] < 0.0):
                raise ValueError("correlation eigenvalues must be >= 0")
        elif not is_psd(self.correlation, tol=1e-8):
            raise ValueError("correlation matrix must be PSD")

    @classmethod
    def _from_eigenpairs(
        cls,
        lambdas: np.ndarray,
        correlation: np.ndarray,
        eigenpairs: Tuple[np.ndarray, np.ndarray],
    ) -> "CorrelatedPrior":
        """A prior whose R comes with its eigendecomposition ``(ω, Q)``.

        The caller vouches that ``R = Q·diag(ω)·Qᵀ``; the eigenpairs
        replace the PSD check, which would decompose R once more.
        """
        prior = cls.__new__(cls)
        prior.lambdas = lambdas
        prior.correlation = correlation
        prior.eigenpairs = eigenpairs
        prior.__post_init__()
        return prior

    # ------------------------------------------------------------------
    @classmethod
    def from_support(
        cls,
        n_basis: int,
        n_states: int,
        active: np.ndarray,
        r0: float,
        active_value: float = 1.0,
        inactive_value: float = 1e-5,
    ) -> "CorrelatedPrior":
        """Initializer used by Algorithm 1 step 17.

        Bases in ``active`` get ``λ = active_value``; all others get the
        paper's near-zero ``λ = 1e-5``. ``R`` starts as the AR(1) family.
        """
        active = np.asarray(active, dtype=int)
        if active.size and (active.min() < 0 or active.max() >= n_basis):
            raise ValueError(
                f"active indices must lie in 0..{n_basis - 1}"
            )
        lambdas = np.full(n_basis, inactive_value, dtype=float)
        lambdas[active] = active_value
        return cls(
            lambdas=lambdas, correlation=ar1_correlation(n_states, r0)
        )

    # ------------------------------------------------------------------
    @property
    def n_basis(self) -> int:
        """Number of basis functions M."""
        return self.lambdas.shape[0]

    @property
    def n_states(self) -> int:
        """Number of states K."""
        return self.correlation.shape[0]

    def active_set(self, threshold: float = 1e-4) -> np.ndarray:
        """Bases whose λ exceeds ``threshold`` × max(λ)."""
        peak = float(self.lambdas.max(initial=0.0))
        if peak <= 0.0:
            return np.array([], dtype=int)
        return np.flatnonzero(self.lambdas > threshold * peak)

    def block_covariance(self, m: int) -> np.ndarray:
        """Prior covariance ``λ_m · R`` of basis m's coefficients (eq. 8)."""
        if not 0 <= m < self.n_basis:
            raise IndexError(f"basis index {m} out of range 0..{self.n_basis - 1}")
        return self.lambdas[m] * self.correlation

    def full_covariance(self) -> np.ndarray:
        """The dense ``MK × MK`` prior covariance ``A`` (eq. 11).

        Only for inspection and small-problem tests — the estimators never
        materialize this matrix.
        """
        k = self.n_states
        size = self.n_basis * k
        full = np.zeros((size, size))
        for m in range(self.n_basis):
            block = slice(m * k, (m + 1) * k)
            full[block, block] = self.block_covariance(m)
        return full

    def normalized(self) -> "CorrelatedPrior":
        """Rescale so ``R`` has unit mean diagonal, folding scale into λ.

        ``λ_m·R`` is invariant under ``(λ_m, R) → (cλ_m, R/c)``; pinning the
        scale of R keeps EM iterates comparable across runs.
        """
        scale = float(np.mean(np.diag(self.correlation)))
        if scale <= 0.0:
            raise ValueError("correlation diagonal must have positive mean")
        return CorrelatedPrior(
            lambdas=self.lambdas * scale,
            correlation=self.correlation / scale,
        )
