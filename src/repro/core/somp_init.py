"""Modified S-OMP hyper-parameter initializer (Algorithm 1, steps 1-17).

EM only reaches a local optimum, so C-BMF seeds it carefully:

1. the hyper-parameter space is reduced to three scalars — the AR(1) decay
   ``r0`` of the parameterized correlation matrix (eq. 32), the noise level
   ``σ0`` and the support size ``θ``;
2. a greedy S-OMP scan picks the shared template, but — unlike classic
   S-OMP — coefficients on the growing support are solved by the
   *correlated Bayesian inference* (eq. 20-22 with R(r0)), so magnitude
   correlation already informs the residuals;
3. cross-validation over the ``(r0, σ0, θ)`` grid picks the seed, and the
   full prior is assembled with λ = 1 on the selected bases and λ = 1e-5
   elsewhere (step 17).

Performance notes (beyond the paper):

* The Bayesian coefficient solves run **incrementally**. Adding basis m
  to the support perturbs the dual-space kernel by
  ``(φ_m φ_mᵀ) ∘ R[s, s] = V_m V_mᵀ`` with ``V_m = diag(φ_m)·W[s]`` and
  ``W = chol(R)`` — a rank-≤K term — so
  :class:`IncrementalBayesSolver` maintains ``C⁻¹`` through Woodbury
  rank-K updates in O(n²K) per accepted basis instead of refactorizing
  in O(n³) at every greedy step.
* The ``fold × r0 × σ0`` cross-validation cells are independent and run
  through :func:`repro.utils.parallel.parallel_map` — bit-identical for
  any worker count, serial by default (``REPRO_MAX_WORKERS`` overrides).
* Data the posterior would solve on the Kronecker path
  (:func:`repro.core.kronecker.choose_solver`, decided once per fit on
  the full data) uses :class:`KroneckerBayesSolver` instead: the dual
  kernel is Kronecker, so each greedy step is a p-dimensional eigensolve
  instead of an n×n Woodbury update (n = N·K). The CV folds then share
  one permutation across states, which keeps every train split
  state-balanced (and keeps any Monte-Carlo draw out of the train and
  test sides simultaneously).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as sla

from repro.core.base import validate_multistate
from repro.core.greedy import select_shared_support
from repro.core.kronecker import _psd_eigh, choose_solver
from repro.core.multistate import MultiStateData
from repro.core.prior import CorrelatedPrior, ar1_correlation
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "InitConfig",
    "InitResult",
    "IncrementalBayesSolver",
    "KroneckerBayesSolver",
    "somp_initialize",
]


@dataclass(frozen=True)
class InitConfig:
    """Candidate grid and fold count for the initializer (step 1)."""

    #: Candidate AR(1) decay rates for R (eq. 32); all in [0, 1).
    r0_grid: Tuple[float, ...] = (0.3, 0.7, 0.95)
    #: Candidate noise standard deviations σ0 (same units as the targets;
    #: the CBMF estimator standardizes targets, making these relative).
    sigma0_grid: Tuple[float, ...] = (0.05, 0.15, 0.4)
    #: Candidate support sizes θ.
    n_basis_grid: Tuple[int, ...] = (5, 10, 20, 40)
    #: Cross-validation fold count C.
    n_folds: int = 4

    def __post_init__(self) -> None:
        if not self.r0_grid or not self.sigma0_grid or not self.n_basis_grid:
            raise ValueError("all candidate grids must be non-empty")
        for r0 in self.r0_grid:
            if not 0.0 <= r0 < 1.0:
                raise ValueError(f"r0 candidates must be in [0, 1), got {r0}")
        for sigma0 in self.sigma0_grid:
            if sigma0 <= 0.0:
                raise ValueError("sigma0 candidates must be > 0")
        for theta in self.n_basis_grid:
            if theta < 1:
                raise ValueError("n_basis candidates must be >= 1")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")


@dataclass
class InitResult:
    """Chosen seed hyper-parameters (steps 16-17)."""

    r0: float
    sigma0: float
    n_basis: int
    support: List[int]
    prior: CorrelatedPrior
    noise_var: float
    cv_errors: Dict[Tuple[float, float, int], float] = field(
        default_factory=dict
    )


class IncrementalBayesSolver:
    """Correlated Bayesian solver with rank-K Woodbury updates (step 9).

    Solves eq. 20-22 with λ = 1 and R = R(r0) on the growing greedy
    support. ``begin`` initializes ``G = C⁻¹ = σ0⁻² I``; every ``extend``
    folds one basis into the kernel through

        C ← C + V_m V_mᵀ,   V_m = diag(φ_m) · W[s],   W = chol(R)

    so ``G ← G − (G V_m)(I_K + V_mᵀ G V_m)⁻¹ (G V_m)ᵀ`` costs O(n²K)
    instead of the O(n³) of a fresh factorization. The returned
    coefficients match :func:`repro.core.posterior.compute_posterior` on
    the same support to floating-point round-off.
    """

    def __init__(self, r0: float, sigma0: float) -> None:
        if not 0.0 <= r0 < 1.0:
            raise ValueError(f"r0 must be in [0, 1), got {r0}")
        if sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be > 0, got {sigma0}")
        self.r0 = float(r0)
        self.sigma0 = float(sigma0)
        self._data: Optional[MultiStateData] = None
        self._support: List[int] = []

    def begin(
        self,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
    ) -> None:
        """Reset to the empty support and initialize ``G = C⁻¹ = I/σ0²``."""
        data = (
            designs
            if isinstance(designs, MultiStateData)
            else MultiStateData.from_states(designs, targets, validate=False)
        )
        correlation = ar1_correlation(data.n_states, self.r0)
        chol = np.linalg.cholesky(correlation)
        self._correlation = correlation
        self._w_rows = chol[data.state_of_row]  # (n, K): row i ← W[s_i]
        n_rows = data.n_rows
        g_matrix = np.zeros((n_rows, n_rows))
        g_matrix.flat[:: n_rows + 1] = 1.0 / self.sigma0**2
        self._g = g_matrix
        self._support = []
        self._data = data

    def extend(self, index: int) -> np.ndarray:
        """Add basis ``index`` to the support via a rank-K Woodbury update
        of ``G`` and return the ``(p, K)`` posterior means on the support."""
        if self._data is None:
            raise RuntimeError("call begin() before extend()")
        data = self._data
        v_matrix = data.phi[:, index, None] * self._w_rows  # (n, K)
        gv = self._g @ v_matrix
        inner = v_matrix.T @ gv
        inner.flat[:: inner.shape[0] + 1] += 1.0
        inner_factor = sla.cho_factor(inner, lower=True, check_finite=False)
        self._g -= gv @ sla.cho_solve(
            inner_factor, gv.T, check_finite=False
        )
        self._support.append(int(index))

        # μ^m = R · W[m, :] with W[m, k] = Σ_{i∈k} Φ[i, m]·(C⁻¹y)[i].
        v = self._g @ data.y
        columns = data.phi[:, self._support]
        w_matrix = data.segment_sum(columns * v[:, None])  # (K, p)
        return w_matrix.T @ self._correlation


class KroneckerBayesSolver:
    """Correlated Bayesian greedy solver for state-balanced data (step 9).

    Functionally identical to :class:`IncrementalBayesSolver` — eq. 20-22
    with λ = 1 and R = R(r0) on the growing support — but exploits one
    shared per-state design B: the dual kernel is then Kronecker
    (``repro.core.kronecker``), and after rotating the targets by the
    eigenvectors of R once in ``begin``, every ``extend`` is a
    p-dimensional eigensolve of the support Gram matrix — O(N·p² + p³ +
    p·K·(p + K)) per accepted basis instead of the O(n²·K) Woodbury
    update with n = N·K. Coefficients match the incremental solver to
    floating-point round-off (test-pinned at 1e-8).
    """

    def __init__(self, r0: float, sigma0: float) -> None:
        if not 0.0 <= r0 < 1.0:
            raise ValueError(f"r0 must be in [0, 1), got {r0}")
        if sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be > 0, got {sigma0}")
        self.r0 = float(r0)
        self.sigma0 = float(sigma0)
        self._design: Optional[np.ndarray] = None
        self._support: List[int] = []

    def begin(
        self,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
    ) -> None:
        """Rotate the targets into R's eigenbasis; reset the support.

        Raises :class:`ValueError` when the states do not share one
        design matrix — callers gate on :func:`choose_solver`.
        """
        data = (
            designs
            if isinstance(designs, MultiStateData)
            else MultiStateData.from_states(designs, targets, validate=False)
        )
        correlation = ar1_correlation(data.n_states, self.r0)
        omega, q = _psd_eigh(correlation)
        self._omega = omega
        self._q = q
        self._design = data.shared_design  # raises if unbalanced
        self._y_rot = data.targets_matrix() @ q  # (N, K)
        self._support = []

    def extend(self, index: int) -> np.ndarray:
        """Add basis ``index``; return the (p, K) posterior means."""
        if self._design is None:
            raise RuntimeError("call begin() before extend()")
        self._support.append(int(index))
        b_sub = self._design[:, self._support]  # (N, p)
        gram = b_sub.T @ b_sub
        gamma, p_mat = _psd_eigh(0.5 * (gram + gram.T))
        z = p_mat.T @ (b_sub.T @ self._y_rot)  # (p, K)
        denom = 1.0 + np.outer(gamma, self._omega) / self.sigma0**2
        mean_rot = (p_mat @ (z / denom)) * (
            self._omega[None, :] / self.sigma0**2
        )
        return mean_rot @ self._q.T


def _fold_indices(
    n_samples: int, n_folds: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Shuffle one state's sample indices into C near-equal folds (step 1)."""
    permutation = rng.permutation(n_samples)
    return [fold for fold in np.array_split(permutation, n_folds)]


def _relative_rms(prediction: np.ndarray, truth: np.ndarray) -> float:
    """RMS prediction error normalized by the RMS target magnitude.

    Degenerate folds with identically-zero targets (e.g. constant
    performances after standardization) fall back to the absolute RMS so
    cross-validation still ranks candidates instead of crashing.
    """
    error = prediction - truth
    num = float(error @ error)
    den = float(truth @ truth)
    if den <= 0.0:
        return float(np.sqrt(num / max(truth.size, 1)))
    return float(np.sqrt(num / den))


def _score_cv_cell(
    cell: Tuple[int, float, float], payload: dict
) -> List[Tuple[int, float]]:
    """Score one (fold, r0, σ0) cross-validation cell.

    One greedy scan to θ_max scores every intermediate θ on the grid.
    Module-level and driven only by its arguments, so it runs identically
    inline or in a spawned worker.
    """
    fold, r0, sigma0 = cell
    train, test = payload["folds"][fold]
    theta_set = payload["theta_set"]
    scores: List[Tuple[int, float]] = []

    def record(support: List[int], coefficients: np.ndarray) -> None:
        if len(support) in theta_set:
            prediction = test.predict_rows(coefficients, support)
            scores.append((len(support), _relative_rms(prediction, test.y)))

    select_shared_support(
        train,
        None,
        payload["theta_max"],
        payload["solver"](r0, sigma0),
        on_step=record,
    )
    return scores


def somp_initialize(
    designs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    config: Optional[InitConfig] = None,
    seed: SeedLike = None,
    *,
    max_workers: Optional[int] = None,
) -> InitResult:
    """Run Algorithm 1, steps 1-17, and return the EM seed.

    ``max_workers`` fans the independent cross-validation cells out over
    a process pool (``None`` defers to ``REPRO_MAX_WORKERS``, default
    serial); the returned ``InitResult`` is bit-identical for any worker
    count.
    """
    designs, targets = validate_multistate(designs, targets)
    config = config or InitConfig()
    rng = as_generator(seed)
    n_states = len(designs)
    n_basis_total = designs[0].shape[1]

    theta_grid = sorted(
        {min(theta, n_basis_total) for theta in config.n_basis_grid}
    )
    theta_max = max(theta_grid)

    # State-balanced data shares ONE fold permutation across states: the
    # train/test splits then stay state-balanced (so the CV cells keep
    # Kronecker-solver eligibility) and a shared Monte-Carlo draw never
    # lands in the train rows of one state and the test rows of another.
    data = MultiStateData.from_states(designs, targets, validate=False)
    kron = choose_solver(data) == "kron"
    solver = KroneckerBayesSolver if kron else IncrementalBayesSolver
    if kron:
        shared_folds = _fold_indices(
            designs[0].shape[0], config.n_folds, rng
        )
        folds_per_state = [shared_folds] * n_states
    else:
        folds_per_state = [
            _fold_indices(d.shape[0], config.n_folds, rng) for d in designs
        ]

    # Per-fold train/test splits, derived once and shared by every
    # (r0, σ0) candidate of that fold.
    folds = [
        data.split([per_state[fold] for per_state in folds_per_state])
        for fold in range(config.n_folds)
    ]

    # Note the Bayesian solve stays well-posed for supports larger than
    # the per-state sample count (the prior regularizes), so θ is only
    # capped by the dictionary size.
    cells = [
        (fold, r0, sigma0)
        for fold in range(config.n_folds)
        for r0, sigma0 in itertools.product(
            config.r0_grid, config.sigma0_grid
        )
    ]
    payload = {
        "folds": folds,
        "theta_set": frozenset(theta_grid),
        "theta_max": theta_max,
        "solver": solver,
    }
    cell_scores = parallel_map(
        _score_cv_cell, cells, shared=payload, max_workers=max_workers
    )

    cv_errors: Dict[Tuple[float, float, int], List[float]] = {
        (r0, sigma0, theta): []
        for r0, sigma0, theta in itertools.product(
            config.r0_grid, config.sigma0_grid, theta_grid
        )
    }
    for (fold, r0, sigma0), scores in zip(cells, cell_scores):
        for theta, error in scores:
            cv_errors[(r0, sigma0, theta)].append(error)

    averaged = {
        key: float(np.mean(values))
        for key, values in cv_errors.items()
        if values
    }
    if not averaged:
        raise RuntimeError(
            "cross-validation produced no scores; training folds are too "
            "small for every candidate support size"
        )
    best_key = min(averaged, key=averaged.get)
    best_r0, best_sigma0, best_theta = best_key

    # Final scan on the full training data with the winning candidates.
    support, _ = select_shared_support(
        data, None, best_theta, solver(best_r0, best_sigma0)
    )
    prior = CorrelatedPrior.from_support(
        n_basis=n_basis_total,
        n_states=n_states,
        active=np.asarray(support),
        r0=best_r0,
    )
    return InitResult(
        r0=best_r0,
        sigma0=best_sigma0,
        n_basis=best_theta,
        support=support,
        prior=prior,
        noise_var=best_sigma0**2,
        cv_errors=averaged,
    )
