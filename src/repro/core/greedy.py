"""Shared greedy basis selection (the S-OMP scan, paper eq. 33-34).

Both the classic S-OMP baseline and the modified S-OMP initializer of
C-BMF use the same selection rule — pick the basis with the largest summed
residual correlation across states — and differ only in how coefficients
are solved on the growing support. The solver is injected as a callback.

Two solver flavours are accepted:

* a plain callable ``solver(sub_designs, targets) -> (p, K)`` re-solving
  from scratch on the column-restricted designs (the baselines);
* an *incremental* solver object exposing ``begin(designs, targets)`` and
  ``extend(index) -> (p, K)``. Adding basis m changes the dual-space
  kernel by the rank-≤K term ``(φ_m φ_mᵀ) ∘ R[s, s]``, so an incremental
  solver can fold it in with a low-rank Woodbury/Cholesky update in
  O(n²K) instead of refactorizing in O(n³) at every greedy step — see
  :class:`repro.core.somp_init.IncrementalBayesSolver`.

The scan runs on :class:`~repro.core.multistate.MultiStateData`, which
picks the arithmetic: on state-balanced data (one design shared by every
state) the correlations and residuals of a step are one GEMM each on the
shared design; otherwise one product per state.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.multistate import MultiStateData

__all__ = [
    "select_shared_support",
    "CoefficientSolver",
    "IncrementalSolver",
]

#: Solves coefficients on column-restricted designs; returns (p, K) matrix.
CoefficientSolver = Callable[
    [List[np.ndarray], List[np.ndarray]], np.ndarray
]


class IncrementalSolver:
    """Duck-typed interface of incremental greedy solvers (documentation
    only — ``select_shared_support`` detects the methods, not the type)."""

    def begin(
        self,
        designs: MultiStateData,
        targets: Sequence[np.ndarray],
    ) -> None:
        """Reset internal state for a fresh scan over ``designs`` (the
        scan's :class:`MultiStateData`; ``targets`` are its per-state
        target views)."""
        raise NotImplementedError

    def extend(self, index: int) -> np.ndarray:
        """Fold basis ``index`` into the support; return (p, K) coefficients."""
        raise NotImplementedError


def select_shared_support(
    designs: Union[Sequence[np.ndarray], MultiStateData],
    targets: Optional[Sequence[np.ndarray]],
    n_select: int,
    solver: Union[CoefficientSolver, IncrementalSolver],
    on_step: Optional[Callable[[List[int], np.ndarray], None]] = None,
    aggregate: str = "l1",
) -> Tuple[List[int], np.ndarray]:
    """Greedy shared-template selection (Algorithm 1, steps 5-11).

    Parameters
    ----------
    designs, targets:
        Per-state design matrices and target vectors — or a prepared
        :class:`MultiStateData` as ``designs`` (``targets`` is then
        ignored), which skips re-validation and re-stacking.
    n_select:
        Number of basis functions θ to pick.
    solver:
        Callback solving coefficients on the currently-selected columns;
        receives the column-restricted designs (selection order) and the
        original targets, returns a (p, K) coefficient matrix. An object
        with ``begin``/``extend`` methods is used incrementally instead
        (one rank-K update per accepted basis, no refactorization).
    on_step:
        Optional hook called after every iteration with the support so far
        and its coefficients — the initializer uses it to score
        intermediate support sizes without re-running the scan.
    aggregate:
        How per-state residual correlations combine across states:
        ``"l1"`` — ``Σ_k |ξ_{k,m}|`` (the paper's eq. 33);
        ``"l2"`` — ``Σ_k ξ_{k,m}²`` (the S-OMP variant of Tropp et al.).
        Both rank identically when one state dominates; ℓ2 favours bases
        that are very strong in a few states over uniformly-weak ones.

    Returns
    -------
    (support, coefficients):
        Selected basis indices (in selection order) and the final (θ, K)
        coefficient matrix.
    """
    if aggregate not in ("l1", "l2"):
        raise ValueError(
            f"aggregate must be 'l1' or 'l2', got {aggregate!r}"
        )
    data = (
        designs
        if isinstance(designs, MultiStateData)
        else MultiStateData.from_states(designs, targets)
    )
    n_states, n_basis = data.n_states, data.n_basis
    if not 0 < n_select <= n_basis:
        raise ValueError(
            f"n_select must be in 1..{n_basis}, got {n_select}"
        )

    incremental = hasattr(solver, "begin") and hasattr(solver, "extend")
    if incremental:
        solver.begin(data, data.targets)

    support: List[int] = []
    residual = data.y
    coefficients = np.zeros((0, n_states))
    for _ in range(n_select):
        # ξ_{k,m} = b_{k,m}ᵀ Res_k, aggregated over states (eq. 33); the
        # axis-0 sum adds the states in order.
        xi = data.correlate(residual)  # (K, M)
        if aggregate == "l1":
            score = np.abs(xi, out=xi).sum(axis=0)
        else:
            score = np.square(xi, out=xi).sum(axis=0)
        score[support] = -np.inf
        chosen = int(np.argmax(score))
        support.append(chosen)

        if incremental:
            coefficients = solver.extend(chosen)
        else:
            coefficients = solver(
                [design[:, support] for design in data.designs],
                data.targets,
            )
        if coefficients.shape != (len(support), n_states):
            raise AssertionError(
                f"solver returned shape {coefficients.shape}, expected "
                f"{(len(support), n_states)}"
            )
        # Res_k = y_k − B_k(Θ)·α_k (eq. 34).
        residual = data.y - data.predict_rows(coefficients, support)
        if on_step is not None:
            on_step(list(support), coefficients)
    return support, coefficients
