"""Common interface of all multi-state performance-model estimators.

Every method in this package — least squares, OMP, S-OMP, group lasso,
classic BMF and C-BMF — fits ``K`` linear-in-the-basis models at once:

    y_k ≈ B_k · α_k,    k = 1..K

from per-state design matrices ``B_k`` (``N_k × M``) and target vectors
``y_k``. After ``fit``, ``coef_`` holds the ``K × M`` coefficient matrix.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_matrix, check_vector

__all__ = ["MultiStateRegressor", "rowwise_predict", "validate_multistate"]


#: Bytes of coefficient rows ``rowwise_predict`` gathers at a time. A
#: block this size stays in cache; gathering all 4,000 rows of the
#: serving bench's request at once made the call twice as slow.
_BLOCK_BYTES = 1 << 19


def rowwise_predict(
    design: np.ndarray,
    coef: np.ndarray,
    states: Union[int, np.ndarray],
    offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The prediction kernel: ``design[i] · coef[s_i] + offsets[s_i]``.

    ``states`` is one int for every row (its coefficient row is
    broadcast) or an array with one state per row (each row gathers its
    own, in blocks of rows). Every row is its own BLAS dot product over
    C-contiguous operands, so a row's answer depends only on that row,
    its state's coefficients and offset, never on which other rows share
    the call. Every ``predict`` of this package and the serving engine
    run this one function, which makes their answers bit-identical.
    """
    design = np.ascontiguousarray(design)[:, None, :]
    if getattr(states, "ndim", 0):
        out = np.empty(len(states))
        step = max(1, _BLOCK_BYTES // coef[0].nbytes)
        for start in range(0, len(states), step):
            block = slice(start, start + step)
            rows = coef[states[block]][:, :, None]
            out[block] = np.matmul(design[block], rows)[:, 0, 0]
    else:
        rows = np.ascontiguousarray(coef[states])[:, None]
        out = np.matmul(design, rows)[:, 0, 0]
    if offsets is not None:
        out += offsets[states]
    return out


def validate_multistate(
    designs: Sequence[np.ndarray], targets: Sequence[np.ndarray]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Validate and coerce per-state designs/targets.

    Ensures at least one state, a shared basis dimension, and matching
    sample counts between each ``B_k`` and ``y_k``.
    """
    if len(designs) == 0:
        raise ValueError("at least one state is required")
    if len(designs) != len(targets):
        raise ValueError(
            f"got {len(designs)} design matrices but {len(targets)} targets"
        )
    checked_designs: List[np.ndarray] = []
    checked_targets: List[np.ndarray] = []
    n_basis: Optional[int] = None
    for k, (design, target) in enumerate(zip(designs, targets)):
        design = check_matrix(design, f"designs[{k}]")
        if n_basis is None:
            n_basis = design.shape[1]
        elif design.shape[1] != n_basis:
            raise ValueError(
                f"designs[{k}] has {design.shape[1]} basis columns, "
                f"expected {n_basis}"
            )
        target = check_vector(target, f"targets[{k}]", length=design.shape[0])
        checked_designs.append(design)
        checked_targets.append(target)
    return checked_designs, checked_targets


class MultiStateRegressor(abc.ABC):
    """Abstract multi-state linear performance model."""

    #: Set by fit(): coefficient matrix, shape (K, M).
    coef_: np.ndarray

    @abc.abstractmethod
    def fit(
        self,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
    ) -> "MultiStateRegressor":
        """Fit all K state models. Returns self."""

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if getattr(self, "coef_", None) is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )

    @property
    def n_states(self) -> int:
        """Number of fitted states K."""
        self._require_fitted()
        return self.coef_.shape[0]

    @property
    def n_basis(self) -> int:
        """Number of basis functions M."""
        self._require_fitted()
        return self.coef_.shape[1]

    @property
    def support_(self) -> np.ndarray:
        """Indices of basis functions with a nonzero coefficient anywhere."""
        self._require_fitted()
        return np.flatnonzero(np.any(self.coef_ != 0.0, axis=0))

    def predict(self, design: np.ndarray, state: int) -> np.ndarray:
        """Predict one state's performance for a design matrix.

        Adds the per-state ``offsets_`` when the estimator carries them.
        """
        self._require_fitted()
        if not 0 <= state < self.coef_.shape[0]:
            raise IndexError(
                f"state {state} out of range 0..{self.coef_.shape[0] - 1}"
            )
        design = check_matrix(
            design, "design", shape=(None, self.coef_.shape[1])
        )
        return rowwise_predict(
            design, self.coef_, state, getattr(self, "offsets_", None)
        )

    def predict_states(
        self, designs: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Predict every state on its own design matrix."""
        self._require_fitted()
        if len(designs) != self.coef_.shape[0]:
            raise ValueError(
                f"got {len(designs)} designs for {self.coef_.shape[0]} states"
            )
        return [
            self.predict(design, state)
            for state, design in enumerate(designs)
        ]
