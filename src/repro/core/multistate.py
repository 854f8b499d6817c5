"""Precomputed multi-state data shared across the whole fit path.

Every dual-space solve needs the same derived quantities: the row-stacked
design ``Φ``, the concatenated target ``y``, the row→state map ``s``, the
per-state row offsets and the expanded index grid that turns the K×K
correlation matrix ``R`` into the n×n matrix ``R[s, s]``. Historically each
``compute_posterior`` call re-derived all of them — once per EM iteration,
once per greedy step, once per CV candidate. :class:`MultiStateData` builds
them exactly once per fit and is shared by the EM loop, the S-OMP
initializer and the predictive machinery.

The object is immutable after construction; ``restrict`` produces a
column-restricted companion (for EM pruning) that *shares* the target and
row/state bookkeeping and only re-slices ``Φ``. When the restriction keeps
every column, the original object is returned unchanged — the common
no-pruning EM configuration performs zero re-stacking work per iteration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import validate_multistate

__all__ = ["MultiStateData"]


class MultiStateData:
    """Stacked per-state designs/targets plus cached index structure.

    Attributes
    ----------
    phi:
        Row-stacked design, shape (n, M); rows of state k are contiguous.
    y:
        Concatenated targets, shape (n,).
    state_of_row:
        Row→state map ``s``, shape (n,).
    offsets:
        Cumulative row offsets, shape (K + 1,); state k owns rows
        ``offsets[k]:offsets[k + 1]``.
    row_starts:
        ``offsets[:-1]`` — the segment boundaries for ``np.add.reduceat``.
    state_slices:
        Per-state row slices into ``phi``/``y``.
    """

    __slots__ = (
        "phi",
        "y",
        "state_of_row",
        "offsets",
        "row_starts",
        "state_slices",
        "_row_grid",
        "_all_columns",
        "_balanced",
    )

    def __init__(
        self,
        phi: np.ndarray,
        y: np.ndarray,
        offsets: np.ndarray,
        state_of_row: np.ndarray,
    ) -> None:
        self.phi = phi
        self.y = y
        self.offsets = offsets
        self.state_of_row = state_of_row
        self.row_starts = offsets[:-1]
        self.state_slices: Tuple[slice, ...] = tuple(
            slice(int(offsets[k]), int(offsets[k + 1]))
            for k in range(offsets.shape[0] - 1)
        )
        # Open-mesh index pair expanding R (K×K) to R[s, s] (n×n).
        self._row_grid = (state_of_row[:, None], state_of_row[None, :])
        self._all_columns = None
        self._balanced: Optional[bool] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_states(
        cls,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
        *,
        validate: bool = True,
    ) -> "MultiStateData":
        """Stack per-state data once; ``validate=False`` skips coercion
        when the caller already ran :func:`validate_multistate`."""
        if validate:
            designs, targets = validate_multistate(designs, targets)
        phi = np.vstack(designs) if len(designs) > 1 else designs[0]
        y = np.concatenate(targets) if len(targets) > 1 else targets[0]
        counts = [d.shape[0] for d in designs]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        state_of_row = np.repeat(np.arange(len(designs)), counts)
        return cls(phi, y, offsets, state_of_row)

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states K."""
        return self.offsets.shape[0] - 1

    @property
    def n_basis(self) -> int:
        """Number of basis columns M."""
        return self.phi.shape[1]

    @property
    def n_rows(self) -> int:
        """Total sample count n across all states."""
        return self.phi.shape[0]

    @property
    def designs(self) -> List[np.ndarray]:
        """Per-state design views into the stacked ``phi`` (no copies)."""
        return [self.phi[sl] for sl in self.state_slices]

    @property
    def targets(self) -> List[np.ndarray]:
        """Per-state target views into the concatenated ``y``."""
        return [self.y[sl] for sl in self.state_slices]

    # ------------------------------------------------------------------
    @property
    def state_balanced(self) -> bool:
        """True when every state carries the *same* design matrix.

        This is the structural precondition of the Kronecker posterior
        solver: with one shared ``B`` (N × M) per state, ``DᵀD = BᵀB ⊗ I``
        and the MK-dimensional posterior decouples along the eigenvectors
        of R. Datasets generated with ``MonteCarloEngine.run(...,
        shared_samples=True)`` (one Monte-Carlo draw evaluated at every
        state) have this property by construction. The check is lazy and
        cached: equal row counts first, then an exact block comparison.
        """
        if self._balanced is None:
            self._balanced = self._check_balanced()
        return self._balanced

    def _check_balanced(self) -> bool:
        counts = np.diff(self.offsets)
        if counts.size == 0 or not np.all(counts == counts[0]):
            return False
        first = self.phi[self.state_slices[0]]
        for sl in self.state_slices[1:]:
            if not np.array_equal(first, self.phi[sl]):
                return False
        return True

    @property
    def shared_design(self) -> np.ndarray:
        """The per-state design ``B`` (N × M) of state-balanced data."""
        if not self.state_balanced:
            raise ValueError(
                "shared_design requires state-balanced data (every state "
                "fitted on the same design matrix)"
            )
        return self.phi[self.state_slices[0]]

    def targets_matrix(self) -> np.ndarray:
        """Targets as an (N, K) matrix (column k = state k); balanced only.

        Rows are state-major in ``y``, so for balanced data this is a
        zero-copy reshape.
        """
        if not self.state_balanced:
            raise ValueError(
                "targets_matrix requires state-balanced data"
            )
        n_per = self.n_rows // self.n_states
        return self.y.reshape(self.n_states, n_per).T

    # ------------------------------------------------------------------
    def restrict(self, columns: np.ndarray) -> "MultiStateData":
        """Column-restricted companion sharing all row/state structure.

        Returns ``self`` when ``columns`` is the identity selection — the
        no-pruning EM loop then performs no per-iteration copies at all.
        """
        columns = np.asarray(columns)
        if columns.size == self.n_basis and np.array_equal(
            columns, np.arange(self.n_basis)
        ):
            return self
        restricted = MultiStateData.__new__(MultiStateData)
        restricted.phi = self.phi[:, columns]
        restricted.y = self.y
        restricted.offsets = self.offsets
        restricted.state_of_row = self.state_of_row
        restricted.row_starts = self.row_starts
        restricted.state_slices = self.state_slices
        restricted._row_grid = self._row_grid
        restricted._all_columns = None
        # A column subset of a shared design is still shared; an already
        # known-unbalanced parent cannot become balanced by dropping
        # columns we'd want to rely on — propagate the cached verdict.
        restricted._balanced = self._balanced
        return restricted

    def expand_correlation(self, correlation: np.ndarray) -> np.ndarray:
        """``R[s, s]`` — the n×n expansion through the cached index grid."""
        return correlation[self._row_grid]

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` (first axis = rows) within each state's segment.

        Returns shape ``(K,) + values.shape[1:]``. States are guaranteed
        non-empty by :func:`validate_multistate`, which makes
        ``np.add.reduceat`` semantics exact.
        """
        return np.add.reduceat(values, self.row_starts, axis=0)

    def predict_rows(
        self, mean: np.ndarray, columns: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Row-wise prediction ``Φ[i, columns] · mean[:, s_i]``.

        ``mean`` is (M, K), or (len(columns), K) on a column subset.
        Balanced data takes one GEMM on the shared design; otherwise one
        product per state.
        """
        if self.state_balanced:
            design = self.shared_design
            if columns is not None:
                design = design[:, columns]
            return (mean.T @ design.T).reshape(-1)
        phi = self.phi if columns is None else self.phi[:, columns]
        prediction = np.empty(self.n_rows)
        for k, sl in enumerate(self.state_slices):
            prediction[sl] = phi[sl] @ mean[:, k]
        return prediction

    def correlate(self, values: np.ndarray) -> np.ndarray:
        """Per-state correlations ``ξ[k] = Φ_kᵀ · values[rows of k]``.

        ``values`` is row-stacked like ``y``; returns shape (K, M).
        Balanced data takes one GEMM on the shared design; otherwise one
        product per state.
        """
        if self.state_balanced:
            return values.reshape(self.n_states, -1) @ self.shared_design
        return np.stack(
            [self.phi[sl].T @ values[sl] for sl in self.state_slices]
        )

    def split(
        self, test_rows: Sequence[np.ndarray]
    ) -> Tuple["MultiStateData", "MultiStateData"]:
        """``(train, test)`` companions holding out ``test_rows[k]`` of
        each state k (indices local to the state, kept in given order).

        When balanced data holds out the same rows of every state, both
        halves are balanced by construction and never re-checked.
        """
        train_designs, train_targets = [], []
        test_designs, test_targets = [], []
        for sl, rows in zip(self.state_slices, test_rows):
            design, target = self.phi[sl], self.y[sl]
            mask = np.ones(design.shape[0], dtype=bool)
            mask[rows] = False
            train_designs.append(design[mask])
            train_targets.append(target[mask])
            test_designs.append(design[rows])
            test_targets.append(target[rows])
        train = MultiStateData.from_states(
            train_designs, train_targets, validate=False
        )
        test = MultiStateData.from_states(
            test_designs, test_targets, validate=False
        )
        first = test_rows[0]
        shared = all(
            rows is first or np.array_equal(rows, first)
            for rows in test_rows[1:]
        )
        if shared and self.state_balanced:
            train._balanced = test._balanced = True
        return train, test
