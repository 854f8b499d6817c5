"""Online C-BMF updates at frozen hyper-parameters.

A fitted :class:`~repro.core.cbmf.CBMF` is a snapshot: its posterior
conditions on exactly the rows it was fitted on. ``OnlineCBMF`` turns
that snapshot into a *live* model — each :meth:`absorb` folds a fresh
batch of ``(x, y)`` observations into the MK-dimensional posterior by
extending the dual-space Cholesky factor with the batch's Schur
complement (see :meth:`repro.core.predictive.PosteriorPredictor.absorb`)
— an O(n²·b) update on the frozen basis and ``{λ, R, σ0}``, with **no
refactorization**. Because the Cholesky factor of a positive-definite
matrix is unique, the absorbed posterior is numerically identical to a
batch solve on the concatenated rows at the same hyper-parameters.

What stays frozen between refits:

* the basis dictionary and the learned prior ``{λ, R}``;
* the observation noise σ0²;
* the target standardization (center and scale) of the source fit —
  incoming targets are standardized with the *original* statistics, so
  the posterior update is exact rather than approximately rescaled.

What an absorb updates:

* the dual-space factor and the posterior mean over all MK coefficients;
* the MAP coefficient matrix :attr:`coef_` (read from that mean);
* the predictive mean/std at every query point.

When the incoming data drifts away from the frozen hyper-parameters
(the :mod:`repro.streaming.drift` monitor scores that), :meth:`refit`
runs a full EM refit on everything absorbed so far, warm-started from
the current ``{λ, R, σ0}`` via :meth:`CBMF.warm_state` — the S-OMP
cross-validation grid is skipped, EM re-learns the hyper-parameters on
the enlarged data, and a fresh ``OnlineCBMF`` continues from there.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

import numpy as np

from repro.basis.dictionary import BasisDictionary
from repro.core.cbmf import CBMF, _find_intercept_column
from repro.core.em import EmConfig
from repro.core.frozen import FrozenModel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_matrix

__all__ = ["OnlineCBMF"]


class OnlineCBMF:
    """Streaming posterior updates for a fitted C-BMF model.

    Build one with :meth:`from_cbmf`; the source estimator is left
    untouched (the predictor state is deep-copied). All public
    predictions and coefficients are in the **original** target units.

    Parameters
    ----------
    model:
        A fitted :class:`CBMF` to continue from.
    basis:
        Optional basis dictionary. When given, :meth:`absorb` and the
        predict methods accept raw sample vectors ``x`` and expand them;
        when ``None`` they expect pre-expanded design rows.
    metric:
        Metric name carried into frozen snapshots and registry pushes.
    """

    def __init__(
        self,
        model: CBMF,
        basis: Optional[BasisDictionary] = None,
        metric: str = "value",
    ) -> None:
        model._require_fitted()
        if basis is not None and basis.n_basis != model.n_basis:
            raise ValueError(
                f"basis has {basis.n_basis} functions, model has "
                f"{model.n_basis} coefficients"
            )
        self.basis = basis
        self.metric = str(metric)
        self._predictor = copy.deepcopy(model.predictor)
        self._warm = model.warm_state()
        self._scale = float(model.scale_)
        self._center = float(model.center_)
        self._seed = model.seed
        self._em_config = model.em_config
        self._intercept = _find_intercept_column(
            [self._predictor.training_rows()[0]]
        )
        self.n_absorbed_batches = 0
        self.n_absorbed_rows = 0
        self._coef_cache: Optional[np.ndarray] = None
        # Batch id per conditioned row: 0 for the seed fit's rows, then
        # 1, 2, ... in absorb order — the forgetting window keys off it.
        self._row_batch = np.zeros(self._predictor.n_rows, dtype=int)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_cbmf(
        cls,
        model: CBMF,
        basis: Optional[BasisDictionary] = None,
        metric: str = "value",
    ) -> "OnlineCBMF":
        """The canonical constructor (mirrors ``FrozenModel.from_estimator``)."""
        return cls(model, basis=basis, metric=metric)

    # -- dimensions -----------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of knob states K."""
        return self._predictor.prior.n_states

    @property
    def n_basis(self) -> int:
        """Number of basis functions M."""
        return self._predictor.prior.n_basis

    @property
    def n_rows(self) -> int:
        """Training rows currently conditioned on (initial + absorbed)."""
        return self._predictor.n_rows

    @property
    def noise_std(self) -> float:
        """Frozen observation noise σ0 in original target units."""
        return float(np.sqrt(self._predictor.noise_var)) * self._scale

    # -- design handling ------------------------------------------------
    def _design(self, x: np.ndarray) -> np.ndarray:
        if self.basis is not None:
            return self.basis.expand(
                check_matrix(x, "x", shape=(None, self.basis.n_variables))
            )
        return check_matrix(x, "x", shape=(None, self.n_basis))

    # -- the online update ----------------------------------------------
    def absorb(self, x: np.ndarray, y: np.ndarray, state: int) -> int:
        """Fold one observed batch into the posterior; returns row count.

        ``x`` is raw samples (with a basis) or design rows (without);
        ``y`` the observed metric values in original units. The update
        is exact at the frozen hyper-parameters: after ``absorb``, the
        predictive mean/std equal a from-scratch batch solve on the
        concatenated rows to floating-point round-off. Non-finite
        inputs are refused (quarantine upstream).
        """
        design = self._design(x)
        y = np.asarray(y, dtype=float).reshape(-1)
        standardized = (y - self._center) / self._scale
        self._predictor.absorb(design, standardized, state)
        self.n_absorbed_batches += 1
        self.n_absorbed_rows += design.shape[0]
        self._row_batch = np.concatenate(
            [
                self._row_batch,
                np.full(design.shape[0], self.n_absorbed_batches, dtype=int),
            ]
        )
        self._coef_cache = None
        return design.shape[0]

    # -- prediction -----------------------------------------------------
    def predict(self, x: np.ndarray, state: int) -> np.ndarray:
        """Posterior-predictive mean in original units."""
        mean = self._predictor.predict_mean(self._design(x), state)
        return mean * self._scale + self._center

    def predict_std(
        self, x: np.ndarray, state: int, include_noise: bool = False
    ) -> np.ndarray:
        """Posterior-predictive standard deviation in original units."""
        std = self._predictor.predict_std(
            self._design(x), state, include_noise
        )
        return std * self._scale

    def zscores(
        self, x: np.ndarray, y: np.ndarray, state: int
    ) -> np.ndarray:
        """Standardized predictive residuals of an *unabsorbed* batch.

        ``z_i = (y_i − mean_i) / sqrt(var_i + σ0²)`` — distributed
        ~N(0, 1) per row when the batch comes from the model the
        posterior believes in; the drift monitor consumes these.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        mean = self.predict(x, state)
        std = self.predict_std(x, state, include_noise=True)
        return (y - mean) / np.maximum(std, 1e-300)

    # -- coefficients / export ------------------------------------------
    @property
    def coef_(self) -> np.ndarray:
        """Current MAP coefficients (K, M) in original target units.

        The predictor's posterior mean, rescaled; the grand center is
        folded into the intercept column when the basis has one (matching
        :class:`CBMF`), otherwise carried in :attr:`offsets_`.
        """
        if self._coef_cache is None:
            coef = self._predictor.mean.T * self._scale
            if self._intercept is not None:
                coef[:, self._intercept] += self._center
            self._coef_cache = coef
        return self._coef_cache

    @property
    def offsets_(self) -> np.ndarray:
        """Per-state additive offsets (zero when an intercept absorbs them)."""
        if self._intercept is not None:
            return np.zeros(self.n_states)
        return np.full(self.n_states, self._center)

    def frozen(self) -> FrozenModel:
        """Coefficient-only snapshot of the current posterior mean."""
        names = self.basis.names if self.basis is not None else None
        return FrozenModel(
            coef=np.array(self.coef_, copy=True),
            offsets=np.array(self.offsets_, copy=True),
            metric=self.metric,
            basis_names=names,
        )

    def modelset(self):
        """A single-metric ``PerformanceModelSet`` for registry pushes.

        Requires a basis (registry manifests persist its spec so the
        serving layer can answer raw-x requests).
        """
        if self.basis is None:
            raise ValueError(
                "modelset() requires a basis dictionary; construct the "
                "OnlineCBMF with one"
            )
        from repro.modelset import PerformanceModelSet

        return PerformanceModelSet({self.metric: self.frozen()}, self.basis)

    # -- data recovery / refit ------------------------------------------
    def state_data(
        self,
        window_batches: Optional[int] = None,
        min_rows_per_state: int = 2,
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Conditioned rows as per-state ``(designs, targets)`` lists.

        Targets are de-standardized back to original units — the exact
        inverse of the transform :meth:`absorb` applied — so a full
        refit sees the same numbers a batch fit on the raw stream would.

        ``window_batches`` restricts the rows to the most recent N
        absorbed batches — the forgetting window a drift-triggered refit
        uses, since a drift verdict certifies that older rows describe a
        regime that no longer exists. Any state left with fewer than
        ``min_rows_per_state`` rows is backfilled with its most recent
        older rows so every state stays solvable.
        """
        phi, y_std, state_of_row = self._predictor.training_rows()
        if window_batches is None:
            eligible = np.ones(state_of_row.shape[0], dtype=bool)
        else:
            if window_batches < 1:
                raise ValueError(
                    f"window_batches must be >= 1, got {window_batches}"
                )
            cutoff = self.n_absorbed_batches - window_batches + 1
            eligible = self._row_batch >= cutoff
        designs: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for k in range(self.n_states):
            rows = np.flatnonzero(state_of_row == k)
            keep = rows[eligible[rows]]
            if keep.size < min_rows_per_state:
                # Rows are stored in time order, so the tail of the
                # stale ones is the most recent history available.
                stale = rows[~eligible[rows]]
                need = min_rows_per_state - keep.size
                keep = np.sort(np.concatenate([stale[-need:], keep]))
            designs.append(phi[keep].copy())
            targets.append(y_std[keep] * self._scale + self._center)
        return designs, targets

    def refit(
        self,
        seed: SeedLike = None,
        em_config: Optional[EmConfig] = None,
        max_workers: Optional[int] = None,
        window_batches: Optional[int] = None,
        min_rows_per_state: int = 2,
    ) -> "OnlineCBMF":
        """Full EM refit on the absorbed data; returns a fresh updater.

        Warm-started from the current ``{λ, R, σ0}`` (the dict exported
        by :meth:`CBMF.warm_state` at construction), so the S-OMP
        cross-validation initializer is skipped and EM re-learns the
        hyper-parameters — the drift monitor's escape hatch when the
        frozen posterior has diverged from the stream.

        ``window_batches`` refits on the most recent N absorbed batches
        only (see :meth:`state_data`): after a detected *shift*, stale
        rows are evidence about a dead regime, and keeping them anchors
        the refit halfway between the old and new worlds.
        """
        designs, targets = self.state_data(
            window_batches=window_batches,
            min_rows_per_state=min_rows_per_state,
        )
        model = CBMF(
            em_config=em_config or self._em_config,
            seed=self._seed if seed is None else seed,
            max_workers=max_workers,
            warm_start=dict(self._warm),
        )
        model.fit(designs, targets)
        return OnlineCBMF(model, basis=self.basis, metric=self.metric)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineCBMF(metric={self.metric!r}, K={self.n_states}, "
            f"M={self.n_basis}, rows={self.n_rows}, "
            f"absorbed={self.n_absorbed_batches} batches)"
        )
