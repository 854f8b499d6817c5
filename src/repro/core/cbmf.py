"""The C-BMF estimator: the paper's Algorithm 1, end to end.

``CBMF`` follows the estimator protocol of this package (fit on per-state
design matrices and targets, coefficients in ``coef_``) and internally runs

1. per-state target standardization (centering plus one pooled scale), so
   the unit-λ Bayesian solves of the initializer are well-scaled for any
   metric (dB, dBm, ...);
2. the modified S-OMP + cross-validation hyper-parameter initializer;
3. EM refinement of ``{λ, R, σ0}`` with the MAP coefficients from the
   final posterior.

The per-state centers are folded back into the model's intercept column
when the basis has one (any all-ones column), otherwise kept as explicit
per-state offsets applied at prediction time.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import MultiStateRegressor, validate_multistate
from repro.core.em import EmConfig, run_em
from repro.core.prior import CorrelatedPrior
from repro.core.predictive import PosteriorPredictor
from repro.core.results import FitReport
from repro.core.somp_init import InitConfig, somp_initialize
from repro.utils.parallel import one_blas_thread
from repro.utils.rng import SeedLike

__all__ = ["CBMF"]

#: Keys a dict-form ``warm_start`` must carry (see :meth:`CBMF.warm_state`).
_WARM_KEYS = {"lambdas", "correlation", "noise_std", "scale", "r0"}


def _find_intercept_column(designs: Sequence[np.ndarray]) -> Optional[int]:
    """Index of a column that equals 1 in every design, or None."""
    n_basis = designs[0].shape[1]
    for column in range(n_basis):
        if all(np.allclose(d[:, column], 1.0) for d in designs):
            return column
    return None


class CBMF(MultiStateRegressor):
    """Correlated Bayesian Model Fusion estimator.

    Parameters
    ----------
    init_config:
        Candidate grid/folds for the S-OMP initializer; defaults match the
        package-wide defaults of :class:`InitConfig`.
    em_config:
        EM iteration knobs; see :class:`EmConfig`.
    seed:
        Seed for the cross-validation fold shuffling.
    max_workers:
        Processes for the initializer's cross-validation grid (``None``
        defers to the ``REPRO_MAX_WORKERS`` environment variable, default
        serial). Any worker count returns bit-identical fits.
    warm_start:
        A previously fitted ``CBMF`` on the same basis/state layout — or
        the dict exported by :meth:`warm_state` from one. Its learned
        ``{λ, R, σ0}`` seed EM directly and the S-OMP cross-validation
        initializer is skipped — the incremental-sampling fast path.
        The dict form lets a checkpointed loop resume with numerically
        identical warm starts without pickling estimator objects.

    Attributes (after ``fit``)
    --------------------------
    coef_:
        (K, M) MAP coefficients in original target units.
    offsets_:
        (K,) additive per-state offsets (all zero when the basis has an
        intercept column to absorb them).
    prior_:
        The learned :class:`CorrelatedPrior` (λ and R after EM).
    noise_std_:
        Learned observation noise σ0 in original units.
    center_:
        The grand target center subtracted before standardization (the
        streaming updater needs it to standardize incoming targets the
        same way this fit did).
    scale_:
        The pooled standardization scale (read-only property).
    report_:
        :class:`FitReport` with the full fitting diagnostics.
    """

    def __init__(
        self,
        init_config: Optional[InitConfig] = None,
        em_config: Optional[EmConfig] = None,
        seed: SeedLike = None,
        max_workers: Optional[int] = None,
        warm_start: Optional["CBMF"] = None,
    ) -> None:
        if isinstance(warm_start, CBMF) and warm_start.prior_ is None:
            raise ValueError(
                "warm_start estimator must be fitted (its prior_ is None)"
            )
        if isinstance(warm_start, dict):
            missing = _WARM_KEYS - set(warm_start)
            if missing:
                raise ValueError(
                    f"warm_start dict is missing keys {sorted(missing)}"
                )
        self.init_config = init_config or InitConfig()
        self.em_config = em_config or EmConfig()
        self.seed = seed
        self.max_workers = max_workers
        self.warm_start = warm_start
        self.coef_: Optional[np.ndarray] = None
        self.offsets_: Optional[np.ndarray] = None
        self.prior_ = None
        self.noise_std_: Optional[float] = None
        self.report_: Optional[FitReport] = None
        self.center_: Optional[float] = None
        self._scale: float = 1.0
        self._predictor: Optional[PosteriorPredictor] = None

    # ------------------------------------------------------------------
    @one_blas_thread()
    def fit(
        self,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
    ) -> "CBMF":
        """Fit on per-state designs and targets (Algorithm 1).

        The whole fit runs on one BLAS thread (see
        :func:`repro.utils.parallel.one_blas_thread`); the thread counts
        in force before the call are restored when it returns or raises.
        """
        designs, targets = validate_multistate(designs, targets)
        n_states = len(designs)

        # Standardize with a single grand center and one pooled scale. A
        # *per-state* center would be tempting, but it discards cross-state
        # mean structure: the intercept coefficients of neighbouring states
        # are themselves correlated, and leaving the state means in the
        # data lets the prior fuse them like any other basis.
        grand_center = float(np.mean(np.concatenate(targets)))
        centered = [t - grand_center for t in targets]
        scale = float(
            np.sqrt(
                np.mean([np.mean(c**2) for c in centered])
            )
        )
        if scale <= 0.0:
            scale = 1.0
        standardized = [c / scale for c in centered]

        started = time.perf_counter()
        init = self._initial_guess(designs, standardized, scale)
        init_seconds = time.perf_counter() - started

        prior, noise_var, posterior, trace = run_em(
            designs, standardized, init.prior, init.noise_var, self.em_config
        )

        coef = posterior.coef * scale  # (K, M)
        offsets = np.full(n_states, grand_center)
        intercept = _find_intercept_column(designs)
        if intercept is not None:
            coef = coef.copy()
            coef[:, intercept] += grand_center
            offsets = np.zeros(n_states)

        self.coef_ = coef
        self.offsets_ = offsets
        self.prior_ = prior
        self.noise_std_ = float(np.sqrt(noise_var)) * scale
        self.center_ = grand_center
        self._scale = scale
        self._predictor = PosteriorPredictor(
            designs, standardized, prior, noise_var
        )
        active_threshold = self.em_config.prune_threshold or 1e-4
        self.report_ = FitReport(
            init=init,
            em=trace,
            n_active=int(prior.active_set(active_threshold).size),
            noise_std=self.noise_std_,
            init_seconds=init_seconds,
            em_seconds=trace.seconds,
        )
        return self

    # ------------------------------------------------------------------
    def _initial_guess(self, designs, standardized, scale):
        """EM seed: the modified S-OMP initializer, or a warm start.

        A warm start reuses the hyper-parameters of a previously fitted
        CBMF on the same (basis, state) layout — the incremental-sampling
        case, where rerunning the full cross-validation every round would
        dominate the loop. λ and σ0 are rescaled from the old
        standardization to the new one; EM then refines them on the
        enlarged data.
        """
        from repro.core.somp_init import InitResult

        warm = self.warm_start
        if warm is None:
            return somp_initialize(
                designs,
                standardized,
                self.init_config,
                self.seed,
                max_workers=self.max_workers,
            )
        if isinstance(warm, CBMF):
            warm = warm.warm_state()
        lambdas = np.asarray(warm["lambdas"], dtype=float)
        correlation = np.asarray(warm["correlation"], dtype=float)
        if lambdas.shape[0] != designs[0].shape[1]:
            raise ValueError(
                f"warm-start prior has {lambdas.shape[0]} bases, "
                f"designs have {designs[0].shape[1]}"
            )
        if correlation.shape[0] != len(designs):
            raise ValueError(
                f"warm-start prior has {correlation.shape[0]} states, "
                f"got {len(designs)}"
            )
        rescale = (float(warm["scale"]) / scale) ** 2
        prior = CorrelatedPrior(
            lambdas=lambdas * rescale,
            correlation=correlation.copy(),
        )
        noise_var = max((float(warm["noise_std"]) / scale) ** 2, 1e-12)
        support = prior.active_set(1e-4)
        return InitResult(
            r0=float(warm["r0"]),
            sigma0=float(np.sqrt(noise_var)),
            n_basis=int(support.size),
            support=support.tolist(),
            prior=prior,
            noise_var=noise_var,
            cv_errors={},
        )

    def warm_state(self) -> dict:
        """Snapshot of the learned hyper-parameters for warm restarts.

        The dict (numpy arrays plus plain floats — trivially serialized
        to npz/JSON) can be passed back as ``warm_start`` to a fresh
        ``CBMF`` and yields a warm start numerically identical to passing
        the fitted estimator itself. Checkpoint/resume loops persist this
        instead of pickling the model.
        """
        self._require_fitted()
        return {
            "lambdas": self.prior_.lambdas.copy(),
            "correlation": self.prior_.correlation.copy(),
            "noise_std": float(self.noise_std_),
            "scale": float(self._scale),
            "r0": float(self.report_.init.r0),
        }

    @property
    def scale_(self) -> float:
        """The pooled target standardization scale of this fit."""
        self._require_fitted()
        return self._scale

    @property
    def predictor(self) -> PosteriorPredictor:
        """The fitted :class:`PosteriorPredictor` (standardized targets).

        Means/stds from this object live on the internal standardized
        target scale; multiply by nothing for *ranking* purposes (the
        scale is a positive constant) or use :meth:`predict_std` for
        values in original units. Exposed so acquisition strategies can
        run fantasy-conditioned batch selection via
        :meth:`PosteriorPredictor.augmented`.
        """
        self._require_fitted()
        return self._predictor

    def predict(self, design: np.ndarray, state: int) -> np.ndarray:
        """Predict one state, including any per-state offset."""
        prediction = super().predict(design, state)
        if self.offsets_ is not None and self.offsets_[state] != 0.0:
            prediction = prediction + self.offsets_[state]
        return prediction

    def predict_std(
        self,
        design: np.ndarray,
        state: int,
        include_noise: bool = False,
    ) -> np.ndarray:
        """Posterior-predictive standard deviation, in target units.

        The Bayesian posterior provides calibrated error bars for free;
        ``include_noise=True`` adds the learned observation noise (spread
        of a fresh simulation rather than of the latent performance).
        """
        self._require_fitted()
        std = self._predictor.predict_std(design, state, include_noise)
        return std * self._scale
