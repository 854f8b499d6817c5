"""Uncorrelated Bayesian model fusion — the magnitude-correlation ablation.

Bayesian model fusion [18] places an independent zero-mean Gaussian prior
per coefficient with per-basis variances (its prior knowledge came from
early-stage data; here the variances are learned, as in C-BMF). In the
C-BMF framework this is exactly the special case ``R = I`` held diagonal:
the sparse template is still shared across states through λ, but
coefficient *magnitudes* are fused no further.

Keeping it inside the same machinery makes it the clean ablation the
paper's argument rests on: C-BMF − magnitude correlation = this estimator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.cbmf import CBMF
from repro.core.em import EmConfig
from repro.core.somp_init import InitConfig
from repro.utils.rng import SeedLike

__all__ = ["UncorrelatedBMF"]


class UncorrelatedBMF(CBMF):
    """C-BMF with the cross-state correlation forced to identity.

    Accepts the same configuration as :class:`CBMF`, but overrides the
    correlation handling: the initializer's r0 grid collapses to ``{0}``
    (R = I) and the EM iteration keeps R diagonal.
    """

    def __init__(
        self,
        init_config: Optional[InitConfig] = None,
        em_config: Optional[EmConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        init = replace(init_config or InitConfig(), r0_grid=(0.0,))
        em = replace(em_config or EmConfig(), diagonal_r=True)
        super().__init__(init_config=init, em_config=em, seed=seed)
