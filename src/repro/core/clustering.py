"""State clustering for mutually-different states (paper Section 5).

The paper's conclusion notes that C-BMF assumes a unified correlation model
across all states and that, when states are *mutually different* (e.g. a
knob that switches topology rather than bias), "a clustering algorithm is
needed to group similar states into clusters before applying the proposed
C-BMF algorithm". This module implements that extension:

* :func:`cluster_states` builds a cheap per-state signature — least-squares
  coefficients on one shared S-OMP template, so the template selection
  pools all states' samples — and groups states by average-linkage
  hierarchical clustering on the cosine distance between signatures;
* :class:`ClusteredCBMF` runs one C-BMF per cluster and reassembles the
  full (K, M) coefficient matrix.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist

from repro.core.base import MultiStateRegressor, validate_multistate
from repro.core.cbmf import CBMF
from repro.core.em import EmConfig
from repro.core.somp_init import InitConfig
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer

__all__ = ["cluster_states", "ClusteredCBMF"]


def state_signatures(
    designs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    ridge: float = 1.0,
    kind: str = "somp",
) -> np.ndarray:
    """Per-state sensitivity signatures used as clustering features.

    ``kind="somp"`` (default) first runs one shared S-OMP scan — whose
    basis ranking *pools* every state's samples and therefore stays
    reliable even when any single state's N_k ≪ M — then takes each
    state's least-squares coefficients on that shared support as its
    signature. A state from a different family carries near-zero weight on
    the other family's bases, so the cosine distance separates families
    sharply. ``kind="ridge"`` fits per-state ridge coefficients over the
    full dictionary instead (only sensible when N_k is comparable to M).
    Only the signature *direction* matters downstream.
    """
    designs, targets = validate_multistate(designs, targets)
    if ridge <= 0.0:
        raise ValueError(f"ridge must be > 0, got {ridge}")
    if kind not in ("somp", "ridge"):
        raise ValueError(
            f"kind must be 'somp' or 'ridge', got {kind!r}"
        )
    centered = [t - t.mean() for t in targets]
    if kind == "somp":
        return _shared_support_signatures(designs, centered, ridge)
    signatures = []
    for design, target in zip(designs, centered):
        gram = design.T @ design + ridge * np.eye(design.shape[1])
        signatures.append(np.linalg.solve(gram, design.T @ target))
    return np.vstack(signatures)


def _shared_support_signatures(
    designs: List[np.ndarray],
    targets: List[np.ndarray],
    ridge: float,
) -> np.ndarray:
    """Per-state ridge coefficients on one shared greedy support.

    The support is kept to at most half the smallest per-state sample
    count and the per-state solve is ridge-regularized — an unregularized
    LS at p ≈ N would interpolate noise and wash out the family structure
    the signature exists to expose.
    """
    from repro.core.greedy import select_shared_support

    n_basis = designs[0].shape[1]
    min_samples = min(d.shape[0] for d in designs)
    support_size = max(2, min(20, min_samples // 2, n_basis))

    def ridge_solver(sub_designs, sub_targets):
        columns = []
        for design, target in zip(sub_designs, sub_targets):
            gram = design.T @ design + ridge * np.eye(design.shape[1])
            columns.append(np.linalg.solve(gram, design.T @ target))
        return np.column_stack(columns)

    _, coefficients = select_shared_support(
        designs, targets, support_size, ridge_solver
    )
    return coefficients.T  # (K, support_size)


def cluster_states(
    designs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    n_clusters: int,
    ridge: float = 1.0,
    kind: str = "somp",
) -> np.ndarray:
    """Group states into ``n_clusters`` by coefficient-direction similarity.

    Returns 0-based cluster labels of length K.
    """
    designs, targets = validate_multistate(designs, targets)
    n_states = len(designs)
    n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)
    if n_clusters > n_states:
        raise ValueError(
            f"n_clusters={n_clusters} exceeds the state count {n_states}"
        )
    if n_clusters == 1:
        return np.zeros(n_states, dtype=int)
    features = state_signatures(designs, targets, ridge, kind)
    # Guard cosine distance against all-zero signatures.
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    features = features / np.maximum(norms, 1e-12)
    distances = pdist(features, metric="cosine")
    tree = linkage(distances, method="average")
    labels = fcluster(tree, t=n_clusters, criterion="maxclust") - 1
    return labels.astype(int)


class ClusteredCBMF(MultiStateRegressor):
    """C-BMF applied per cluster of mutually-similar states.

    Parameters
    ----------
    n_clusters:
        Number of state clusters. ``1`` reduces to plain C-BMF.
    init_config / em_config / seed:
        Forwarded to each per-cluster :class:`CBMF`.
    ridge:
        Ridge strength of the clustering signatures.
    """

    def __init__(
        self,
        n_clusters: int = 2,
        init_config: Optional[InitConfig] = None,
        em_config: Optional[EmConfig] = None,
        seed: SeedLike = None,
        ridge: float = 1.0,
    ) -> None:
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)
        self.init_config = init_config
        self.em_config = em_config
        self.seed = seed
        self.ridge = ridge
        self.coef_: Optional[np.ndarray] = None
        self.offsets_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.models_: Optional[List[CBMF]] = None

    def fit(
        self,
        designs: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
    ) -> "ClusteredCBMF":
        designs, targets = validate_multistate(designs, targets)
        n_states = len(designs)
        n_basis = designs[0].shape[1]
        labels = cluster_states(
            designs, targets, min(self.n_clusters, n_states), self.ridge
        )

        coef = np.zeros((n_states, n_basis))
        offsets = np.zeros(n_states)
        models: List[CBMF] = []
        for cluster in range(labels.max() + 1):
            members = np.flatnonzero(labels == cluster)
            model = CBMF(
                init_config=self.init_config,
                em_config=self.em_config,
                seed=self.seed,
            )
            model.fit(
                [designs[k] for k in members],
                [targets[k] for k in members],
            )
            coef[members] = model.coef_
            offsets[members] = model.offsets_
            models.append(model)

        self.labels_ = labels
        self.models_ = models
        self.coef_ = coef
        self.offsets_ = offsets
        return self
