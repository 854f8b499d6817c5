"""Dataset containers for multi-state performance data.

A ``Dataset`` holds, for each knob state ``k``, the normalized sample
matrix ``X_k`` (N_k × n_variables) and one target vector per performance
metric — exactly the ``(x_k^(n), y_k^(n))`` pairs of the paper. Helpers
cover train/test handling, per-state subsetting (for sample-count sweeps)
and npz round-tripping so expensive simulations can be cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_matrix, check_vector

__all__ = ["StateData", "Dataset"]


@dataclass
class StateData:
    """Samples of one knob state: inputs and per-metric targets."""

    x: np.ndarray
    y: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.x = check_matrix(self.x, "x")
        if not self.y:
            raise ValueError("y must contain at least one metric")
        n = self.x.shape[0]
        self.y = {
            metric: check_vector(values, f"y[{metric!r}]", length=n)
            for metric, values in self.y.items()
        }

    @property
    def n_samples(self) -> int:
        """Number of samples in this state."""
        return self.x.shape[0]

    def head(self, n: int) -> "StateData":
        """The first ``n`` samples."""
        if not 0 < n <= self.n_samples:
            raise ValueError(
                f"n must be in 1..{self.n_samples}, got {n}"
            )
        return StateData(
            x=self.x[:n].copy(),
            y={metric: values[:n].copy() for metric, values in self.y.items()},
        )

    def tail(self, n: int) -> "StateData":
        """The last ``n`` samples."""
        if not 0 < n <= self.n_samples:
            raise ValueError(
                f"n must be in 1..{self.n_samples}, got {n}"
            )
        return StateData(
            x=self.x[-n:].copy(),
            y={metric: values[-n:].copy() for metric, values in self.y.items()},
        )


class Dataset:
    """Multi-state dataset: one ``StateData`` per knob configuration."""

    def __init__(
        self,
        circuit_name: str,
        states: Sequence[StateData],
        metric_names: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if not states:
            raise ValueError("dataset needs at least one state")
        self.circuit_name = circuit_name
        self.states: List[StateData] = list(states)

        n_vars = self.states[0].x.shape[1]
        metrics = tuple(sorted(self.states[0].y)) if metric_names is None \
            else tuple(metric_names)
        for index, state in enumerate(self.states):
            if state.x.shape[1] != n_vars:
                raise ValueError(
                    f"state {index} has {state.x.shape[1]} variables, "
                    f"expected {n_vars}"
                )
            missing = set(metrics) - set(state.y)
            if missing:
                raise ValueError(
                    f"state {index} is missing metrics {sorted(missing)}"
                )
        self.metric_names = metrics
        self.n_variables = n_vars

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of knob states K."""
        return len(self.states)

    @property
    def n_samples_per_state(self) -> Tuple[int, ...]:
        """Sample count of each state."""
        return tuple(state.n_samples for state in self.states)

    @property
    def n_samples_total(self) -> int:
        """Total samples across all states (the paper's cost driver)."""
        return sum(self.n_samples_per_state)

    def inputs(self) -> List[np.ndarray]:
        """Per-state input matrices ``[X_1, ..., X_K]``."""
        return [state.x for state in self.states]

    def targets(self, metric: str) -> List[np.ndarray]:
        """Per-state target vectors of one metric."""
        if metric not in self.metric_names:
            raise KeyError(
                f"unknown metric {metric!r}; have {self.metric_names}"
            )
        return [state.y[metric] for state in self.states]

    # ------------------------------------------------------------------
    def head(self, n_per_state: int) -> "Dataset":
        """First ``n_per_state`` samples of every state (training subsets)."""
        return Dataset(
            self.circuit_name,
            [state.head(n_per_state) for state in self.states],
            self.metric_names,
        )

    def split(self, n_train_per_state: int) -> Tuple["Dataset", "Dataset"]:
        """Split every state into (train, test) at ``n_train_per_state``."""
        n_min = min(self.n_samples_per_state)
        if not 0 < n_train_per_state < n_min:
            raise ValueError(
                f"n_train_per_state must be in 1..{n_min - 1}, "
                f"got {n_train_per_state}"
            )
        train = Dataset(
            self.circuit_name,
            [state.head(n_train_per_state) for state in self.states],
            self.metric_names,
        )
        test = Dataset(
            self.circuit_name,
            [
                state.tail(state.n_samples - n_train_per_state)
                for state in self.states
            ],
            self.metric_names,
        )
        return train, test

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialize to a compressed ``.npz`` file (atomically).

        The payload is written to a sibling ``.tmp`` file and renamed
        into place, so a crash mid-write can never leave a truncated
        file under the final name.
        """
        payload = {
            "circuit_name": np.array(self.circuit_name),
            "metric_names": np.array(list(self.metric_names)),
            "n_states": np.array(self.n_states),
        }
        for k, state in enumerate(self.states):
            payload[f"x_{k}"] = state.x
            for metric in self.metric_names:
                payload[f"y_{k}_{metric}"] = state.y[metric]
        path = Path(path)
        tmp_path = path.with_name(path.name + ".tmp")
        # An open handle sidesteps numpy's automatic ".npz" suffixing.
        with open(tmp_path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        tmp_path.replace(path)

    @classmethod
    def load(cls, path) -> "Dataset":
        """Load a dataset previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            circuit_name = str(data["circuit_name"])
            metric_names = tuple(str(m) for m in data["metric_names"])
            n_states = int(data["n_states"])
            states = [
                StateData(
                    x=data[f"x_{k}"],
                    y={
                        metric: data[f"y_{k}_{metric}"]
                        for metric in metric_names
                    },
                )
                for k in range(n_states)
            ]
        return cls(circuit_name, states, metric_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset({self.circuit_name!r}, K={self.n_states}, "
            f"n_vars={self.n_variables}, "
            f"N={self.n_samples_per_state[0]}/state, "
            f"metrics={list(self.metric_names)})"
        )
