"""Input validation helpers shared by the public APIs.

All estimators and simulators in this package validate their inputs early and
raise ``ValueError``/``TypeError`` with messages that name the offending
argument, so that misuse fails at the call boundary instead of deep inside a
linear-algebra routine.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "check_vector",
    "check_matrix",
    "check_square",
    "check_positive",
    "check_in_range",
    "check_integer",
    "check_same_length",
]


def check_vector(
    value,
    name: str,
    *,
    length: Optional[int] = None,
    dtype=float,
) -> np.ndarray:
    """Coerce ``value`` to a 1-D ndarray, optionally enforcing its length."""
    array = np.asarray(value, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(
            f"{name} must be one-dimensional, got shape {array.shape}"
        )
    if length is not None and array.shape[0] != length:
        raise ValueError(
            f"{name} must have length {length}, got {array.shape[0]}"
        )
    if dtype is float and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def check_matrix(
    value,
    name: str,
    *,
    shape: Optional[Tuple[Optional[int], Optional[int]]] = None,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``value`` to a 2-D float ndarray, optionally enforcing shape.

    ``shape`` entries may be ``None`` to leave a dimension unconstrained.
    """
    array = np.asarray(value, dtype=float)
    if array.ndim != 2:
        raise ValueError(
            f"{name} must be two-dimensional, got shape {array.shape}"
        )
    if not allow_empty and array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if shape is not None:
        rows, cols = shape
        if rows is not None and array.shape[0] != rows:
            raise ValueError(
                f"{name} must have {rows} rows, got {array.shape[0]}"
            )
        if cols is not None and array.shape[1] != cols:
            raise ValueError(
                f"{name} must have {cols} columns, got {array.shape[1]}"
            )
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def check_square(value, name: str, *, size: Optional[int] = None) -> np.ndarray:
    """Coerce ``value`` to a square 2-D ndarray of optional size."""
    array = check_matrix(value, name)
    if array.shape[0] != array.shape[1]:
        raise ValueError(f"{name} must be square, got shape {array.shape}")
    if size is not None and array.shape[0] != size:
        raise ValueError(
            f"{name} must be {size}x{size}, got {array.shape[0]}x{array.shape[1]}"
        )
    return array


def check_positive(value, name: str, *, strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative if not strict)."""
    scalar = float(value)
    if not np.isfinite(scalar):
        raise ValueError(f"{name} must be finite, got {scalar}")
    if strict and scalar <= 0.0:
        raise ValueError(f"{name} must be > 0, got {scalar}")
    if not strict and scalar < 0.0:
        raise ValueError(f"{name} must be >= 0, got {scalar}")
    return scalar


def check_in_range(
    value, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Validate that a scalar lies in ``[low, high]`` (or ``(low, high)``)."""
    scalar = float(value)
    if inclusive:
        if not (low <= scalar <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {scalar}")
    else:
        if not (low < scalar < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {scalar}")
    return scalar


def check_integer(value, name: str, *, minimum: Optional[int] = None) -> int:
    """Validate an integer, optionally with a lower bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    scalar = int(value)
    if minimum is not None and scalar < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {scalar}")
    return scalar


def check_same_length(name_a: str, a: Sequence, name_b: str, b: Sequence) -> None:
    """Validate that two sequences have identical lengths."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length, "
            f"got {len(a)} and {len(b)}"
        )
