"""Shared low-level utilities: numerical linear algebra, validation, RNG."""

from repro.utils.linalg import cholesky_solve
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_matrix,
    check_positive,
    check_square,
    check_vector,
)

__all__ = [
    "cholesky_solve",
    "as_generator",
    "spawn_generators",
    "check_matrix",
    "check_positive",
    "check_square",
    "check_vector",
]
