"""Stable dense linear algebra used throughout the Bayesian machinery.

Everything here operates on symmetric positive (semi-)definite matrices: the
prior covariance blocks ``λ_m R``, the dual-space Gram matrix
``C = σ0² I + D A Dᵀ`` and the posterior covariance blocks. Cholesky
factorizations are used wherever possible; a small diagonal jitter is added
automatically when a matrix is only semi-definite due to round-off.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import linalg as sla

from repro.errors import NumericalError

__all__ = [
    "cholesky_factor",
    "cholesky_solve",
    "inv_psd",
    "inv_from_cholesky",
    "nearest_psd_eigh",
    "is_psd",
    "symmetrize",
]

#: Relative jitter ladder tried when a Cholesky factorization fails.
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(A + Aᵀ)/2`` of a square matrix."""
    return 0.5 * (matrix + matrix.T)


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a PSD matrix, adding jitter if needed.

    The jitter is relative — each rung of the ladder scales with the
    mean diagonal of the matrix, so ill-scaled but fixable matrices are
    repaired regardless of their magnitude. Raises
    :class:`repro.errors.NumericalError` (a ``np.linalg.LinAlgError``
    subclass, so existing handlers keep working) if the matrix stays
    indefinite through the whole ladder.
    """
    matrix = symmetrize(np.asarray(matrix, dtype=float))
    scale = max(float(np.trace(matrix)) / max(matrix.shape[0], 1), 1e-300)
    for jitter in _JITTERS:
        shifted = (
            matrix + (jitter * scale) * np.eye(matrix.shape[0])
            if jitter
            else matrix
        )
        try:
            return np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        "matrix is not positive definite even after jitter "
        f"(largest tried: {_JITTERS[-1]:.0e} relative to the mean "
        f"diagonal {scale:.3e})"
    )


def cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L Lᵀ x = rhs`` given the lower Cholesky factor ``L``."""
    return sla.cho_solve((factor, True), rhs, check_finite=False)


def inv_psd(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a PSD matrix via Cholesky."""
    factor = cholesky_factor(matrix)
    identity = np.eye(matrix.shape[0])
    return cholesky_solve(factor, identity)


def inv_from_cholesky(factor: np.ndarray) -> np.ndarray:
    """Full inverse ``(L Lᵀ)⁻¹`` from a lower Cholesky factor.

    Uses LAPACK ``dpotri`` — roughly half the work of the equivalent
    ``cho_solve(factor, eye(n))`` and no n×n identity to materialize.
    Only the lower triangle of ``factor`` is read, so a factor with
    garbage above its diagonal (``scipy.linalg.cho_factor``) is fine.
    """
    # One work copy: the factor's lower triangle in Fortran order (the
    # transpose's upper one), which dpotri overwrites in place with the
    # inverse's lower triangle, leaving the zeros above it.
    work = np.triu(factor.T).T
    inverse, info = sla.lapack.dpotri(work, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    inverse += np.tril(inverse, -1).T
    return inverse


def is_psd(matrix: np.ndarray, *, tol: float = 1e-10) -> bool:
    """True when all eigenvalues of the symmetrized matrix are ≥ ``-tol``."""
    eigenvalues = np.linalg.eigvalsh(symmetrize(np.asarray(matrix, float)))
    scale = max(abs(eigenvalues).max(), 1.0)
    return bool(eigenvalues.min() >= -tol * scale)


def nearest_psd_eigh(
    matrix: np.ndarray, *, floor: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project a symmetric matrix onto the PSD cone by eigenvalue clipping.

    ``floor`` lower-bounds the eigenvalues (EM keeps the learned
    correlation matrix ``R`` strictly positive definite with it).
    Returns ``(projected, values, vectors)`` with ``projected`` ≈
    ``vectors·diag(values)·vectorsᵀ`` and ``values ≥ floor``, so a caller
    that needs the projection's eigendecomposition does not compute it
    again.
    """
    sym = symmetrize(np.asarray(matrix, dtype=float))
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    clipped = np.maximum(eigenvalues, floor)
    projected = symmetrize((eigenvectors * clipped) @ eigenvectors.T)
    return projected, clipped, eigenvectors
