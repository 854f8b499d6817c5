"""Unit and property tests for the PSD linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import linalg


def random_psd(rng: np.random.Generator, size: int) -> np.ndarray:
    root = rng.standard_normal((size, size + 2))
    return root @ root.T / size


# ---------------------------------------------------------------------------
# cholesky / inverses
# ---------------------------------------------------------------------------
class TestCholesky:
    def test_factor_reconstructs_matrix(self):
        rng = np.random.default_rng(0)
        matrix = random_psd(rng, 5)
        factor = linalg.cholesky_factor(matrix)
        assert np.allclose(factor @ factor.T, matrix, atol=1e-10)

    def test_factor_is_lower_triangular(self):
        matrix = random_psd(np.random.default_rng(1), 4)
        factor = linalg.cholesky_factor(matrix)
        assert np.allclose(factor, np.tril(factor))

    def test_semi_definite_gets_jitter(self):
        # Rank-1 PSD matrix: plain Cholesky fails, jitter ladder succeeds.
        v = np.array([1.0, 2.0, 3.0])
        matrix = np.outer(v, v)
        factor = linalg.cholesky_factor(matrix)
        assert np.allclose(factor @ factor.T, matrix, atol=1e-6)

    def test_indefinite_matrix_raises(self):
        matrix = np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            linalg.cholesky_factor(matrix)

    def test_indefinite_raises_numerical_error(self):
        """Ladder exhaustion raises the taxonomy type, not a bare
        LinAlgError — and the old ``except np.linalg.LinAlgError``
        handlers still catch it (tested above)."""
        from repro.errors import NumericalError, ReproError

        with pytest.raises(NumericalError, match="not positive definite"):
            linalg.cholesky_factor(np.diag([1.0, -1.0]))
        with pytest.raises(ReproError):
            linalg.cholesky_factor(np.diag([1.0, -1.0]))

    def test_jitter_scales_with_diagonal(self):
        """The ladder is relative: a rank-1 matrix is repaired at any
        magnitude, which an absolute jitter could not do."""
        v = np.array([1.0, 2.0, 3.0])
        for scale in (1e-6, 1.0, 1e8):
            matrix = scale * np.outer(v, v)
            factor = linalg.cholesky_factor(matrix)
            assert np.allclose(
                factor @ factor.T, matrix, rtol=1e-5, atol=1e-8 * scale
            )

    def test_inv_from_cholesky_matches_inv_psd(self):
        """Also from ``cho_factor``'s factor, which keeps the input's
        entries above its diagonal: only the lower triangle is read."""
        from scipy import linalg as sla

        matrix = random_psd(np.random.default_rng(12), 5)
        garbage_above, _ = sla.cho_factor(matrix, lower=True)
        assert np.any(np.triu(garbage_above, 1) != 0.0)
        for factor in (linalg.cholesky_factor(matrix), garbage_above):
            assert np.allclose(
                linalg.inv_from_cholesky(factor.copy()),
                linalg.inv_psd(matrix),
                atol=1e-10,
            )

    @pytest.mark.parametrize(
        "matrix",
        [
            *(
                pytest.param(
                    random_psd(np.random.default_rng(size), size),
                    id=f"n={size}",
                )
                for size in (1, 2, 7, 240)
            ),
            pytest.param(
                np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), id="jitter-rung"
            ),
        ],
    )
    def test_factor_and_inverse_equal_the_plain_formulas(self, matrix):
        """The zero rung factors the matrix without adding ``0·I`` and the
        mirror uses ``tril`` instead of fancy indexing; both give the bits
        of the plain formulas, written out here."""
        from scipy import linalg as sla

        sym = linalg.symmetrize(matrix)
        scale = max(float(np.trace(sym)) / sym.shape[0], 1e-300)
        for jitter in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
            try:
                expected = np.linalg.cholesky(
                    sym + (jitter * scale) * np.eye(sym.shape[0])
                )
                break
            except np.linalg.LinAlgError:
                continue
        factor = linalg.cholesky_factor(matrix)
        assert np.array_equal(factor, expected)

        mirrored, info = sla.lapack.dpotri(factor, lower=1)
        assert info == 0
        upper = np.triu_indices_from(mirrored, k=1)
        mirrored[upper] = mirrored.T[upper]
        assert np.array_equal(linalg.inv_from_cholesky(factor), mirrored)

    def test_inv_psd(self):
        matrix = random_psd(np.random.default_rng(4), 5)
        assert np.allclose(
            linalg.inv_psd(matrix) @ matrix, np.eye(5), atol=1e-9
        )


# ---------------------------------------------------------------------------
# PSD checks / projection
# ---------------------------------------------------------------------------
class TestPsd:
    def test_is_psd_true(self):
        assert linalg.is_psd(random_psd(np.random.default_rng(6), 4))

    def test_is_psd_false(self):
        assert not linalg.is_psd(np.diag([1.0, -0.5]))

    def test_nearest_psd_identity_on_psd(self):
        matrix = random_psd(np.random.default_rng(7), 4)
        projected = linalg.nearest_psd_eigh(matrix)[0]
        assert np.allclose(projected, matrix, atol=1e-10)

    def test_nearest_psd_clips_negative_eigenvalues(self):
        matrix = np.diag([2.0, -1.0])
        projected = linalg.nearest_psd_eigh(matrix)[0]
        assert linalg.is_psd(projected)
        assert projected[0, 0] == pytest.approx(2.0)
        assert projected[1, 1] == pytest.approx(0.0)

    def test_nearest_psd_floor(self):
        matrix = np.diag([2.0, 1e-12])
        projected = linalg.nearest_psd_eigh(matrix, floor=0.5)[0]
        assert np.linalg.eigvalsh(projected).min() >= 0.5 - 1e-12

    def test_symmetrize(self):
        matrix = np.array([[1.0, 2.0], [0.0, 1.0]])
        sym = linalg.symmetrize(matrix)
        assert np.allclose(sym, sym.T)
        assert sym[0, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 8))
def test_property_solve_roundtrip(seed, size):
    """A x = b through the Cholesky factor reconstructs b for random PSD A."""
    rng = np.random.default_rng(seed)
    matrix = random_psd(rng, size) + 0.1 * np.eye(size)
    rhs = rng.standard_normal(size)
    solution = linalg.cholesky_solve(linalg.cholesky_factor(matrix), rhs)
    assert np.allclose(matrix @ solution, rhs, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(2, 8))
def test_property_nearest_psd_is_psd_and_idempotent(seed, size):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((size, size))
    projected = linalg.nearest_psd_eigh(matrix)[0]
    assert linalg.is_psd(projected, tol=1e-8)
    again = linalg.nearest_psd_eigh(projected)[0]
    assert np.allclose(projected, again, atol=1e-8)
