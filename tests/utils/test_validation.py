"""Tests for the input-validation helpers."""

import numpy as np
import pytest

from repro.utils import validation


class TestCheckVector:
    def test_accepts_list(self):
        out = validation.check_vector([1.0, 2.0], "v")
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            validation.check_vector(np.zeros((2, 2)), "v")

    def test_enforces_length(self):
        with pytest.raises(ValueError, match="length 3"):
            validation.check_vector([1.0, 2.0], "v", length=3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            validation.check_vector([1.0, np.nan], "v")

    def test_names_offending_argument(self):
        with pytest.raises(ValueError, match="myvec"):
            validation.check_vector(np.zeros((1, 1)), "myvec")


class TestCheckMatrix:
    def test_accepts_2d(self):
        out = validation.check_matrix([[1.0, 2.0]], "m")
        assert out.shape == (1, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            validation.check_matrix([1.0, 2.0], "m")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            validation.check_matrix(np.zeros((0, 3)), "m")

    def test_allow_empty(self):
        out = validation.check_matrix(
            np.zeros((0, 3)), "m", allow_empty=True
        )
        assert out.shape == (0, 3)

    def test_shape_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            validation.check_matrix(np.ones((3, 2)), "m", shape=(2, None))

    def test_shape_cols(self):
        with pytest.raises(ValueError, match="4 columns"):
            validation.check_matrix(np.ones((3, 2)), "m", shape=(None, 4))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            validation.check_matrix([[np.inf]], "m")


class TestCheckSquare:
    def test_accepts_square(self):
        assert validation.check_square(np.eye(3), "m").shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            validation.check_square(np.ones((2, 3)), "m")

    def test_enforces_size(self):
        with pytest.raises(ValueError, match="4x4"):
            validation.check_square(np.eye(3), "m", size=4)


class TestScalars:
    def test_check_positive(self):
        assert validation.check_positive(2, "x") == 2.0

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="> 0"):
            validation.check_positive(0.0, "x")

    def test_check_positive_nonstrict_allows_zero(self):
        assert validation.check_positive(0.0, "x", strict=False) == 0.0

    def test_check_positive_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            validation.check_positive(float("nan"), "x")

    def test_check_in_range(self):
        assert validation.check_in_range(0.5, "x", 0.0, 1.0) == 0.5

    def test_check_in_range_exclusive(self):
        with pytest.raises(ValueError):
            validation.check_in_range(1.0, "x", 0.0, 1.0, inclusive=False)

    def test_check_integer(self):
        assert validation.check_integer(3, "n") == 3

    def test_check_integer_rejects_bool(self):
        with pytest.raises(TypeError):
            validation.check_integer(True, "n")

    def test_check_integer_rejects_float(self):
        with pytest.raises(TypeError):
            validation.check_integer(3.0, "n")

    def test_check_integer_minimum(self):
        with pytest.raises(ValueError, match=">= 2"):
            validation.check_integer(1, "n", minimum=2)

    def test_check_same_length(self):
        validation.check_same_length("a", [1], "b", [2])
        with pytest.raises(ValueError, match="same length"):
            validation.check_same_length("a", [1], "b", [1, 2])
