import math

import numpy as np
import pytest
from hypothesis import given, settings

from optlab import (
    NonFiniteError,
    ParamTensor,
    mean_all_but_first,
    row_norms,
)

from conftest import tensors
from oracles import frobenius_norm


class TestConstruction:
    def test_valid(self):
        t = ParamTensor("w", (2, 3), [1, 2, 3, 4, 5, 6])
        assert t.shape == (2, 3)
        assert t.rank == 2
        assert t.size == 6
        np.testing.assert_array_equal(t.array, [[1, 2, 3], [4, 5, 6]])

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            ParamTensor("w", (), [])

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            ParamTensor("w", (2, 0), [])

    @pytest.mark.parametrize(
        "shape, values", [((2.7,), [1, 2]), (("3",), [1, 2, 3]), ((True,), [1.0])]
    )
    def test_non_integer_extent_rejected(self, shape, values):
        with pytest.raises(ValueError, match="w: every extent must be an integer"):
            ParamTensor("w", shape, values)

    def test_numpy_integer_extents_accepted(self):
        t = ParamTensor("w", (np.int64(2), np.uint8(1)), [1, 2])
        assert t.shape == (2, 1) and all(type(n) is int for n in t.shape)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamTensor("w", (2, 2), [1, 2, 3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            ParamTensor("w", (2,), [1.0, bad])

    def test_values_are_frozen(self):
        t = ParamTensor("w", (2,), [1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    def test_construction_copies(self):
        src = np.array([1.0, 2.0])
        t = ParamTensor("w", (2,), src)
        src[0] = 99.0
        assert t.values[0] == 1.0


class TestFrobeniusNorm:
    def test_all_zero(self):
        assert frobenius_norm(ParamTensor("t", (3, 3), np.zeros(9)).array) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(ParamTensor("t", (2, 2), [3, 4, 0, 0]).array) == 5.0

    def test_absolute_value(self):
        assert frobenius_norm(ParamTensor("t", (1,), [-2.0]).array) == 2.0


class TestRowNorms:
    def test_per_row(self):
        t = ParamTensor("t", (2, 2), [3, 4, 0, 0])
        np.testing.assert_allclose(row_norms(t.array), [5.0, 0.0])

    def test_rank1_scalar_slices(self):
        t = ParamTensor("t", (3,), [1, -2, 0])
        np.testing.assert_array_equal(row_norms(t.array), [1.0, 2.0, 0.0])

    def test_rank3_flattened_slices(self):
        t = ParamTensor("t", (2, 1, 2), [1, 1, 0, 2])
        np.testing.assert_allclose(row_norms(t.array), [math.sqrt(2.0), 2.0], rtol=1e-15)


class TestMeanAllButFirst:
    def test_row_means(self):
        t = ParamTensor("t", (2, 3), [1, 2, 3, 4, 5, 6])
        np.testing.assert_allclose(mean_all_but_first(t.array), [2.0, 5.0])

    def test_constant(self):
        t = ParamTensor("t", (3, 2), np.full(6, 4.25))
        np.testing.assert_array_equal(mean_all_but_first(t.array), [4.25, 4.25, 4.25])

    def test_rank3_hand_reduction(self):
        t = ParamTensor("t", (2, 2, 2), [1, 1, 1, 1, 0, 2, 4, 6])
        np.testing.assert_allclose(mean_all_but_first(t.array), [1.0, 3.0])

    def test_rank1_rejected(self):
        with pytest.raises(ValueError):
            mean_all_but_first(ParamTensor("t", (4,), [1, 2, 3, 4]).array)


@settings(max_examples=200, derandomize=True)
@given(tensors(max_value=1e6))
def test_row_norms_decompose_frobenius(t):
    whole = frobenius_norm(t.array) ** 2
    parts = float(np.sum(row_norms(t.array) ** 2))
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-300)


@settings(max_examples=200, derandomize=True)
@given(tensors(max_rank=3, max_value=1e3), tensors(max_rank=3, max_value=1e3))
def test_mean_all_but_first_is_linear(t1, t2):
    if t1.rank < 2:
        return
    t2 = ParamTensor(t2.name, t1.shape, np.resize(t2.values, t1.size))
    a = 3.5
    combined = ParamTensor("c", t1.shape, a * t1.values + t2.values)
    lhs = mean_all_but_first(combined.array)
    rhs = a * mean_all_but_first(t1.array) + mean_all_but_first(t2.array)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


@settings(max_examples=200, derandomize=True)
@given(tensors())
def test_row_major_round_trip(t):
    np.testing.assert_array_equal(t.array.reshape(-1), t.values)
    rebuilt = ParamTensor(t.name, t.shape, t.array.ravel())
    np.testing.assert_array_equal(rebuilt.values, t.values)
