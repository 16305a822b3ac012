import numpy as np
import pytest
from hypothesis import given, settings

from optlab import (
    ClipConfig,
    ParamTensor,
    gradient_centralize,
    mean_all_but_first,
    row_norms,
)

from conftest import adaptive_gradient_clip, tensors
from oracles import frobenius_norm, global_threshold_clip


class TestClipConfig:
    def test_defaults(self):
        cfg = ClipConfig()
        assert cfg.tau == 1e-2
        assert cfg.eps == 1e-3

    @pytest.mark.parametrize("kwargs", [{"tau": 0.0}, {"tau": -1.0}, {"eps": 0.0}])
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            ClipConfig(**kwargs)


class TestAdaptiveGradientClip:
    def test_below_threshold_unchanged(self):
        g = ParamTensor("g", (1,), [1e-4])
        theta = ParamTensor("g", (1,), [10.0])
        out = adaptive_gradient_clip(g.array, theta.array)
        np.testing.assert_array_equal(out, g.values)

    def test_zero_parameter_unit_uses_eps(self):
        # norm ratio 1/max(0, 1e-3) = 1000 > tau, so the unit is rescaled
        # to norm tau * eps = 1e-5
        g = ParamTensor("g", (1, 2), [0.6, 0.8])
        theta = ParamTensor("g", (1, 2), [0.0, 0.0])
        out = adaptive_gradient_clip(g.array, theta.array)
        assert frobenius_norm(out) == pytest.approx(1e-5, rel=1e-12)
        np.testing.assert_allclose(out.ravel(), [0.6e-5, 0.8e-5], rtol=1e-12)

    def test_ratio_above_threshold_scales_by_tau_over_ratio(self):
        # |g|=1, |theta|=10: ratio 0.1 > tau=1e-2, factor tau*10/1 = 0.1
        g = ParamTensor("g", (1, 2), [0.6, 0.8])
        theta = ParamTensor("g", (1, 2), [6.0, 8.0])
        out = adaptive_gradient_clip(g.array, theta.array)
        np.testing.assert_allclose(out.ravel(), [0.06, 0.08], rtol=1e-12)

    def test_mixed_units(self):
        g = ParamTensor("g", (2, 2), [0.6, 0.8, 1e-6, 0.0])
        theta = ParamTensor("g", (2, 2), [6.0, 8.0, 10.0, 0.0])
        out = adaptive_gradient_clip(g.array, theta.array)
        np.testing.assert_allclose(out[0], [0.06, 0.08], rtol=1e-12)
        np.testing.assert_array_equal(out[1], g.array[1])

    def test_shape_mismatch_rejected(self):
        g = ParamTensor("g", (2,), [1.0, 2.0])
        theta = ParamTensor("g", (2, 1), [1.0, 2.0])
        with pytest.raises(ValueError):
            adaptive_gradient_clip(g.array, theta.array)

    def test_rank1_units_are_elements(self):
        # each element is its own unit: the first (ratio 1) is clipped to tau, the
        # second (ratio 1e-4) kept; one whole-vector unit (ratio 1/sqrt(2)) would
        # scale both
        g = ParamTensor("g", (2,), [1.0, 1e-4])
        theta = ParamTensor("g", (2,), [1.0, 1.0])
        out = adaptive_gradient_clip(g.array, theta.array, ClipConfig(tau=1e-2))
        assert out.tolist() == [1e-2, 1e-4]


class TestGlobalThresholdClip:
    def test_below_threshold_unchanged(self):
        g = ParamTensor("g", (2,), [0.3, 0.4])
        out = global_threshold_clip(g.array, 1.0)
        np.testing.assert_array_equal(out, g.values)

    def test_twice_threshold_halved(self):
        g = ParamTensor("g", (2,), [0.6, 0.8])
        out = global_threshold_clip(g.array, 0.5)
        np.testing.assert_allclose(out, [0.3, 0.4], rtol=1e-12)

    def test_zero_tensor(self):
        g = ParamTensor("g", (3,), np.zeros(3))
        out = global_threshold_clip(g.array, 1e-2)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_agc_with_uniform_limit_matches_global_clip_on_one_unit(self):
        # On a single-unit tensor with |theta| = 1, the unit-wise rule
        # degenerates to the whole-tensor threshold rule with tau.
        g = ParamTensor("g", (1, 3), [3.0, 0.0, 4.0])
        theta = ParamTensor("g", (1, 3), [1.0, 0.0, 0.0])
        unit_wise = adaptive_gradient_clip(g.array, theta.array, ClipConfig(tau=2.0, eps=1e-9))
        whole = global_threshold_clip(g.array, 2.0)
        np.testing.assert_allclose(unit_wise, whole, rtol=1e-14)


class TestGradientCentralize:
    def test_rank1_unchanged(self):
        g = ParamTensor("g", (3,), [1.0, 2.0, 3.0])
        out = gradient_centralize(g.array)
        np.testing.assert_array_equal(out, g.values)

    def test_constant_tensor_vanishes(self):
        g = ParamTensor("g", (4, 4), np.full(16, 2.5))
        out = gradient_centralize(g.array)
        np.testing.assert_array_equal(out.ravel(), np.zeros(16))

    def test_per_slice_means_subtracted(self):
        g = ParamTensor("g", (2, 3), [1, 2, 3, 4, 5, 6])
        out = gradient_centralize(g.array)
        np.testing.assert_allclose(out.ravel(), [-1, 0, 1, -1, 0, 1], atol=1e-15)


# -- randomized invariants -----------------------------------------------------


@settings(max_examples=300, derandomize=True)
@given(tensors("g", max_value=1e4), tensors("g", max_value=1e4))
def test_agc_post_ratio_bound_and_direction(g, theta):
    theta = ParamTensor("g", g.shape, np.resize(theta.values, g.size))
    cfg = ClipConfig()
    out = adaptive_gradient_clip(g.array, theta.array, cfg)

    limits = np.maximum(row_norms(theta.array), cfg.eps)
    assert np.all(row_norms(out) / limits <= cfg.tau * (1.0 + 1e-12) + 1e-300)

    # direction preserved on every nonzero unit
    g_rows = g.array.reshape(g.shape[0], -1) if g.rank > 1 else g.values[:, None]
    out_rows = out.reshape(out.shape[0], -1) if out.ndim > 1 else out[:, None]
    for row, row_out in zip(g_rows, out_rows):
        n1, n2 = np.linalg.norm(row), np.linalg.norm(row_out)
        if n1 > 0 and n2 > 0:
            cos = float(np.dot(row, row_out) / (n1 * n2))
            assert cos == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=300, derandomize=True)
@given(tensors("g", max_value=1e4), tensors("g", max_value=1e4))
def test_agc_idempotent(g, theta):
    theta = ParamTensor("g", g.shape, np.resize(theta.values, g.size))
    once = adaptive_gradient_clip(g.array, theta.array)
    twice = adaptive_gradient_clip(once, theta.array)
    np.testing.assert_allclose(twice, once, rtol=1e-15, atol=1e-300)


@settings(max_examples=300, derandomize=True)
@given(tensors("g", max_value=1e6))
def test_centralize_zero_mean_and_idempotent(g):
    out = gradient_centralize(g.array)
    if g.rank >= 2:
        np.testing.assert_allclose(
            mean_all_but_first(out),
            np.zeros(g.shape[0]),
            atol=1e-12 * max(1.0, float(np.max(np.abs(g.values)))),
        )
    again = gradient_centralize(out)
    np.testing.assert_allclose(again, out, atol=1e-15 * max(1.0, float(np.max(np.abs(g.values)))))


@settings(max_examples=200, derandomize=True)
@given(tensors("g", max_rank=3, max_value=1e3), tensors("g", max_rank=3, max_value=1e3))
def test_centralize_linear(g1, g2):
    g2 = ParamTensor("g", g1.shape, np.resize(g2.values, g1.size))
    a = -2.25
    combined = ParamTensor("g", g1.shape, a * g1.values + g2.values)
    lhs = gradient_centralize(combined.array)
    rhs = a * gradient_centralize(g1.array) + gradient_centralize(g2.array)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)
