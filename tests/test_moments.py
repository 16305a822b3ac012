import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import (
    DecayConfig,
    MomentConfig,
    MomentState,
    ParamTensor,
    adam_update,
    combined_decay,
    pnm_update,
)
from optlab.moments import SpanRuns

from oracles import combined_decay_by_slice, pnm_scalar


def scalar(x, name="p"):
    return ParamTensor(name, (1,), [x])


DECAY_CONFIGS = {
    "both": DecayConfig(),
    "stable": DecayConfig(norm_loss=False),
    "norm_loss": DecayConfig(stable=False),
    "plain": DecayConfig(norm_loss=False, stable=False),
}

# the 16-layer MLP's tensor sizes in buffer order: 15 biases of 16 and one of
# 4, 14 weights of 16 x 16 and one of 4 x 16, the 16 x 20 input weight
DEEP_MLP_SIZES = [16] * 15 + [4] + [256] * 14 + [64] + [320]


def spans_of(sizes):
    ends = np.cumsum(sizes).tolist()
    return [(hi - n, hi) for n, hi in zip(sizes, ends)]


def decay_layout(name, rng):
    """theta, v_hat and spans of a layout whose tensors form runs."""
    if name == "deep_mlp":
        sizes = DEEP_MLP_SIZES
    else:
        sizes = [3, 5, 5, 5, 5, 2]
    spans = spans_of(sizes)
    theta = rng.standard_normal(spans[-1][1]) * 10.0 ** rng.uniform(-3, 3)
    v_hat = 10.0 ** rng.uniform(-12, 1, size=theta.size)
    if name == "zeros_in_run":
        (lo1, hi1), (lo2, hi2) = spans[2], spans[3]
        theta[lo1:hi1] = 0.0
        theta[lo2:hi2] = -0.0
    elif name == "zero_vhat":
        lo, hi = spans[1]
        v_hat[lo:hi] = 0.0  # its sqrt(mean) is below the floor
    return theta, v_hat, spans


class TestPnmUpdate:
    def test_zero_gradient_zero_state(self):
        u, v_hat, state = pnm_update(MomentState.zeros(1), scalar(0.0).values, 1, MomentConfig())
        assert u[0] == 0.0
        assert v_hat[0] == 0.0
        assert np.all(state.v_max == 0.0)

    def test_first_step_worked_example(self):
        # g=1 at t=1 with defaults: m=0.19, m_hat=3.61, v_hat=1.0,
        # u = 3.61 / (sqrt(4.42) * (1 + 1e-8)) ~ 1.7171
        u, v_hat, _ = pnm_update(MomentState.zeros(1), scalar(1.0).values, 1, MomentConfig())
        expected = 3.61 / (math.sqrt(4.42) * (1.0 + 1e-8))
        assert v_hat[0] == pytest.approx(1.0, rel=1e-12)
        assert u[0] == pytest.approx(expected, rel=1e-12)
        assert u[0] == pytest.approx(1.7171, abs=1e-4)

    def test_beta0_zero_reduces_normalizer_to_one(self):
        cfg = MomentConfig(beta0=0.0)
        u, v_hat, _ = pnm_update(MomentState.zeros(1), scalar(1.0).values, 1, cfg)
        m = (1.0 - cfg.beta1**2) * 1.0
        m_hat = m / (1.0 - cfg.beta1)
        assert u[0] == pytest.approx(
            m_hat / (math.sqrt(v_hat[0]) + cfg.eps), rel=1e-15
        )

    def test_matches_scalar_oracle_over_trajectory(self):
        rng = np.random.default_rng(7)
        grads = rng.uniform(-5, 5, size=50)
        us, v_hats = pnm_scalar(list(grads))
        state = MomentState.zeros(1)
        for t, g in enumerate(grads, start=1):
            u, v_hat, state = pnm_update(state, scalar(float(g)).values, t, MomentConfig())
            assert u[0] == pytest.approx(us[t - 1], rel=1e-12)
            assert v_hat[0] == pytest.approx(v_hats[t - 1], rel=1e-12)

    def test_beta0_one_matches_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(11)
        grads = rng.uniform(-5, 5, size=8)
        us, v_hats = pnm_scalar(list(grads), beta0=1.0)
        state, cfg = MomentState.zeros(1), MomentConfig(beta0=1.0)
        for t, g in enumerate(grads, start=1):
            u, v_hat, state = pnm_update(state, scalar(float(g)).values, t, cfg)
            assert (u[0], v_hat[0]) == (us[t - 1], v_hats[t - 1])

    def test_buffer_rotation(self):
        state = MomentState.zeros(1)
        cfg = MomentConfig()
        _, _, s1 = pnm_update(state, scalar(1.0).values, 1, cfg)
        _, _, s2 = pnm_update(s1, scalar(2.0).values, 2, cfg)
        # two interleaved chains: m2 is built from m0 = 0, not from m1
        assert s1.m_prev[0] == pytest.approx(0.19, rel=1e-12)
        assert s2.m_prev2[0] == s1.m_prev[0]
        assert s2.m_prev[0] == pytest.approx((1 - 0.81) * 2.0, rel=1e-12)

    def test_invalid_step_index(self):
        with pytest.raises(ValueError):
            pnm_update(MomentState.zeros(1), scalar(1.0).values, 0, MomentConfig())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pnm_update(MomentState.zeros(2), scalar(1.0).values, 1, MomentConfig())

    @settings(max_examples=50, derandomize=True)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=40))
    def test_v_max_monotone(self, grads):
        state = MomentState.zeros(1)
        prev_max = 0.0
        for t, g in enumerate(grads, start=1):
            _, _, state = pnm_update(state, scalar(g).values, t, MomentConfig())
            assert state.v_max[0] >= prev_max
            prev_max = state.v_max[0]

    def test_constant_gradient_converges_to_gradient(self):
        c = 3.25
        cfg = MomentConfig()
        state = MomentState.zeros(1)
        m_hat = None
        for t in range(1, 10001):
            u, v_hat, state = pnm_update(state, scalar(c).values, t, cfg)
            m_hat = (
                (1 + cfg.beta0) * state.m_prev[0] - cfg.beta0 * state.m_prev2[0]
            ) / (1 - cfg.beta1**t)
        assert state.m_prev[0] == pytest.approx(c, abs=1e-6)
        assert m_hat == pytest.approx(c, abs=1e-6)


class TestAdamUpdate:
    def test_first_step(self):
        u, v_hat, _ = adam_update(MomentState.zeros(1), scalar(1.0).values, 1, MomentConfig())
        assert v_hat[0] == pytest.approx(1.0, rel=1e-12)
        assert u[0] == pytest.approx(1.0 / (1.0 + 1e-8), rel=1e-15)

    def test_v_max_untouched(self):
        state = MomentState.zeros(1)
        _, _, state = adam_update(state, scalar(2.0).values, 1, MomentConfig())
        assert state.v_max[0] == 0.0

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError, match="^step index must be >= 1, got 0$"):
            adam_update(MomentState.zeros(1), np.ones(1), 0, MomentConfig())


class TestMomentConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"beta0": 1.5}, {"beta1": -0.1}, {"eps": 0.0}, {"beta2": 1.0}]
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            MomentConfig(**kwargs)


class TestCombinedDecay:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^shape mismatch: theta \(3,\) vs v_hat \(2,\)$"):
            combined_decay(np.ones(3), np.ones(2), 1.0, DecayConfig())

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="^eta_t must be >= 0, got -1.0$"):
            combined_decay(np.ones(3), np.ones(3), -1.0, DecayConfig())

    def test_unit_norm_vanishes(self):
        theta = scalar(1.0)
        v_hat = scalar(0.5)
        d = combined_decay(theta.values, v_hat.values, 1.0, DecayConfig())
        assert d[0] == 0.0

    def test_direct_evaluation(self):
        # v_hat = 1, |theta| = 2, eta = 1, lambda = 1e-4 -> d = 5e-5 * theta
        theta = ParamTensor("p", (2,), [2.0, 0.0])
        v_hat = ParamTensor("p", (2,), [1.0, 1.0])
        d = combined_decay(theta.values, v_hat.values, 1.0, DecayConfig())
        np.testing.assert_allclose(d, [1e-4, 0.0], rtol=1e-12)

    def test_zero_theta(self):
        theta = ParamTensor("p", (3,), np.zeros(3))
        v_hat = ParamTensor("p", (3,), np.ones(3))
        d = combined_decay(theta.values, v_hat.values, 1.0, DecayConfig())
        np.testing.assert_array_equal(d, np.zeros(3))

    def test_both_flags_off_is_plain_decay(self):
        theta = ParamTensor("p", (2,), [3.0, -1.0])
        v_hat = ParamTensor("p", (2,), [0.25, 0.5])
        cfg = DecayConfig(weight_decay=1e-4, norm_loss=False, stable=False)
        d = combined_decay(theta.values, v_hat.values, 2.0, cfg)
        np.testing.assert_allclose(d, 2.0 * 1e-4 * theta.values, rtol=1e-15)

    def test_norm_loss_uses_the_whole_tensor_norm(self):
        # the values of a 2 x 2 tensor with row norms 5 and 1: per-row norms would
        # leave the second row undecayed, the whole-tensor norm is sqrt(26)
        theta = np.array([3.0, 4.0, 0.0, 1.0])
        cfg = DecayConfig(weight_decay=0.1, stable=False)
        d = combined_decay(theta, np.ones(4), 1.0, cfg, spans=[(0, 4)])
        np.testing.assert_allclose(d, 0.1 * (1.0 - 1.0 / math.sqrt(26.0)) * theta, rtol=1e-15)
        assert d[3] != 0.0

    def test_stable_reduction_when_vhat_is_one(self):
        theta = ParamTensor("p", (3,), [1.0, 2.0, 3.0])
        v_hat = ParamTensor("p", (3,), np.ones(3))
        on = combined_decay(theta.values, v_hat.values, 1.5, DecayConfig(stable=True))
        off = combined_decay(theta.values, v_hat.values, 1.5, DecayConfig(stable=False))
        np.testing.assert_allclose(on, off, rtol=1e-15)

    def test_negative_zero_theta_decays_to_positive_zero(self):
        theta = np.array([-0.0, 0.0, -0.0])
        for spans in (None, [(0, 1), (1, 3)]):
            d = combined_decay(theta, np.ones(3), 1.0, DecayConfig(), spans=spans)
            assert d.tolist() == [0.0, 0.0, 0.0] and not np.signbit(d).any()

    @pytest.mark.parametrize("cfg", DECAY_CONFIGS.values(), ids=DECAY_CONFIGS.keys())
    def test_spans_give_each_slice_its_own_bits(self, cfg):
        rng = np.random.default_rng(3)
        spans = [(0, 4), (4, 5), (5, 8), (8, 20)]
        theta = rng.standard_normal(20)
        theta[5:8] = 0.0  # a zero tensor among others
        v_hat = 10.0 ** rng.uniform(-9, 1, size=20)
        d = combined_decay(theta, v_hat, 0.7, cfg, spans=spans)
        for lo, hi in spans:
            alone = combined_decay(theta[lo:hi], v_hat[lo:hi], 0.7, cfg)
            assert d[lo:hi].tobytes() == alone.tobytes()

    def test_deep_mlp_layout_forms_five_runs(self):
        runs = SpanRuns.of(spans_of(DEEP_MLP_SIZES)).runs
        assert runs == ((0, 15, 16), (240, 1, 4), (244, 14, 256), (3828, 1, 64), (3892, 1, 320))

    @pytest.mark.parametrize("cfg", DECAY_CONFIGS.values(), ids=DECAY_CONFIGS.keys())
    @pytest.mark.parametrize("layout", ["deep_mlp", "zeros_in_run", "zero_vhat"])
    def test_runs_match_the_per_slice_oracle(self, cfg, layout):
        rng = np.random.default_rng(11)
        for eta_t in (0.7, 3e-3, 1e-9):
            theta, v_hat, spans = decay_layout(layout, rng)
            expected = combined_decay_by_slice(theta, v_hat, eta_t, cfg, spans).tobytes()
            for given in (spans, SpanRuns.of(spans)):
                d = combined_decay(theta, v_hat, eta_t, cfg, spans=given)
                assert d.tobytes() == expected
            if layout == "zeros_in_run" and cfg.norm_loss:
                lo, hi = spans[2][0], spans[3][1]
                assert d[lo:hi].tolist() == [0.0] * (hi - lo) and not np.signbit(d[lo:hi]).any()

    @pytest.mark.parametrize("cfg", DECAY_CONFIGS.values(), ids=DECAY_CONFIGS.keys())
    def test_one_tensor_matches_the_per_slice_oracle(self, cfg):
        rng = np.random.default_rng(12)
        for theta in (rng.standard_normal(7), np.array([0.0, -0.0]), np.array([-3.0])):
            v_hat = 10.0 ** rng.uniform(-12, 1, size=theta.size)
            for v in (v_hat, np.zeros(theta.size)):
                expected = combined_decay_by_slice(theta, v, 0.3, cfg, [(0, theta.size)])
                assert combined_decay(theta, v, 0.3, cfg).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cfg", DECAY_CONFIGS.values(), ids=DECAY_CONFIGS.keys())
    def test_norm_past_the_float_range_decays_quietly(self, cfg):
        # the first tensor's squared norm overflows to inf: factor 1 - 1/inf = 1
        theta = np.array([1e160, -3e160, 2.0, -1e-160, 0.5])
        v_hat = np.array([1e-3, 4.0, 0.25, 1e-9, 7.0])
        for spans in (None, [(0, 2), (2, 4), (4, 5)]):
            with np.errstate(over="ignore"):
                expected = combined_decay_by_slice(
                    theta, v_hat, 0.5, cfg, spans or [(0, theta.size)]
                )
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                d = combined_decay(theta, v_hat, 0.5, cfg, spans=spans)
            assert d.tobytes() == expected.tobytes()
        if cfg.norm_loss:
            plain = DecayConfig(norm_loss=False, stable=cfg.stable)
            assert d[:2].tobytes() == combined_decay(theta[:2], v_hat[:2], 0.5, plain).tobytes()

    @pytest.mark.parametrize("spans", [[(0, 2), (3, 4)], [(0, 2)], [(2, 4), (0, 2)]])
    def test_spans_must_tile_the_buffer(self, spans):
        with pytest.raises(ValueError, match="spans"):
            combined_decay(np.ones(4), np.ones(4), 1.0, DecayConfig(), spans=spans)

    def test_zero_vhat_floor(self):
        theta = ParamTensor("p", (1,), [2.0])
        v_hat = ParamTensor("p", (1,), [0.0])
        d = combined_decay(theta.values, v_hat.values, 1.0, DecayConfig(norm_loss=False))
        assert d[0] == pytest.approx(1e-4 / 1e-8 * 2.0, rel=1e-12)

    @settings(max_examples=200, derandomize=True)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.floats(0.01, 100.0),
        st.floats(1e-9, 2.0),  # small enough eta_t underflows d to 0 exactly
    )
    def test_norm_loss_pulls_toward_unit_norm(self, values, c, eta_t):
        theta = ParamTensor("p", (len(values),), values)
        norm = float(np.linalg.norm(theta.values))
        if norm == 0.0 or abs(norm - 1.0) < 1e-9:
            return
        v_hat = theta.with_values(np.full(theta.size, c))
        d = combined_decay(theta.values, v_hat.values, eta_t, DecayConfig())
        inner = float(np.dot(d, theta.values))
        assert math.copysign(1.0, inner) == math.copysign(1.0, norm - 1.0)
        # magnitude: |d| = eta_t * lambda / sqrt(c) * | |theta| - 1 |
        expected = eta_t * 1e-4 / math.sqrt(c) * abs(norm - 1.0)
        assert float(np.linalg.norm(d)) == pytest.approx(expected, rel=1e-12)
