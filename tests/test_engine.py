import dataclasses
import itertools
import json
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optlab import (
    ClipConfig,
    DecayConfig,
    MomentConfig,
    MomentState,
    NonFiniteError,
    Optimizer,
    ParamTensor,
    Ranger21Config,
    ScheduleSpec,
    Toggles,
    adam_update,
    combined_decay,
    default_config,
    gradient_centralize,
    lookahead_sync,
    lr_factor,
    pnm_update,
)

from optlab import checkpoint, engine, fields
from optlab.benchmark import parse_config
from optlab.engine import PRESETS
from optlab.problems import BlobsMLPProblem, RosenbrockProblem, philox

from conftest import adaptive_gradient_clip
from oracles import adamw_scalar_trajectory, ranger21_scalar_trajectory, state_as_v3, v4_as_v3

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
FIXTURES = Path(__file__).parent / "fixtures"


def edited(data, *mutations):
    """Checkpoint bytes ``data`` after each ``mutate(doc, section)`` of ``mutations``
    edits the document and the raw section, a bytearray."""
    line, section = data.split(b"\n", 1)
    doc, section = json.loads(line), bytearray(section)
    for mutate in mutations:
        mutate(doc, section)
    return json.dumps(doc).encode("ascii") + b"\n" + section


def scalar(x, name="x"):
    return ParamTensor(name, (1,), [x])


def scalar_opt_adamw(theta0, eta=1e-3, weight_decay=1e-4):
    return Optimizer.adamw([scalar(theta0)], eta=eta, weight_decay=weight_decay)


class TestAdamwStep:
    def test_first_step_worked_example(self):
        opt = scalar_opt_adamw(1.0)
        (p,) = opt.step([scalar(1.0)])
        expected = adamw_scalar_trajectory(1.0, [1.0])[0]
        assert p.values[0] == pytest.approx(expected, rel=1e-15)
        assert p.values[0] == pytest.approx(0.9989999, abs=1e-7)

    def test_zero_everything_is_fixed_point(self):
        opt = scalar_opt_adamw(0.0)
        (p,) = opt.step([scalar(0.0)])
        assert p.values[0] == 0.0

    def test_zero_gradient_moves_by_momentum_only(self):
        opt = scalar_opt_adamw(1.0, weight_decay=0.0)
        opt.step([scalar(1.0)])
        (p,) = opt.step([scalar(0.0)])
        expected = adamw_scalar_trajectory(1.0, [1.0, 0.0], weight_decay=0.0)[1]
        assert p.values[0] == pytest.approx(expected, rel=1e-14)

    def test_oracle_trajectory(self):
        rng = np.random.default_rng(11)
        grads = rng.uniform(-3, 3, size=100)
        opt = scalar_opt_adamw(0.5)
        for g in grads:
            opt.step([scalar(float(g))])
        expected = adamw_scalar_trajectory(0.5, list(grads))[-1]
        assert opt.params[0].values[0] == pytest.approx(expected, rel=1e-12)

    def test_gradient_name_mismatch_rejected(self):
        opt = scalar_opt_adamw(1.0)
        with pytest.raises(ValueError):
            opt.step([scalar(1.0, name="y")])


def toggles_off_config(eta, kwargs=None):
    return default_config(
        eta,
        t_max=1,
        toggles=Toggles.none(),
        **(kwargs or {}),
    )


class TestPresetEquivalence:
    def test_all_toggles_off_matches_adamw(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            theta0 = float(rng.uniform(-2, 2))
            grads = rng.uniform(-3, 3, size=100)

            reduced = Optimizer(
                [scalar(theta0)],
                default_config(1e-3, t_max=200, toggles=Toggles.none()),
                preset="ranger21",
            )
            reference = scalar_opt_adamw(theta0)
            for g in grads:
                reduced.step([scalar(float(g))])
                reference.step([scalar(float(g))])
                a = reduced.params[0].values[0]
                b = reference.params[0].values[0]
                assert a == pytest.approx(b, rel=1e-12)


class TestRanger21Step:
    def test_first_step_worked_example(self):
        # eta = 3e-3 at t_max = 10000: eta_1 = 5e-4 * eta, unit-norm
        # parameter means zero decay, theta' ~ 0.99999742
        opt = Optimizer.ranger21([scalar(1.0)], eta=3e-3, t_max=10000)
        (p,) = opt.step([scalar(1.0)])
        expected = ranger21_scalar_trajectory(
            1.0, [1.0], eta=3e-3, t_max=10000, t_warmup=2200, t_warmdown=2800
        )[0]
        assert p.values[0] == pytest.approx(expected, rel=1e-14)
        assert p.values[0] == pytest.approx(0.99999742, abs=1e-8)

    def test_matches_scalar_oracle_over_trajectory(self):
        rng = np.random.default_rng(3)
        grads = [float(g) for g in rng.uniform(-4, 4, size=50)]
        opt = Optimizer.ranger21([scalar(0.7)], eta=3e-3, t_max=50)
        for g in grads:
            opt.step([scalar(g)])
        sched = opt.config.schedule
        expected = ranger21_scalar_trajectory(
            0.7, grads, eta=3e-3, t_max=50,
            t_warmup=sched.t_warmup, t_warmdown=sched.t_warmdown,
        )
        assert opt.params[0].values[0] == pytest.approx(expected[-1], rel=1e-12)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            opt = Optimizer.ranger21(
                [ParamTensor("w", (3, 2), rng.standard_normal(6))], eta=3e-3, t_max=20
            )
            for _ in range(20):
                opt.step([ParamTensor("w", (3, 2), rng.standard_normal(6))])
            return opt.params[0].values

        np.testing.assert_array_equal(run(), run())

    def test_step_out_of_range(self):
        opt = Optimizer.ranger21([scalar(1.0)], eta=1e-3, t_max=3)
        for _ in range(3):
            opt.step([scalar(1.0)])
        with pytest.raises(ValueError):
            opt.step([scalar(1.0)])

    def test_zero_state_zero_gradient_changes_theta_only_via_decay(self):
        theta = ParamTensor("w", (2,), [3.0, 4.0])
        opt = Optimizer.ranger21([theta], eta=1e-2, t_max=100)
        (p,) = opt.step([ParamTensor("w", (2,), [0.0, 0.0])])
        # u = 0, so the whole displacement is the decay term
        d = theta.values - p.values
        assert float(np.dot(d, theta.values)) > 0  # |theta|=5 shrinks toward 1
        np.testing.assert_allclose(
            d / np.linalg.norm(d), theta.values / 5.0, rtol=1e-12
        )

    def test_unit_norm_zero_gradient_is_fixed_point(self):
        theta = ParamTensor("w", (2,), [0.6, 0.8])
        opt = Optimizer.ranger21([theta], eta=1e-2, t_max=100)
        (p,) = opt.step([ParamTensor("w", (2,), [0.0, 0.0])])
        np.testing.assert_array_equal(p.values, theta.values)


class TestLookahead:
    def test_interpolation_example(self):
        new_params, new_slow = lookahead_sync(
            scalar(1.0).values, np.array([0.0]), t=5, k=5, beta_la=0.5
        )
        assert new_params[0] == 0.5
        assert new_slow[0] == 0.5

    def test_beta_zero_endpoint(self):
        new_params, new_slow = lookahead_sync(
            scalar(1.0).values, np.array([0.25]), t=5, k=5, beta_la=0.0
        )
        assert new_params[0] == 1.0
        assert new_slow[0] == 1.0

    def test_non_multiple_is_noop(self):
        new_params, new_slow = lookahead_sync(
            scalar(1.0).values, np.array([0.0]), t=6, k=5, beta_la=0.5
        )
        assert new_params[0] == 1.0
        assert new_slow[0] == 0.0

    def test_flat_buffers_interpolate_elementwise(self):
        fast, slow = np.array([1.0, -2.0, 4.0]), np.array([0.0, 2.0, 0.5])
        new_params, new_slow = lookahead_sync(fast, slow, t=10, k=5, beta_la=0.25)
        np.testing.assert_array_equal(new_slow, 0.25 * slow + 0.75 * fast)
        assert new_params is new_slow

    def test_default_sync_replaces_theta_and_leaves_the_moments(self):
        # by default k = 5 and alpha = 0.5: the sync at step 5 sets theta to
        # 0.5 * slow + 0.5 * fast, and every moment slot is the one the step made
        rng = np.random.default_rng(11)
        params = [
            ParamTensor("w", (3, 2), rng.standard_normal(6)),
            ParamTensor("b", (3,), rng.standard_normal(3)),
        ]
        grads = [[p.with_values(rng.standard_normal(p.size)) for p in params] for _ in range(5)]
        synced = Optimizer.ranger21(params, eta=3e-3, t_max=20)
        unsynced = Optimizer.ranger21(
            params, eta=3e-3, t_max=20, toggles=dataclasses.replace(Toggles(), lookahead=False)
        )
        assert (synced.config.k_lookahead, synced.config.beta_lookahead) == (5, 0.5)
        slow = synced.state.flat_slow.copy()
        for t, gs in enumerate(grads, start=1):
            synced.step(gs)
            unsynced.step(gs)
            fast = unsynced.state.flat_theta
            theta = 0.5 * slow + (1.0 - 0.5) * fast if t == 5 else fast
            assert synced.state.flat_theta.tobytes() == theta.tobytes()
        for f in dataclasses.fields(MomentState):
            kept, made = (getattr(opt.state.flat_moments, f.name) for opt in (synced, unsynced))
            assert kept.tobytes() == made.tobytes()

    def test_disabled_lookahead_independent_of_k_and_beta(self):
        rng = np.random.default_rng(5)
        grads = [float(g) for g in rng.uniform(-2, 2, size=30)]

        def run(k, beta_la):
            toggles = dataclasses.replace(Toggles(), lookahead=False)
            opt = Optimizer.ranger21(
                [scalar(1.3)], eta=3e-3, t_max=30,
                k_lookahead=k, beta_lookahead=beta_la, toggles=toggles,
            )
            for g in grads:
                opt.step([scalar(g)])
            return opt.params[0].values[0]

        results = {run(k, b) for k, b in [(2, 0.1), (5, 0.5), (7, 0.9), (30, 0.0)]}
        assert len(results) == 1

    def test_enabled_lookahead_depends_on_k(self):
        rng = np.random.default_rng(5)
        grads = [float(g) for g in rng.uniform(-2, 2, size=30)]

        def run(k):
            opt = Optimizer.ranger21([scalar(1.3)], eta=3e-3, t_max=30, k_lookahead=k)
            for g in grads:
                opt.step([scalar(g)])
            return opt.params[0].values[0]

        assert run(2) != run(30)


def one_toggle(**kwargs):
    return dataclasses.replace(Toggles.none(), **kwargs)


class TestComponentIsolation:
    """Each single enabled component changes the step only through its
    documented formula, reconstructed here from the logged intermediates."""

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(17)
        params = [
            ParamTensor("w", (4, 3), rng.standard_normal(12)),
            ParamTensor("b", (4,), rng.standard_normal(4)),
        ]
        grads = [
            [
                ParamTensor("w", (4, 3), 3.0 * rng.standard_normal(12)),
                ParamTensor("b", (4,), 3.0 * rng.standard_normal(4)),
            ]
            for _ in range(8)
        ]
        return params, grads

    @pytest.mark.parametrize(
        "toggles",
        [
            Toggles.none(),
            one_toggle(agc=True),
            one_toggle(centralization=True),
            one_toggle(pnm=True),
            one_toggle(norm_loss=True),
            one_toggle(stable_decay=True),
            one_toggle(warmup=True),
            one_toggle(warmdown=True),
        ],
        ids=lambda t: ",".join(f.name for f in dataclasses.fields(t) if getattr(t, f.name)) or "none",
    )
    def test_step_reconstruction_from_intermediates(self, problem, toggles):
        params, grads = problem
        opt = Optimizer(
            params,
            default_config(3e-3, t_max=8, toggles=toggles),
            preset="ranger21",
        )
        sched = opt.config.schedule
        for t, g in enumerate(grads, start=1):
            before = {p.name: p.values for p in opt.params}
            diags = []
            opt.step(g, observer=diags.append)
            diag = diags[0]

            expected_eta = sched.eta * lr_factor(
                t,
                sched,
                opt.config.moments.beta2,
                warmup=toggles.warmup,
                warmdown=toggles.warmdown,
            )
            assert diag.eta_t == expected_eta
            for p, td in zip(opt.params, diag.tensors):
                reconstructed = before[p.name] - diag.eta_t * td.update - td.decay
                np.testing.assert_allclose(p.values, reconstructed, rtol=1e-15, atol=0)

    def test_agc_only_feeds_clipped_gradient_to_plain_moments(self, problem):
        params, grads = problem
        opt = Optimizer(
            params,
            default_config(3e-3, t_max=8, toggles=one_toggle(agc=True)),
            preset="ranger21",
        )
        shadow = {p.name: MomentState.zeros(p.size) for p in params}
        for t, gs in enumerate(grads, start=1):
            prev_params = list(opt.params)
            diags = []
            opt.step(gs, observer=diags.append)
            for p, g, td in zip(prev_params, gs, diags[0].tensors):
                clipped = adaptive_gradient_clip(g.array, p.array, opt.config.clip)
                u, _, shadow[p.name] = adam_update(
                    shadow[p.name], clipped.ravel(), t, opt.config.moments
                )
                np.testing.assert_allclose(td.update, u, rtol=1e-15, atol=0)

    def test_centralization_only_feeds_centered_gradient(self, problem):
        params, grads = problem
        opt = Optimizer(
            params,
            default_config(3e-3, t_max=8, toggles=one_toggle(centralization=True)),
            preset="ranger21",
        )
        shadow = {p.name: MomentState.zeros(p.size) for p in params}
        for t, gs in enumerate(grads, start=1):
            diags = []
            opt.step(gs, observer=diags.append)
            for p, g, td in zip(params, gs, diags[0].tensors):
                u, _, shadow[p.name] = adam_update(
                    shadow[p.name], gradient_centralize(g.array).ravel(), t, opt.config.moments
                )
                np.testing.assert_allclose(td.update, u, rtol=1e-15, atol=0)

    def test_centralization_runs_after_clipping(self, problem):
        params, grads = problem
        opt = Optimizer(
            params,
            default_config(3e-3, t_max=8, toggles=one_toggle(agc=True, centralization=True)),
            preset="ranger21",
        )
        shadow = {p.name: MomentState.zeros(p.size) for p in params}
        for t, gs in enumerate(grads, start=1):
            prev_params = list(opt.params)
            diags = []
            opt.step(gs, observer=diags.append)
            assert diags[0].clip_ratio > 0
            for p, g, td in zip(prev_params, gs, diags[0].tensors):
                clipped = adaptive_gradient_clip(g.array, p.array, opt.config.clip)
                u, _, shadow[p.name] = adam_update(
                    shadow[p.name], gradient_centralize(clipped).ravel(), t, opt.config.moments
                )
                np.testing.assert_allclose(td.update, u, rtol=1e-15, atol=0)

    def test_pnm_only_matches_pnm_update(self, problem):
        params, grads = problem
        opt = Optimizer(
            params,
            default_config(3e-3, t_max=8, toggles=one_toggle(pnm=True)),
            preset="ranger21",
        )
        shadow = {p.name: MomentState.zeros(p.size) for p in params}
        for t, gs in enumerate(grads, start=1):
            diags = []
            opt.step(gs, observer=diags.append)
            for p, g, td in zip(params, gs, diags[0].tensors):
                u, _, shadow[p.name] = pnm_update(shadow[p.name], g.values, t, opt.config.moments)
                np.testing.assert_allclose(td.update, u, rtol=1e-15, atol=0)

    def test_decay_toggles_match_combined_decay(self, problem):
        params, grads = problem
        for toggles in (one_toggle(norm_loss=True), one_toggle(stable_decay=True)):
            opt = Optimizer(
                params, default_config(3e-3, t_max=8, toggles=toggles), preset="ranger21"
            )
            for gs in grads:
                prev_params = list(opt.params)
                diags = []
                opt.step(gs, observer=diags.append)
                diag = diags[0]
                cfg = DecayConfig(
                    weight_decay=opt.config.weight_decay,
                    norm_loss=toggles.norm_loss,
                    stable=toggles.stable_decay,
                )
                for p, td in zip(prev_params, diag.tensors):
                    v_hat = p.with_values(np.full(p.size, td.mean_vhat))
                    d = combined_decay(p.values, v_hat.values, diag.eta_t, cfg)
                    np.testing.assert_allclose(td.decay, d, rtol=1e-12, atol=1e-300)

    def test_lookahead_only_interpolates_every_k_steps(self, problem):
        params, grads = problem
        k, beta_la = 3, 0.5
        opt = Optimizer(
            params,
            default_config(
                3e-3, t_max=8, toggles=one_toggle(lookahead=True),
                k_lookahead=k, beta_lookahead=beta_la,
            ),
            preset="ranger21",
        )
        slow = {p.name: p.values.copy() for p in params}
        for t, gs in enumerate(grads, start=1):
            before = {p.name: p.values for p in opt.params}
            diags = []
            opt.step(gs, observer=diags.append)
            diag = diags[0]
            for p, td in zip(opt.params, diag.tensors):
                fast = before[p.name] - diag.eta_t * td.update - td.decay
                if t % k == 0:
                    slow[p.name] = beta_la * slow[p.name] + (1 - beta_la) * fast
                    np.testing.assert_allclose(p.values, slow[p.name], rtol=1e-15)
                else:
                    np.testing.assert_allclose(p.values, fast, rtol=1e-15)


def overflow_case(agc, shape, grad):
    opt = Optimizer.ranger21(
        [ParamTensor("w", shape, np.linspace(0.5, 2.0, len(grad)))],
        eta=3e-3, t_max=10, toggles=Toggles(agc=agc),
    )
    return opt, lambda params: [ParamTensor("w", shape, grad)]


def rosenbrock_adamw_case(eta):
    problem = RosenbrockProblem()
    opt = Optimizer.adamw(problem.init_params(None), eta=eta)
    return opt, lambda params: problem.evaluate(params)[1]


class TestFiniteness:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=40))
    def test_state_stays_finite_on_bounded_gradients(self, flat_grads):
        opt = Optimizer.ranger21([scalar(1.5)], eta=3e-3, t_max=len(flat_grads))
        for g in flat_grads:
            opt.step([scalar(g)])
        lo, hi = opt.state.bounds["x"]
        ms = opt.state.flat_moments
        for buf in (ms.m_prev, ms.m_prev2, ms.v, ms.v_max):
            assert np.all(np.isfinite(buf[lo:hi]))
        assert np.all(np.isfinite(opt.params[0].values))
        assert np.all(np.isfinite(opt.state.flat_slow[lo:hi]))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.booleans(),
        st.lists(
            st.lists(
                st.one_of(st.floats(-10, 10), st.sampled_from([1.7e308, -1.7e308, 1e160])),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(agc=False, grad_rows=[[0.5, 0.5, 1.7e308, 1.0]])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_raising_step_leaves_no_trace(self, agc, grad_rows):
        params = [ParamTensor("a", (2,), [1.0, -0.5]), ParamTensor("b", (2,), [0.3, 2.0])]
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=10, toggles=Toggles(agc=agc))
        for row in grad_rows:
            grads = [ParamTensor("a", (2,), row[:2]), ParamTensor("b", (2,), row[2:])]
            before = opt.to_checkpoint()
            params_before, t_before = opt.params, opt.t
            try:
                opt.step(grads)
            except NonFiniteError:
                assert opt.params is params_before
                assert opt.t == t_before
                assert opt.to_checkpoint() == before
                return

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize(
        "problem",
        [
            BlobsMLPProblem(n=40, d=3, classes=2, separation=4.0, hidden=(4, 4), batch_size=8),
            RosenbrockProblem(start=(0.0, 0.0)),
        ],
        ids=["blobs_mlp", "rosenbrock_at_origin"],
    )
    @pytest.mark.filterwarnings("error")
    def test_steps_raise_no_floating_point_warning(self, preset, problem):
        # the MLP's biases and Rosenbrock's x start at zero, so the norm-loss
        # factor 1 - 1/|theta| meets |theta| = 0 at step 1
        rng = np.random.default_rng(0)
        params = problem.init_params(rng)
        assert any(not p.values.any() for p in params)
        if preset == "adamw":
            opt = Optimizer.adamw(params)
        else:
            opt = Optimizer.ranger21(params, eta=3e-3, t_max=100)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for _ in range(3):
                opt.step(problem.evaluate(opt.params, problem.sample_batch(rng))[1])

    @pytest.mark.parametrize(
        "case,raises_at",
        [
            (lambda: overflow_case(False, (2, 2), [1e308, 1e308, 0.5, -0.5]), 1),
            (lambda: overflow_case(False, (2,), [1e160, 1.0]), 1),
            (lambda: overflow_case(True, (2,), [1e160, 1.0]), None),
            (lambda: overflow_case(False, (2,), [1e150, 1.0]), None),
            (lambda: rosenbrock_adamw_case(1e30), 3),
        ],
        ids=[
            "centralize_mean_overflows",
            "g_squared_overflows",
            "agc_clips_1e160",
            "g_1e150_steps",
            "adamw_eta_1e30_rosenbrock",
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_pinned_overflow_cases(self, case, raises_at):
        # the step checks only u, v_hat and the new params, so an overflow
        # anywhere else must reach one of them
        opt, grads_for = case()
        for t in range(1, (raises_at or 1) + 1):
            before = opt.to_checkpoint()
            grads = grads_for(opt.params)
            if t != raises_at:
                opt.step(grads)
                continue
            with pytest.raises(NonFiniteError):
                opt.step(grads)
            assert opt.to_checkpoint() == before


class TestConfigValidation:
    def test_bad_lookahead_values_rejected(self):
        sched = ScheduleSpec(eta=1e-3, t_max=10)
        with pytest.raises(ValueError):
            Ranger21Config(schedule=sched, k_lookahead=0)
        with pytest.raises(ValueError):
            Ranger21Config(schedule=sched, beta_lookahead=1.0)

    def test_nan_weight_decay_rejected(self):
        with pytest.raises(ValueError, match="^weight_decay: expected a finite number, got nan$"):
            Ranger21Config(schedule=ScheduleSpec(eta=1e-3, t_max=10), weight_decay=math.nan)
        with pytest.raises(ValueError, match="weight_decay"):
            Optimizer.adamw([scalar(1.0)], weight_decay=math.nan)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"eta": True}, "schedule.eta: expected a finite number, got True"),
            ({"eta": math.inf}, "schedule.eta: expected a finite number, got inf"),
            ({"k_lookahead": True}, "k_lookahead: expected an integer, got True"),
            ({"weight_decay": math.inf}, "weight_decay: expected a finite number, got inf"),
            ({"toggles": None}, "toggles: expected a Toggles, got None"),
        ],
        ids=["eta_true", "eta_inf", "k_lookahead_true", "weight_decay_inf", "no_toggles"],
    )
    def test_value_a_checkpoint_cannot_hold_rejected(self, overrides, message):
        # a checkpoint's config reader refuses each of these, so building refuses it too
        kwargs = {"eta": 1e-3, "t_max": 5, **overrides}
        with pytest.raises(ValueError) as excinfo:
            Optimizer.ranger21([scalar(1.0)], **kwargs)
        assert str(excinfo.value) == message

    # each part and problem checks its fields' kinds as it is built, as a reader
    # of bench configs and checkpoints checks them
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: MomentConfig(eps=True), "eps: expected a finite number, got True"),
            (lambda: Toggles(agc="no"), "agc: expected true or false, got 'no'"),
            (lambda: ScheduleSpec(eta=1.0, t_max=10, t_warmup=True),
             "t_warmup: expected an integer or null, got True"),
            (lambda: ClipConfig(tau="1"), "tau: expected a finite number, got '1'"),
            (lambda: BlobsMLPProblem(n=4, d=2, classes=2, hidden=(2.5,), batch_size=1),
             "hidden[0]: expected an integer, got 2.5"),
            (lambda: BlobsMLPProblem(n=4, d=2, classes=2, batch_size=True),
             "batch_size: expected an integer, got True"),
            (lambda: RosenbrockProblem(start=("a", 1.0)),
             "start[0]: expected a finite number, got 'a'"),
        ],
        ids=["eps", "agc", "t_warmup", "tau", "hidden", "batch_size", "start"],
    )
    def test_part_or_problem_of_a_wrong_kind_rejected_when_built(self, make, message):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert str(excinfo.value) == message

    def test_ranger21_takes_no_schedule_override(self):
        with pytest.raises(TypeError, match="schedule"):
            Optimizer.ranger21(
                [scalar(1.0)], eta=1.0, t_max=10, schedule=ScheduleSpec(eta=3e-3, t_max=100)
            )

    def test_config_is_fixed_for_the_optimizers_life(self):
        opt = Optimizer.adamw([scalar(1.0)])
        with pytest.raises(AttributeError):
            opt.config = default_config(1.0, 1)

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ValueError):
            Optimizer.adamw([scalar(1.0), scalar(2.0)])

    def test_empty_param_list_rejected(self):
        with pytest.raises(ValueError, match="at least one parameter"):
            Optimizer.adamw([])

    def test_defaults_match_preset_requirements(self):
        cfg = default_config(3e-3, t_max=1000)
        assert cfg.weight_decay == 1e-4
        assert (cfg.moments.beta0, cfg.moments.beta1, cfg.moments.beta2) == (0.9, 0.9, 0.999)
        assert cfg.beta_lookahead == 0.5
        assert cfg.moments.eps == 1e-8
        assert cfg.clip.eps == 1e-3
        assert cfg.clip.tau == 1e-2
        assert cfg.k_lookahead == 5
        assert cfg.schedule.t_warmup == 220
        assert cfg.schedule.t_warmdown == 280

    def test_adamw_is_the_default_config_with_every_toggle_off(self):
        opt = Optimizer.adamw([scalar(1.0)], eta=1e-3)
        assert opt.config == default_config(1e-3, t_max=1, toggles=Toggles.none())
        for key in ("beta0", "tau"):
            with pytest.raises(TypeError, match=key):
                Optimizer.adamw([scalar(1.0)], **{key: 0.5})

    def test_adamw_takes_the_config_fields_as_overrides(self):
        moments = MomentConfig(beta1=0.8)
        opt = Optimizer.adamw([scalar(1.0)], moments=moments)
        assert opt.config == default_config(3e-3, 1, moments=moments, toggles=Toggles.none())
        with pytest.raises(TypeError, match="toggles"):
            Optimizer.adamw([scalar(1.0)], toggles=Toggles())


class TestStateOwnsTheta:
    def make_opt(self):
        rng = np.random.default_rng(3)
        # the rank-1 "b" comes first in the buffer, so slice and registration order differ
        params = [
            ParamTensor("w", (3, 2), rng.standard_normal(6)),
            ParamTensor("b", (3,), rng.standard_normal(3)),
        ]
        grads = [[p.with_values(rng.standard_normal(p.size)) for p in params] for _ in range(5)]
        return Optimizer.ranger21(params, eta=3e-3, t_max=40), grads

    def assert_params_view_the_state(self, opt):
        flat = opt.state.flat_theta
        for p, (lo, hi) in zip(opt.params, opt.state.bounds.values()):
            assert p.values.base is flat
            assert not p.values.flags.writeable
            assert (p.values.ctypes.data, p.values.size) == (flat[lo:hi].ctypes.data, hi - lo)

    def test_params_are_views_of_flat_theta(self, tmp_path):
        opt, grads = self.make_opt()
        self.assert_params_view_the_state(opt)
        for g in grads:  # the fifth step syncs lookahead
            opt.step(g)
            self.assert_params_view_the_state(opt)
        opt.save(tmp_path / "ckpt.json")
        self.assert_params_view_the_state(Optimizer.load(tmp_path / "ckpt.json"))

    def test_step_reads_theta_from_the_state(self, monkeypatch):
        opt, grads = self.make_opt()
        seen = []

        def spy(theta, *args, **kwargs):
            seen.append(theta is opt.state.flat_theta)
            return combined_decay(theta, *args, **kwargs)

        monkeypatch.setattr(engine, "combined_decay", spy)
        for g in grads:
            opt.step(g)
        assert seen == [True] * len(grads)

    def test_params_are_read_only(self):
        opt = Optimizer.adamw([scalar(1.0)])
        with pytest.raises(AttributeError):
            opt.params = []

    def test_params_and_a_steps_result_cannot_be_resized(self, tmp_path):
        opt, grads = self.make_opt()
        initial = opt.params
        returned = opt.step(grads[0])
        assert returned is opt.params
        before = opt.to_checkpoint()
        for params in (initial, returned):
            with pytest.raises(AttributeError):
                params.pop()
            with pytest.raises(TypeError):
                params[0] = params[1]
            with pytest.raises(TypeError):
                del params[1]
        assert [p.name for p in opt.params] == ["w", "b"]
        assert opt.to_checkpoint() == before
        opt.step(grads[1])
        opt.save(tmp_path / "ckpt")
        assert Optimizer.load(tmp_path / "ckpt").to_checkpoint() == opt.to_checkpoint()


class TestStepRejects:
    def make_opt(self):
        params = [ParamTensor("w", (2, 2), [1.0, 2.0, 3.0, 4.0]), scalar(0.5, "b")]
        opt = Optimizer.ranger21(params, eta=1e-2, t_max=10)
        opt.step([p.with_values(np.ones(p.size)) for p in params])
        return opt

    @pytest.mark.parametrize(
        "grads,message",
        [
            ([ParamTensor("w", (2, 2), np.ones(4))], "2 parameters but 1 gradients"),
            (
                [ParamTensor("w", (2, 2), np.ones(4)), ParamTensor("b", (1, 1), [1.0])],
                "b: gradient shape (1, 1) does not match parameter (1,)",
            ),
        ],
        ids=["count", "shape"],
    )
    def test_misaligned_gradients_leave_the_optimizer_unchanged(self, grads, message):
        opt = self.make_opt()
        before = opt.to_checkpoint()
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            opt.step(grads)
        assert opt.to_checkpoint() == before

    def test_unknown_preset_rejected(self):
        with pytest.raises(
            ValueError, match=re.escape("unknown preset 'x', expected one of ('adamw', 'ranger21')")
        ):
            Optimizer([scalar(1.0)], default_config(1e-3, 10), preset="x")

    def test_lookahead_sync_rejects_step_zero(self):
        with pytest.raises(ValueError, match="^step index must be >= 1, got 0$"):
            lookahead_sync(np.ones(2), np.zeros(2), t=0, k=5, beta_la=0.5)

    def test_lookahead_sync_rejects_period_zero(self):
        with pytest.raises(ValueError, match="^lookahead period k must be >= 1, got 0$"):
            lookahead_sync(np.ones(2), np.zeros(2), t=1, k=0, beta_la=0.5)


class TestCheckpoint:
    def make_opt(self):
        rng = np.random.default_rng(23)
        params = [
            ParamTensor("w", (3, 2), rng.standard_normal(6)),
            ParamTensor("b", (3,), rng.standard_normal(3)),
        ]
        return Optimizer.ranger21(params, eta=3e-3, t_max=40), rng

    def grad_stream(self, rng, n):
        return [
            [
                ParamTensor("w", (3, 2), rng.standard_normal(6)),
                ParamTensor("b", (3,), rng.standard_normal(3)),
            ]
            for _ in range(n)
        ]

    def test_round_trip_resumes_bit_identically(self, tmp_path):
        opt, rng = self.make_opt()
        grads = self.grad_stream(rng, 20)
        for g in grads[:7]:
            opt.step(g)

        path = tmp_path / "ckpt.json"
        opt.save(path)
        restored = Optimizer.load(path)

        assert restored.t == opt.t
        for g in grads[7:]:
            opt.step(g)
            restored.step(g)
        for a, b in zip(opt.params, restored.params):
            np.testing.assert_array_equal(a.values, b.values)
        state, other = opt.state, restored.state
        assert other.bounds == state.bounds
        for lo, hi in state.bounds.values():
            np.testing.assert_array_equal(
                state.flat_moments.v_max[lo:hi], other.flat_moments.v_max[lo:hi]
            )
            np.testing.assert_array_equal(
                state.flat_moments.m_prev[lo:hi], other.flat_moments.m_prev[lo:hi]
            )
            np.testing.assert_array_equal(state.flat_slow[lo:hi], other.flat_slow[lo:hi])

    def test_resumed_equals_uninterrupted(self, tmp_path):
        opt, rng = self.make_opt()
        grads = self.grad_stream(rng, 15)

        whole, _ = self.make_opt()
        for g in grads:
            whole.step(g)

        for g in grads[:6]:
            opt.step(g)
        path = tmp_path / "ckpt.json"
        opt.save(path)
        resumed = Optimizer.load(path)
        for g in grads[6:]:
            resumed.step(g)
        for a, b in zip(whole.params, resumed.params):
            np.testing.assert_array_equal(a.values, b.values)

    def test_config_survives(self, tmp_path):
        opt, _ = self.make_opt()
        path = tmp_path / "ckpt.json"
        opt.save(path)
        restored = Optimizer.load(path)
        assert restored.config == opt.config
        assert restored.preset == opt.preset

    def test_v4_format_pinned(self, tmp_path):
        opt, rng = self.make_opt()
        for g in self.grad_stream(rng, 7):
            opt.step(g)
        path = tmp_path / "ckpt"
        opt.save(path)
        fixture = (FIXTURES / "checkpoint_v4.ckpt").read_bytes()
        assert path.read_bytes() == fixture
        assert v4_as_v3(fixture) == json.loads((FIXTURES / "checkpoint_v3.json").read_text())
        # buffer k of n = 9 values: flat_theta, m_prev, m_prev2, v, v_max, flat_slow; the
        # rank-1 "b" starts each buffer, "w" follows at value 3
        doc = json.loads(fixture.split(b"\n", 1)[0])
        offsets = [doc["params"][0]["values"], doc["params"][1]["values"]]
        offsets += [doc["moments"][name][slot] for slot in ("m_prev", "m_prev2", "v", "v_max")
                    for name in ("w", "b")]
        offsets += [doc["slow"]["w"], doc["slow"]["b"]]
        assert offsets == [8 * (k * 9 + lo) for k in range(6) for lo in (3, 0)]

    def test_v4_fixture_loads_to_the_v3_fixture(self):
        loaded = Optimizer.load(FIXTURES / "checkpoint_v4.ckpt")
        assert loaded.to_checkpoint() == (FIXTURES / "checkpoint_v4.ckpt").read_bytes()
        assert state_as_v3(loaded) == json.loads((FIXTURES / "checkpoint_v3.json").read_text())

    @pytest.mark.parametrize("version", [2, 3])
    def test_a_v2_or_v3_file_is_refused_by_its_version(self, version):
        path = FIXTURES / f"checkpoint_v{version}.json"
        message = f"checkpoint_version: unsupported checkpoint version {version}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Optimizer.load(path)
        # the dict a v2 or v3 file holds is not a checkpoint either
        with pytest.raises(TypeError, match="^a checkpoint is bytes, got dict$"):
            Optimizer.from_checkpoint(json.loads(path.read_text()))

    def test_from_checkpoint_round_trips_bit_for_bit(self):
        opt, rng = self.make_opt()
        grads = self.grad_stream(rng, 12)
        for g in grads[:7]:
            opt.step(g)
        data = opt.to_checkpoint()
        restored = Optimizer.from_checkpoint(data)
        assert restored.to_checkpoint() == data
        assert restored.config == opt.config and restored.preset == opt.preset
        for g in grads[7:]:
            for a, b in zip(opt.step(g), restored.step(g)):
                assert a.values.tobytes() == b.values.tobytes()
        assert restored.to_checkpoint() == opt.to_checkpoint()

    def test_save_load_save_is_byte_stable_for_int_floats(self, tmp_path):
        opt = Optimizer.ranger21(
            [ParamTensor("x", (2,), [1.0, 2.0])], eta=1, t_max=10, weight_decay=0
        )
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        opt.save(first)
        Optimizer.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_loaded_state_buffers_own_their_memory(self):
        state = Optimizer.load(FIXTURES / "checkpoint_v4.ckpt").state
        moments = [getattr(state.flat_moments, f.name) for f in dataclasses.fields(MomentState)]
        for buf in (*moments, state.flat_slow):
            assert buf.dtype == np.float64 and buf.dtype.isnative
            assert buf.flags.owndata and buf.flags.writeable
            assert buf.size == 9
        # registration order, slices of the grouped layout: the rank-1 "b" first
        assert list(state.bounds.items()) == [("w", (3, 9)), ("b", (0, 3))]

    def make_large_opt(self):
        """Three tensors, 80,200 values, after one step."""
        rng = np.random.default_rng(5)
        shapes = {"w1": (200, 200), "w2": (200, 200), "b": (200,)}
        params = [ParamTensor(n, s, rng.standard_normal(math.prod(s))) for n, s in shapes.items()]
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=40)
        opt.step([p.with_values(rng.standard_normal(p.size)) for p in params])
        return opt

    def test_load_allocates_the_state_once(self):
        # the load's peak is the state the new optimizer builds and the
        # finiteness check of one buffer
        opt = self.make_large_opt()
        blob = opt.to_checkpoint()
        tracemalloc.start()
        try:
            loaded = Optimizer.from_checkpoint(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.to_checkpoint() == blob
        assert peak < 8 * opt.state.flat_slow.nbytes

    def test_v4_save_writes_the_buffers_in_place(self, tmp_path):
        opt = self.make_large_opt()
        tracemalloc.start()
        try:
            opt.save(tmp_path / "ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < opt.state.flat_slow.nbytes

    def test_v4_load_reads_the_file_once(self, tmp_path):
        # the file's bytes (six buffers) and the state the new optimizer builds
        opt = self.make_large_opt()
        opt.save(tmp_path / "ckpt")
        tracemalloc.start()
        try:
            loaded = Optimizer.load(tmp_path / "ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.to_checkpoint() == opt.to_checkpoint()
        assert peak < 13 * opt.state.flat_slow.nbytes

    def test_v4_load_keeps_nothing_of_the_file(self, tmp_path, monkeypatch):
        opt, rng = self.make_opt()
        for g in self.grad_stream(rng, 3):
            opt.step(g)
        opt.save(tmp_path / "ckpt")
        read, read_bytes = [], Path.read_bytes

        def recorded(path):
            read.append(read_bytes(path))
            return read[-1]

        monkeypatch.setattr(Path, "read_bytes", recorded)
        loaded = Optimizer.load(tmp_path / "ckpt")
        state = loaded.state
        held = [p.values for p in loaded.params] + [state.flat_theta, state.flat_slow]
        held += [getattr(state.flat_moments, f.name) for f in dataclasses.fields(MomentState)]
        (data,) = read
        raw = np.frombuffer(data, dtype=np.uint8)
        assert not any(np.may_share_memory(buf, raw) for buf in held)

    def test_a_load_checks_each_config_leaf_once(self, monkeypatch):
        blob = self.make_opt()[0].to_checkpoint()

        def leaves(config):
            for key, value in config.items():
                yield from leaves(value) if isinstance(value, dict) else [key]

        checked, seen = fields._value, []

        def counting(kind, value, where, rules):
            seen.append(where)
            return checked(kind, value, where, rules)

        monkeypatch.setattr(fields, "_value", counting)
        Optimizer.from_checkpoint(blob)
        params = [f"params[{i}].{key}" for i in range(2) for key in ("name", "shape")]
        config = json.loads(blob.split(b"\n", 1)[0])["config"]
        assert sorted(seen) == sorted([*leaves(config), *params, "t"])

    def test_v1_blob_rejected(self):
        def as_v1(blob, section):
            config = blob["config"]
            config["decay"] = {
                "weight_decay": config.pop("weight_decay"), "norm_loss": True, "stable": True
            }
            config["schedule"]["beta2"] = config["moments"]["beta2"]
            blob["checkpoint_version"] = 1

        data = edited((FIXTURES / "checkpoint_v4.ckpt").read_bytes(), as_v1)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            Optimizer.from_checkpoint(data)

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda blob: blob["slow"].pop("b"), "slow['b']"),
            (lambda blob: blob.update(t=500), "t"),
            (lambda blob: blob.update(t=-1), "t"),
            (lambda blob: blob.pop("slow"), "slow"),
            (lambda blob: blob.pop("params"), "params"),
            (lambda blob: blob.pop("config"), "config"),
            (lambda blob: blob.pop("t"), "t"),
            (lambda blob: blob["moments"]["a"].pop("v"), "moments['a'].v"),
            (lambda blob: blob["params"][0].pop("shape"), "params[0].shape"),
            (lambda blob: blob["config"]["clip"].update(extra=1.0), "config.clip"),
            (lambda blob: blob["config"]["toggles"].pop("agc"), "config.toggles.agc"),
            (lambda blob: blob.update(t=7.9), "t"),
            (lambda blob: blob.update(t="7"), "t"),
            (lambda blob: blob["config"].update(k_lookahead=2.5), "config.k_lookahead"),
            (lambda blob: blob["config"]["toggles"].update(agc="no"), "config.toggles.agc"),
            (lambda blob: blob["config"]["schedule"].update(eta=math.inf), "config.schedule.eta"),
            (lambda blob: blob["config"].update(weight_decay=math.inf), "config.weight_decay"),
            (lambda blob: blob["config"]["schedule"].update(t_warmup=22.5),
             "config.schedule.t_warmup"),
            (lambda blob: blob.update(checkpoint_version=3), "checkpoint_version"),
            (lambda blob: blob["params"][0].update(shape=[2.9]), "params[0].shape[0]"),
            (lambda blob: blob["params"][0].update(shape=[2, True]), "params[0].shape[1]"),
            # each entry is checked for type and range before the next
            (lambda blob: blob["params"][0].update(shape=[0, True]), "params[0].shape[0]"),
            # the version is the int 4, not a number or string equal to it
            (lambda blob: blob.update(checkpoint_version=4.0), "checkpoint_version"),
            (lambda blob: blob.update(checkpoint_version=True), "checkpoint_version"),
            (lambda blob: blob.update(checkpoint_version="4"), "checkpoint_version"),
            (lambda blob: blob.pop("checkpoint_version"), "checkpoint_version"),
            (lambda blob: blob.update(preset="sgd"), "preset"),
            (lambda blob: blob.pop("preset"), "preset"),
            (lambda blob: blob.update(params={"a": blob["params"][0]}), "params"),
            (lambda blob: blob.update(slow=list(blob["slow"].values())), "slow"),
            (lambda blob: blob["moments"].update(c=blob["moments"]["a"]), "moments"),
            (lambda blob: blob["params"][1].update(name="a"), "params"),
            (lambda blob: blob["params"][1].update(name=7), "params[1].name"),
        ],
        ids=[
            "missing_slow", "t_past_t_max", "negative_t",
            "no_slow_key", "no_params_key", "no_config_key", "no_t_key",
            "moment_without_v", "param_without_shape", "unknown_clip_key",
            "missing_toggle_key", "fractional_t", "string_t", "fractional_k_lookahead",
            "string_toggle", "infinite_eta", "infinite_weight_decay", "fractional_t_warmup",
            "version_3", "fractional_extent", "bool_extent", "zero_then_bool_extent",
            "float_version", "bool_version", "string_version", "no_version_key",
            "unknown_preset", "no_preset_key", "params_not_a_list", "slow_not_an_object",
            "moments_of_another_tensor", "duplicate_param_names", "int_param_name",
        ],
    )
    def test_inconsistent_checkpoint_rejected(self, mutate, field):
        params = [ParamTensor("a", (2,), [1.0, -0.5]), ParamTensor("b", (2,), [0.3, 2.0])]
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=100)
        opt.step([p.with_values([0.1, -0.2]) for p in params])
        data = edited(opt.to_checkpoint(), lambda doc, section: mutate(doc))
        with pytest.raises(ValueError, match="^" + re.escape(field) + ":"):
            Optimizer.from_checkpoint(data)

    def test_param_with_empty_shape_rejected(self):
        opt, _ = self.make_opt()
        data = edited(opt.to_checkpoint(), lambda doc, section: doc["params"][0].update(shape=[]))
        with pytest.raises(
            ValueError, match=re.escape("params[0].shape: expected a non-empty list, got []")
        ):
            Optimizer.from_checkpoint(data)

    def test_non_object_checkpoint_rejected(self):
        line, section = (FIXTURES / "checkpoint_v4.ckpt").read_bytes().split(b"\n", 1)
        data = b"[" + line + b"]\n" + section
        with pytest.raises(ValueError, match="^checkpoint: expected an object, got list$"):
            Optimizer.from_checkpoint(data)

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda doc, section: doc["moments"].update(a=[1, 2]),
             "moments['a']: expected an object, got list"),
            (lambda doc, section: doc["params"].__setitem__(0, "x"),
             "params[0]: expected an object, got str"),
        ],
        ids=["moments_entry_list", "param_entry_string"],
    )
    def test_entry_that_is_not_an_object_named(self, fault, message):
        params = [ParamTensor("a", (2,), [1.0, -0.5]), ParamTensor("b", (2, 1), [0.3, 2.0])]
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=100)
        opt.step([p.with_values([0.1, -0.2]) for p in params])
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Optimizer.from_checkpoint(edited(opt.to_checkpoint(), fault))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        opt, rng = self.make_opt()
        path = tmp_path / "ckpt.json"
        opt.save(path)
        saved = path.read_bytes()
        assert os.listdir(tmp_path) == ["ckpt.json"]

        def fail(src, dst):
            raise OSError("disk full")

        opt.step(self.grad_stream(rng, 1)[0])
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            opt.save(path)
        assert path.read_bytes() == saved
        assert os.listdir(tmp_path) == ["ckpt.json"]

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        opt, rng = self.make_opt()
        path = tmp_path / "ckpt.json"
        opt.save(path)
        saved = path.read_bytes()
        on_disk = []

        class FailingFile:
            """A file whose write puts its first bytes on disk, then fails."""

            def __init__(self, file, mode):
                self.f = open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:64])
                self.f.flush()
                on_disk.append(os.path.getsize(self.f.name))
                raise OSError("disk full")

        opt.step(self.grad_stream(rng, 1)[0])
        # the name ``save`` opens its temp file through
        monkeypatch.setattr(checkpoint, "open", FailingFile, raising=False)
        with pytest.raises(OSError, match="disk full"):
            opt.save(path)
        assert on_disk and on_disk[0] > 0
        assert path.read_bytes() == saved
        assert os.listdir(tmp_path) == ["ckpt.json"]

    @pytest.mark.parametrize(
        "contents",
        [
            pytest.param(lambda v4: (FIXTURES / "checkpoint_v3.json").read_bytes()[:-100],
                         id="truncated"),
            pytest.param(lambda v4: b"\xff", id="not_utf8"),
            pytest.param(
                lambda v4: b"1" * 5000,
                id="int_past_digit_limit",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on the digits of an int",
                ),
            ),
            pytest.param(lambda v4: v4[: v4.index(b"\n") // 2], id="v4_line_cut"),
        ],
    )
    def test_file_that_is_not_json_rejected(self, tmp_path, contents):
        path = tmp_path / "ckpt.json"
        self.make_opt()[0].save(path)
        path.write_bytes(contents(path.read_bytes()))
        with pytest.raises(ValueError, match="^checkpoint: not valid JSON: "):
            Optimizer.load(path)

    def test_line_with_no_newline_has_an_empty_section(self, tmp_path):
        # a file cut at the document's newline: the JSON parses, and the section
        # it lacks is named by its length
        _, path = self.rewritten_v4(tmp_path, lambda doc, section: None)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\n")])
        message = "params: their values take a 192-byte section, got 0"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Optimizer.load(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda doc: doc.update(dtype="<f8"), "checkpoint: unexpected key 'dtype'"),
            (lambda doc: doc["params"][1].update(dtype="<f8"),
             "params[1]: unexpected key 'dtype'"),
            (lambda doc: doc["moments"].update(c=doc["moments"]["a"]),
             "moments: unexpected key 'c'"),
            (lambda doc: doc["moments"]["b"].update(extra=0),
             "moments['b']: unexpected key 'extra'"),
            (lambda doc: doc["slow"].update(c=0), "slow: unexpected key 'c'"),
            (lambda doc: doc["config"].update(decay=0.1), "config: unexpected key 'decay'"),
            (lambda doc: doc["config"]["schedule"].update(beta2=0.999),
             "config.schedule: unexpected key 'beta2'"),
        ],
        ids=["document", "param", "moments", "moment_entry", "slow", "config", "config_part"],
    )
    def test_unexpected_key_named_at_each_object(self, tmp_path, fault, message):
        _, path = self.rewritten_v4(tmp_path, lambda doc, section: fault(doc))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Optimizer.load(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            # the first key missing in the order save writes, before any unexpected one
            (lambda doc: [doc.pop("t"), doc.pop("preset"), doc.update(dtype="<f8")],
             "preset: missing"),
            (lambda doc: doc["params"][0].update(value=doc["params"][0].pop("values")),
             "params[0].values: missing"),
            (lambda doc: doc["moments"]["b"].update(v=doc["moments"]["b"].pop("m_prev2")),
             "moments['b'].m_prev2: missing"),
            # a param's keys are checked with its entry, before the section's length
            (lambda doc: [doc["params"][1].pop("values"), doc["params"][0].update(shape=[9])],
             "params[1].values: missing"),
        ],
        ids=["document", "param_key_renamed", "moment_slot_renamed", "param_before_section"],
    )
    def test_first_missing_key_named(self, tmp_path, fault, message):
        _, path = self.rewritten_v4(tmp_path, lambda doc, section: fault(doc))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Optimizer.load(path)

    @staticmethod
    def nan_at(*path):
        """A fault that makes the first value of the leaf at ``path`` NaN: the
        leaf is the offset of its values in the section."""

        def fault(doc, section):
            *parents, key = path
            for part in parents:
                doc = doc[part]
            section[doc[key] : doc[key] + 8] = np.array([math.nan]).tobytes()

        return fault

    @pytest.mark.parametrize(
        "field,mutate",
        [
            ("params[0].values", lambda doc, section: doc["params"][0].update(values=True)),
            ("params[0].values", lambda doc, section: doc["params"][0].update(values=8.0)),
            ("params[1].values", lambda doc, section: doc["params"][1].update(values="16")),
            ("moments['a'].v", lambda doc, section: doc["moments"]["a"].update(v=-8)),
            ("slow['b']", lambda doc, section: doc["slow"].update(b=len(section) - 8)),
            ("params", lambda doc, section: section.__delitem__(slice(-8, None))),
            ("params", lambda doc, section: section.extend(bytes(24))),
            ("moments['a'].v_max", lambda doc, section: section.__setitem__(
                slice(doc["moments"]["a"]["v_max"] + 8, doc["moments"]["a"]["v_max"] + 16),
                np.array([math.inf]).tobytes())),
            ("slow['a']", lambda doc, section: doc["slow"].update(a=doc["slow"]["a"] + 4)),
            ("moments['b'].v", lambda doc, section: doc["moments"]["b"].update(
                v=doc["moments"]["a"]["v"])),
            ("params[0].values", lambda doc, section: doc["params"][0].update(
                values=doc["slow"]["a"])),
            ("moments['a'].m_prev", lambda doc, section: doc["moments"]["a"].update(
                m_prev=doc["moments"]["a"]["m_prev2"])),
            ("params", lambda doc, section: doc["params"][0].update(shape=[10**12])),
            ("params[0].shape", lambda doc, section: doc["params"][0].update(shape=[2**62])),
            ("moments['a'].v", nan_at("moments", "a", "v")),
            ("params[1].values", nan_at("params", 1, "values")),
            ("slow['b']", lambda doc, section: section.__setitem__(
                slice(doc["slow"]["b"] + 8, doc["slow"]["b"] + 16),
                np.array([-math.inf]).tobytes())),
            ("params[0].values", lambda doc, section: doc["params"][0].update(values=None)),
            ("moments['a'].m_prev2", lambda doc, section: doc["moments"]["a"].update(
                m_prev2=[doc["moments"]["a"]["m_prev2"]])),
            ("params[1].values", lambda doc, section: doc["params"][1].pop("values")),
            ("slow['a']", lambda doc, section: doc["slow"].update(a=2**70)),
        ],
        ids=[
            "bool_offset", "float_offset", "string_offset", "negative_offset",
            "offset_past_the_end", "section_cut", "section_extended", "infinite_value",
            "offset_moved_4_bytes",
            "offset_aliased_onto_another_tensor", "params_offset_in_the_slow_buffer",
            "offset_at_the_next_slot", "shape_past_the_section", "shape_past_any_array",
            "nan_v", "nan_theta", "negative_infinite_slow", "null_offset", "list_offset",
            "param_without_values", "offset_past_any_int",
        ],
    )
    def test_inconsistent_v4_file_rejected(self, tmp_path, field, mutate):
        _, path = self.rewritten_v4(tmp_path, mutate)
        with pytest.raises(ValueError, match="^" + re.escape(field) + ":"):
            Optimizer.load(path)

    def test_v4_section_of_any_other_length_rejected(self, tmp_path):
        # two tensors of two values: six buffers of 4 values take 192 bytes, and a
        # section cut short or with bytes after them is refused before any is read
        opt, path = self.rewritten_v4(tmp_path, lambda doc, section: None)
        line, section = path.read_bytes().split(b"\n", 1)
        assert len(section) == 192
        for length in [*range(192), *range(193, 217)]:
            path.write_bytes(line + b"\n" + (section + bytes(24))[:length])
            message = f"params: their values take a 192-byte section, got {length}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                Optimizer.load(path)
        path.write_bytes(line + b"\n" + section)
        assert Optimizer.load(path).to_checkpoint() == opt.to_checkpoint()

    def rewritten_v4(self, tmp_path, mutate):
        """A two-tensor optimizer after one step, and the path of its v4 file, rewritten
        after ``mutate(doc, section)`` edits the document and the raw section."""
        params = [ParamTensor("a", (2,), [1.0, -0.5]), ParamTensor("b", (2,), [0.3, 2.0])]
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=100)
        opt.step([p.with_values([0.1, -0.2]) for p in params])
        path = tmp_path / "ckpt"
        path.write_bytes(edited(opt.to_checkpoint(), mutate))
        return opt, path

    def test_v4_file_with_other_offsets_is_refused(self, tmp_path):
        # "a" and "b" hold two values each: their slow slices swap places in the
        # section and their offsets follow; the only offsets a load accepts are the
        # ones ``save`` writes
        def swap_slow(doc, section):
            a, b = doc["slow"]["a"], doc["slow"]["b"]
            assert section[a : a + 16] != section[b : b + 16]
            section[a : a + 16], section[b : b + 16] = section[b : b + 16], section[a : a + 16]
            doc["slow"].update(a=b, b=a)

        _, path = self.rewritten_v4(tmp_path, swap_slow)
        with pytest.raises(ValueError, match=r"^slow\['a'\]: "):
            Optimizer.load(path)

    def test_every_one_digit_offset_edit_is_refused(self, tmp_path):
        # 12 offset leaves of 31 digits in all: each digit changed to each of the
        # 9 others gives 279 files, and each must fail naming the leaf edited
        opt, rng = self.make_opt()
        for g in self.grad_stream(rng, 6):
            opt.step(g)
        path = tmp_path / "ckpt"
        opt.save(path)
        line, section = path.read_bytes().split(b"\n", 1)
        doc = json.loads(line)
        leaves = [(f"params[{i}].values", ("params", i, "values")) for i in range(2)]
        leaves += [(f"moments[{name!r}].{b}", ("moments", name, b))
                   for name, slots in doc["moments"].items() for b in slots]
        leaves += [(f"slow[{name!r}]", ("slow", name)) for name in doc["slow"]]
        assert len(leaves) == 12
        edits = 0
        for where, (*parents, key) in leaves:
            edited = mapping = json.loads(line)
            for part in parents:
                mapping = mapping[part]
            digits = str(mapping[key])
            for i, d in itertools.product(range(len(digits)), "0123456789"):
                if d == digits[i]:
                    continue
                mapping[key] = int(digits[:i] + d + digits[i + 1 :])
                path.write_bytes(json.dumps(edited).encode("ascii") + b"\n" + section)
                with pytest.raises(ValueError, match="^" + re.escape(where) + ":"):
                    Optimizer.load(path)
                edits += 1
        assert edits == 279

    def test_v4_load_raises_the_first_error_of_the_walk(self, tmp_path):
        # the whole-buffer check finds the NaN and falls back to the walk, whose first
        # fault is a's first moment slot, before b's offset past the end
        def corrupt(doc, section):
            at = doc["moments"]["a"]["m_prev"]
            section[at : at + 8] = np.array([math.nan]).tobytes()
            doc["slow"]["b"] = len(section)

        _, path = self.rewritten_v4(tmp_path, corrupt)
        message = "moments['a'].m_prev: non-finite values rejected"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Optimizer.load(path)

    def stepped(self, config_path):
        """Each optimizer of the config at ``config_path``, as (its spec, the
        optimizer) after five steps on the config's problem."""
        config = parse_config(config_path.read_text())
        problem = config.problem
        for spec in config.optimizers:
            opt = Optimizer(
                problem.init_params(philox((config.seed, 0))), spec.config, preset=spec.preset
            )
            batch_rng = philox((config.seed, 1))
            for _ in range(5):
                _, grads = problem.evaluate(opt.params, problem.sample_batch(batch_rng))
                opt.step(grads)
            yield spec, opt

    def test_v4_load_reads_no_leaf_one_by_one(self, tmp_path, monkeypatch):
        # all six buffers of a file ``save`` wrote, θ included, are checked for
        # finiteness whole: the walk checks no tensor's slice on its own
        checked = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def isfinite(self, values):
                checked.append(values.size)
                return np.isfinite(values)

        monkeypatch.setattr(checkpoint, "np", CountingNumpy())
        for spec, opt in self.stepped(CONFIGS / "deep_mlp.json"):
            path = tmp_path / f"{spec.label}.ckpt"
            opt.save(path)
            checked.clear()
            assert Optimizer.load(path).to_checkpoint() == opt.to_checkpoint()
            assert len(opt.params) == 32
            assert checked == [opt.state.flat_theta.size] * 6

    # "w1" is registered third but sits after every bias in each buffer; "b14" is
    # registered 30th but sits in the rank-1 group that starts each buffer. A load
    # checks the config before any leaf, then walks the tensors in registration
    # order, so it names the config's or w1's fault before b14's
    @pytest.mark.parametrize(
        "early, later",
        [
            ((lambda doc, section: section.__setitem__(
                slice(doc["moments"]["w1"]["v_max"] + 8, doc["moments"]["w1"]["v_max"] + 16),
                np.array([math.inf]).tobytes()),
              lambda doc: "moments['w1'].v_max: non-finite values rejected"),
             (lambda doc, section: doc["slow"].update(b14=doc["slow"]["b14"] + 8),
              lambda doc: f"slow['b14']: expected {doc['slow']['b14']}, the offset save "
                          f"writes, got {doc['slow']['b14'] + 8}")),
            ((nan_at("moments", "w1", "v"),
              lambda doc: "moments['w1'].v: non-finite values rejected"),
             (nan_at("params", 29, "values"),
              lambda doc: "params[29].values: non-finite values rejected")),
            ((lambda doc, section: doc["config"].update(k_lookahead=2.5),
              lambda doc: "config.k_lookahead: expected an integer, got 2.5"),
             (nan_at("params", 29, "values"),
              lambda doc: "params[29].values: non-finite values rejected")),
        ],
        ids=["w1_moment_before_b14_slow", "w1_moment_before_b14_theta", "config_before_theta"],
    )
    def test_load_names_the_first_fault(self, tmp_path, early, later):
        path = tmp_path / "ckpt"
        (early_fault, early_message), (later_fault, later_message) = early, later
        for _, opt in self.stepped(CONFIGS / "deep_mlp.json"):
            assert opt.params[29].name == "b14"
            data = opt.to_checkpoint()
            doc = json.loads(data.split(b"\n", 1)[0])  # the offsets save writes
            # each fault alone is refused, and both together by the early one
            for faults, message in [
                ([early_fault], early_message), ([later_fault], later_message),
                ([later_fault, early_fault], early_message),
            ]:
                path.write_bytes(edited(data, *faults))
                with pytest.raises(ValueError) as excinfo:
                    Optimizer.load(path)
                assert str(excinfo.value) == message(doc)

    @pytest.mark.parametrize(
        "config_path", [*sorted(CONFIGS.glob("*.json")), REPO / "perfbench" / "wide_mlp.json"],
        ids=lambda path: path.stem,
    )
    def test_saved_file_is_the_checkpoint(self, tmp_path, config_path):
        for spec, opt in self.stepped(config_path):
            path, again = tmp_path / f"{spec.label}.ckpt", tmp_path / f"{spec.label}-again.ckpt"
            opt.save(path)
            data = opt.to_checkpoint()
            assert path.read_bytes() == data
            assert v4_as_v3(data) == state_as_v3(opt)
            loaded = Optimizer.load(path)
            assert loaded.to_checkpoint() == data
            loaded.save(again)
            assert again.read_bytes() == data


class TestObserver:
    @pytest.mark.parametrize("preset", ["adamw", "ranger21"])
    def test_observer_leaves_the_step_bit_identical(self, preset):
        def run(observer):
            rng = np.random.default_rng(29)
            params = [
                ParamTensor("w", (3, 2), rng.standard_normal(6)),
                ParamTensor("b", (3,), rng.standard_normal(3)),
            ]
            if preset == "adamw":
                opt = Optimizer.adamw(params)
            else:
                opt = Optimizer.ranger21(params, eta=3e-3, t_max=12)
            for _ in range(12):
                grads = [p.with_values(rng.standard_normal(p.size)) for p in opt.params]
                opt.step(grads, observer=observer)
            return opt.to_checkpoint()

        diags = []
        assert run(None) == run(diags.append)
        assert [d.t for d in diags] == list(range(1, 13))
