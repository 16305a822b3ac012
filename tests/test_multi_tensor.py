"""The flat-buffer step against a per-tensor composition of the public array
components: the same bits for every toggle set, and a failure in one tensor
still names it and leaves no trace."""

import dataclasses
import json

import numpy as np
import pytest

from optlab import (
    DecayConfig,
    MomentState,
    NonFiniteError,
    Optimizer,
    ParamTensor,
    ScheduleSpec,
    Toggles,
    adam_update,
    combined_decay,
    default_config,
    gradient_centralize,
    lookahead_sync,
    pnm_update,
    scheduled_eta,
    unit_scale_factors,
)
from optlab.transforms import scale_units

STEPS = 12
# 2-D weights, 1-D biases (one starting at zero, where norm-loss decays by 0)
# and a 3-D tensor
SHAPES = {"w1": (4, 3), "b1": (4,), "k": (2, 3, 2), "w2": (2, 4), "b2": (2,)}

TOGGLE_SETS = {
    "none": Toggles.none(),
    "all": Toggles(),
    **{
        f"only_{f.name}": dataclasses.replace(Toggles.none(), **{f.name: True})
        for f in dataclasses.fields(Toggles)
    },
}


def make_config(toggles):
    schedule = ScheduleSpec(eta=3e-3, t_max=STEPS, t_warmup=4, t_warmdown=4)
    return default_config(3e-3, STEPS, schedule=schedule, k_lookahead=3, toggles=toggles)


def make_problem(seed=41):
    rng = np.random.default_rng(seed)
    params = [
        ParamTensor(name, shape, np.zeros(shape) if name == "b2" else rng.standard_normal(shape))
        for name, shape in SHAPES.items()
    ]

    def grads():
        # unit scales spread over 1e-5..3, so clipping hits some units and not others
        out = []
        for name, shape in SHAPES.items():
            scale = 10.0 ** rng.uniform(-5.0, 0.5, size=shape[0])
            grad = scale.reshape(-1, *[1] * (len(shape) - 1)) * rng.standard_normal(shape)
            out.append(ParamTensor(name, shape, grad))
        return out

    return params, [grads() for _ in range(STEPS)]


class PerTensorStep:
    """The composed step, tensor by tensor, from the public array components."""

    def __init__(self, params, config):
        self.config = config
        self.theta = {p.name: p.values.copy() for p in params}
        self.moments = {p.name: MomentState.zeros(p.size) for p in params}
        self.slow = {p.name: p.values.copy() for p in params}

    def step(self, grads, t):
        cfg, toggles = self.config, self.config.toggles
        eta_t = scheduled_eta(t, cfg)
        decay_cfg = DecayConfig(cfg.weight_decay, toggles.norm_loss, toggles.stable_decay)
        moment_fn = pnm_update if toggles.pnm else adam_update
        diags = []
        for g in grads:
            theta, grad, clipped = self.theta[g.name], g.array, 0
            if toggles.agc:
                factors = unit_scale_factors(grad, theta.reshape(g.shape), cfg.clip)
                clipped = int(np.count_nonzero(factors < 1.0))
                grad = scale_units(grad, factors)
            if toggles.centralization:
                grad = gradient_centralize(grad)
            u, v_hat, self.moments[g.name] = moment_fn(
                self.moments[g.name], grad.reshape(-1), t, cfg.moments
            )
            d = combined_decay(theta, v_hat, eta_t, decay_cfg)
            fast = theta - eta_t * u - d
            if toggles.lookahead:
                fast, self.slow[g.name] = lookahead_sync(
                    fast, self.slow[g.name], t, cfg.k_lookahead, cfg.beta_lookahead
                )
            self.theta[g.name] = fast
            diags.append((g.name, clipped, g.shape[0], float(np.mean(v_hat)), g.size, u, d))
        return eta_t, diags


def assert_bits_equal(a, b):
    assert a.shape == b.shape and bool(np.all(a == b))


@pytest.mark.parametrize("toggles", TOGGLE_SETS.values(), ids=TOGGLE_SETS.keys())
def test_flat_step_matches_per_tensor_composition_bit_for_bit(toggles):
    params, grad_stream = make_problem()
    config = make_config(toggles)
    opt = Optimizer(params, config)
    reference = PerTensorStep(params, config)
    slots = [f.name for f in dataclasses.fields(MomentState)]
    for t, grads in enumerate(grad_stream, start=1):
        seen = []
        opt.step(grads, observer=seen.append)
        eta_t, expected = reference.step(grads, t)

        for p in opt.params:
            assert_bits_equal(p.values, reference.theta[p.name])
        moments, slow = opt.state.moments, opt.state.slow
        for name in SHAPES:
            for slot in slots:
                expected_slot = getattr(reference.moments[name], slot)
                assert_bits_equal(getattr(moments[name], slot), expected_slot)
            assert_bits_equal(slow[name], reference.slow[name])

        (diag,) = seen
        assert (diag.t, diag.eta_t) == (t, eta_t)
        assert len(diag.tensors) == len(expected)
        for td, (name, clipped, units, mean_vhat, size, u, d) in zip(diag.tensors, expected):
            assert (td.name, td.units_clipped, td.units_total, td.mean_vhat, td.size) == (
                name, clipped, units, mean_vhat, size
            )
            assert_bits_equal(td.update, u)
            assert_bits_equal(td.decay, d)
    if toggles.agc:
        assert 0.0 < diag.clip_ratio < 1.0


def four_tensors(third):
    return [
        ParamTensor("a", (2, 2), [1.0, -0.5, 0.25, 2.0]),
        ParamTensor("b", (3,), [0.3, 2.0, -1.0]),
        ParamTensor("c", (2,), third),
        ParamTensor("d", (2, 1, 2), [0.5, 0.5, -0.5, 1.5]),
    ]


def grads_with(third, fourth=(0.0, 1.0, -1.0, 0.2)):
    return [
        ParamTensor("a", (2, 2), [0.1, -0.2, 0.3, 0.0]),
        ParamTensor("b", (3,), [0.5, 0.5, -0.5]),
        ParamTensor("c", (2,), third),
        ParamTensor("d", (2, 1, 2), fourth),
    ]


def moment_overflow_case():
    # g^2 overflows in c, and in d after it: v_hat is infinite; the clip, which
    # would tame it, is off
    opt = Optimizer.ranger21(
        four_tensors([1.0, -1.0]), eta=3e-3, t_max=10, k_lookahead=2,
        toggles=dataclasses.replace(Toggles(), agc=False),
    )
    return opt, [grads_with([0.1, 0.2])] * 2, grads_with([1.7e308, 1.0], [0.0, 0.0, 1e160, 0.0])


def apply_overflow_case():
    # v_hat is 0 in c, so stable decay divides by its 1e-8 floor and
    # d = 30 * theta overflows; u and v_hat stay finite
    opt = Optimizer(
        four_tensors([1e307, -1e307]),
        make_config(dataclasses.replace(Toggles.none(), stable_decay=True)),
    )
    return opt, [], grads_with([0.0, 0.0])


@pytest.mark.parametrize(
    "case", [moment_overflow_case, apply_overflow_case], ids=["moments", "apply"]
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflow_in_third_of_four_tensors_names_it_and_leaves_no_trace(case):
    opt, steps_before, failing = case()
    for grads in steps_before:
        opt.step(grads)
    before = json.dumps(opt.to_checkpoint())
    params_before, t_before = opt.params, opt.t
    with pytest.raises(NonFiniteError, match="^c: "):
        opt.step(failing)
    assert opt.params is params_before
    assert opt.t == t_before
    assert json.dumps(opt.to_checkpoint()) == before
