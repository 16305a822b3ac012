"""The flat-buffer step against a per-tensor composition of the public array
components: the same bits for every toggle set, and a failure in one tensor
still names it and leaves no trace."""

import base64
import dataclasses

import numpy as np
import pytest

from optlab import (
    DecayConfig,
    MomentState,
    NonFiniteError,
    Optimizer,
    OptimizerState,
    ParamTensor,
    Ranger21Config,
    ScheduleSpec,
    Toggles,
    adam_update,
    combined_decay,
    gradient_centralize,
    lookahead_sync,
    pnm_update,
    scheduled_eta,
    unit_scale_factors,
)
from optlab.moments import SpanRuns
from optlab.transforms import scale_units

from oracles import v4_as_v3

STEPS = 12
# 2-D weights, 1-D biases (one starting at zero, where norm-loss decays by 0)
# and a 3-D tensor
SHAPES = {"w1": (4, 3), "b1": (4,), "k": (2, 3, 2), "w2": (2, 4), "b2": (2,)}
# tensors of one unit kind, not adjacent in registration order: rank-1 "b1"
# and "b2" (zero at start), 2-D "w1" and "w2" of width 3, "n" of width 1
# (whose centralized gradient is 0), and 3-D "k" and 2-D "w3" of width 6
GROUPED_SHAPES = {
    "w1": (4, 3), "b1": (5,), "w2": (2, 3), "n": (3, 1), "b2": (1,), "k": (2, 3, 2), "w3": (4, 6),
}
# one unit kind only: no rank-1 tensor, so the buffer is all dim-0 units (of
# widths 3 and 6); or only rank-1 tensors ("b2" zero at start), so it is all
# elements, each a unit of norm |x|, and there is no unit run
ONE_KIND_SHAPES = {
    "no_rank1": {"w": (4, 3), "k": (2, 3, 2)},
    "only_rank1": {"b1": (5,), "b2": (3,), "b3": (4,)},
}
# equal-size tensors next to each other in buffer order, so the decay reduces
# them as runs: three (4,) biases ("b2" zero at start), three (4, 4) weights
RUN_SHAPES = {"w1": (4, 4), "b1": (4,), "w2": (4, 4), "b2": (4,), "w3": (4, 4), "b3": (4,)}

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
    return Ranger21Config(schedule=schedule, k_lookahead=3, toggles=toggles)


def make_problem(shapes=SHAPES, seed=41):
    rng = np.random.default_rng(seed)
    params = [
        ParamTensor(name, shape, np.zeros(shape) if name == "b2" else rng.standard_normal(shape))
        for name, shape in shapes.items()
    ]

    def grads():
        # unit scales spread over 1e-5..3, so clipping hits some units and not others
        out = []
        for name, shape in shapes.items():
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


def assert_float_bits_equal(a, b):
    assert np.float64(a).tobytes() == np.float64(b).tobytes(), (a, b)


@pytest.mark.parametrize("toggles", TOGGLE_SETS.values(), ids=TOGGLE_SETS.keys())
def test_flat_step_matches_per_tensor_composition_bit_for_bit(toggles):
    assert_matches_per_tensor_composition(SHAPES, toggles)


@pytest.mark.parametrize("toggles", TOGGLE_SETS.values(), ids=TOGGLE_SETS.keys())
def test_grouped_layout_matches_per_tensor_composition_bit_for_bit(toggles):
    params, _ = make_problem(GROUPED_SHAPES)
    state = OptimizerState.initial(params)
    # 6 rank-1 values, then units of width 1 ("n"), 3 ("w1", "w2") and 6 ("k", "w3")
    assert state.runs.size - state.units.size == 6
    assert state.units.runs == ((0, 3, 1), (3, 6, 3), (21, 6, 6))
    assert_matches_per_tensor_composition(GROUPED_SHAPES, toggles)


@pytest.mark.parametrize("toggles", TOGGLE_SETS.values(), ids=TOGGLE_SETS.keys())
@pytest.mark.parametrize("layout", ONE_KIND_SHAPES)
def test_one_kind_layout_matches_per_tensor_composition_bit_for_bit(layout, toggles):
    shapes = ONE_KIND_SHAPES[layout]
    state = OptimizerState.initial(make_problem(shapes)[0])
    if layout == "no_rank1":
        assert (state.runs.size - state.units.size, state.units.runs) == (
            0, ((0, 4, 3), (12, 2, 6))
        )
    else:
        assert (state.runs.size - state.units.size, state.units.runs) == (12, ())
    assert_matches_per_tensor_composition(shapes, toggles)


@pytest.mark.parametrize("toggles", TOGGLE_SETS.values(), ids=TOGGLE_SETS.keys())
def test_run_layout_matches_per_tensor_composition_bit_for_bit(toggles):
    params, _ = make_problem(RUN_SHAPES)
    assert OptimizerState.initial(params).runs.runs == ((0, 3, 4), (12, 3, 16))
    assert_matches_per_tensor_composition(RUN_SHAPES, toggles)


def assert_matches_per_tensor_composition(shapes, toggles):
    params, grad_stream = make_problem(shapes)
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
        state = opt.state
        for name in shapes:
            lo, hi = state.bounds[name]
            for slot in slots:
                expected_slot = getattr(reference.moments[name], slot)
                assert_bits_equal(getattr(state.flat_moments, slot)[lo:hi], expected_slot)
            assert_bits_equal(state.flat_slow[lo:hi], reference.slow[name])

        (diag,) = seen
        assert (diag.t, diag.eta_t) == (t, eta_t)
        assert len(diag.tensors) == len(expected)
        for td, (name, clipped, units, mean_vhat, size, u, d) in zip(diag.tensors, expected):
            assert (td.name, td.units_clipped, td.units_total, td.mean_vhat, td.size) == (
                name, clipped, units, mean_vhat, size
            )
            assert_bits_equal(td.update, u)
            assert_bits_equal(td.decay, d)
            assert_float_bits_equal(td.decay_norm_sq, np.dot(d, d))
        # the aggregates against their per-slice forms, in registration order
        _, clipped, units, means, sizes, _, decays = zip(*expected)
        assert_float_bits_equal(diag.decay_norm, np.sqrt(sum(float(np.dot(d, d)) for d in decays)))
        assert_float_bits_equal(
            diag.mean_vhat, sum(m * n for m, n in zip(means, sizes)) / sum(sizes)
        )
        assert_float_bits_equal(diag.clip_ratio, sum(clipped) / sum(units))
    if toggles.agc:
        assert 0.0 < diag.clip_ratio < 1.0


@pytest.mark.parametrize("norm_loss", [True, False], ids=["norm_loss", "no_norm_loss"])
def test_every_squared_norm_is_one_span_runs_call(monkeypatch, norm_loss):
    """The decay's squared norms and the observer's decay norms both come from
    ``SpanRuns.squared_norms``: one call for the decay when norm loss is on,
    and one more on a step with an observer."""
    calls = []
    squared_norms = SpanRuns.squared_norms

    def counted(runs, buf):
        calls.append(buf.size)
        return squared_norms(runs, buf)

    monkeypatch.setattr(SpanRuns, "squared_norms", counted)
    params, grad_stream = make_problem(RUN_SHAPES)
    opt = Optimizer(params, make_config(dataclasses.replace(Toggles(), norm_loss=norm_loss)))
    per_step = []
    for t, grads in enumerate(grad_stream, start=1):
        before = len(calls)
        opt.step(grads, observer=(lambda diag: None) if t % 2 == 0 else None)
        per_step.append(len(calls) - before)
    assert per_step == [norm_loss + (t % 2 == 0) for t in range(1, STEPS + 1)]


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
    before = opt.to_checkpoint()
    params_before, t_before = opt.params, opt.t
    with pytest.raises(NonFiniteError, match="^c: "):
        opt.step(failing)
    assert opt.params is params_before
    assert opt.t == t_before
    assert opt.to_checkpoint() == before


def test_checkpoint_lists_tensors_in_registration_order():
    rng = np.random.default_rng(5)
    shapes = {"b0": (3,), "w0": (3, 2), "b1": (2,), "w1": (2, 3)}
    params = [ParamTensor(n, s, rng.standard_normal(s)) for n, s in shapes.items()]
    opt = Optimizer.ranger21(params, eta=3e-3, t_max=20, k_lookahead=2)
    # the buffers hold the rank-1 tensors first, then one unit run per width
    assert opt.state.order == (0, 2, 1, 3)
    assert opt.state.runs.size - opt.state.units.size == 5
    assert opt.state.units.runs == ((0, 3, 2), (6, 2, 3))
    assert list(opt.state.bounds.items()) == [
        ("b0", (0, 3)), ("w0", (5, 11)), ("b1", (3, 5)), ("w1", (11, 17))
    ]
    for _ in range(3):
        opt.step([ParamTensor(n, s, rng.standard_normal(s)) for n, s in shapes.items()])

    data = opt.to_checkpoint()
    blob = v4_as_v3(data)
    names = list(shapes)
    assert [p["name"] for p in blob["params"]] == names
    assert list(blob["moments"]) == names and list(blob["slow"]) == names
    for p, entry in zip(opt.params, blob["params"]):
        assert entry["values"] == base64.b64encode(p.values.tobytes()).decode("ascii")
    state = opt.state
    for name, (lo, hi) in state.bounds.items():
        for slot, text in blob["moments"][name].items():
            buf = getattr(state.flat_moments, slot)[lo:hi]
            assert text == base64.b64encode(buf.tobytes()).decode("ascii")
        slow = state.flat_slow[lo:hi]
        assert blob["slow"][name] == base64.b64encode(slow.tobytes()).decode("ascii")

    restored = Optimizer.from_checkpoint(data)
    assert restored.to_checkpoint() == data
    grads = [ParamTensor(n, s, rng.standard_normal(s)) for n, s in shapes.items()]
    for a, b in zip(opt.step(grads), restored.step(grads)):
        assert_bits_equal(a.values, b.values)
