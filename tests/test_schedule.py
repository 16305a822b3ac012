import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import ScheduleSpec, lr_factor

from oracles import default_phase_length

# the documented reference configuration: 10000 steps, beta2 = 0.999,
# warm-up 2200, warm-down 2800
REF = ScheduleSpec(eta=1e-3, t_max=10000, t_warmup=2200, t_warmdown=2800)
BETA2 = 0.999


class TestSpec:
    def test_default_phase_lengths(self):
        spec = ScheduleSpec(eta=1.0, t_max=10000)
        assert spec.t_warmup == 2200
        assert spec.t_warmdown == 2800

    def test_default_rounding_half_up(self):
        spec = ScheduleSpec(eta=1.0, t_max=25)
        # 0.22*25 = 5.5 and 0.28*25 = 7.0
        assert spec.t_warmup == 6
        assert spec.t_warmdown == 7

    def test_tiny_t_max_clamps_to_one(self):
        spec = ScheduleSpec(eta=1.0, t_max=1)
        assert spec.t_warmup == 1
        assert spec.t_warmdown == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0, "t_max": 10},
            {"eta": 1.0, "t_max": 0},
            {"eta": 1.0, "t_max": 10, "t_warmup": 0},
            {"eta": 1.0, "t_max": 10, "t_warmup": 11},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScheduleSpec(**kwargs)

    @pytest.mark.parametrize("name", ["t_warmup", "t_warmdown"])
    @pytest.mark.parametrize("length", [0, 11])
    def test_phase_length_error_text(self, name, length):
        with pytest.raises(ValueError) as excinfo:
            ScheduleSpec(eta=1.0, t_max=10, **{name: length})
        rule = {0: "must be >= 1", 11: "must be <= t_max = 10"}[length]
        assert str(excinfo.value) == f"{name}: {rule}, got {length}"

    @pytest.mark.parametrize(
        "t_max, t_warmup, t_warmdown",
        [(1, 1, 1), (2, 1, 1), (7, 2, 2), (10000, 2200, 2800), (12345, 2716, 3457)],
    )
    def test_default_phase_lengths_for_t_max(self, t_max, t_warmup, t_warmdown):
        spec = ScheduleSpec(eta=1.0, t_max=t_max)
        assert (spec.t_warmup, spec.t_warmdown) == (t_warmup, t_warmdown)

    def test_default_phase_lengths_round_half_up_exactly(self):
        # every t_max to 200,000, and each side of the powers of ten to 10**39,
        # where a float product would round
        sweep = [*range(1, 200_001), *(10**k + d for k in range(6, 40) for d in (-1, 0, 1))]
        for t_max in sweep:
            spec = ScheduleSpec(eta=1.0, t_max=t_max)
            expected = (default_phase_length(22, t_max), default_phase_length(28, t_max))
            assert (spec.t_warmup, spec.t_warmdown) == expected, t_max

    def test_overlapping_phases_permitted(self):
        spec = ScheduleSpec(eta=1.0, t_max=10, t_warmup=8, t_warmdown=8)
        assert spec.phases_overlap
        assert 0.0 <= lr_factor(5, spec, BETA2) <= 1.0


class TestReferenceCurve:
    @pytest.mark.parametrize(
        "t,expected",
        [(1, 5e-4), (2000, 1.0), (5000, 1.0), (8600, 0.5), (10000, 0.0)],
    )
    def test_reference_points(self, t, expected):
        assert lr_factor(t, REF, BETA2) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_factor(0, REF, BETA2)
        with pytest.raises(ValueError):
            lr_factor(10001, REF, BETA2)

    def test_three_phase_shape(self):
        curve = [lr_factor(t, REF, BETA2) for t in range(1, 10001)]
        # warm-up strictly rises to 1, flat in the middle, warm-down falls to 0
        rise_end = curve.index(1.0)
        fall_start = 10000 - REF.t_warmdown
        for a, b in zip(curve[:rise_end], curve[1 : rise_end + 1]):
            assert b > a
        assert all(c == 1.0 for c in curve[rise_end:fall_start])
        for a, b in zip(curve[fall_start:], curve[fall_start + 1 :]):
            assert b < a
        assert curve[-1] == 0.0

    def test_piecewise_linear_second_differences(self):
        curve = [lr_factor(t, REF, BETA2) for t in range(1, 10001)]
        rise_end = curve.index(1.0)
        # factor is exactly 1 at t = t_max - t_warmdown, falling afterwards
        fall_start_t = REF.t_max - REF.t_warmdown
        segments = (
            curve[: rise_end + 1],
            curve[rise_end:fall_start_t],
            curve[fall_start_t - 1 :],
        )
        for seg in segments:
            for a, b, c in zip(seg, seg[1:], seg[2:]):
                assert abs(a - 2 * b + c) <= 1e-15

    def test_reaches_one_by_bounded_step(self):
        import math

        t_star = min(math.ceil(2.0 / (1.0 - BETA2)), REF.t_warmup)
        assert (REF.t_max - t_star) / REF.t_warmdown >= 1.0
        assert lr_factor(t_star, REF, BETA2) == 1.0

    def test_warmup_ends_at_22_percent_of_t_max(self):
        # the fidelity ledger's warm-up row: at t_max = 5000 the ramp reaches 1 at
        # t_warmup = 1100, before the 2 / (1 - beta2) = 2000 steps of the beta2 slope
        spec = ScheduleSpec(eta=1.0, t_max=5000)
        assert spec.t_warmup == 1100
        assert lr_factor(1099, spec, BETA2) < 1.0
        assert lr_factor(1100, spec, BETA2) == 1.0


class TestPhaseToggles:
    def test_no_phases_is_constant_one(self):
        assert lr_factor(1, REF, BETA2, warmup=False, warmdown=False) == 1.0
        assert lr_factor(9999, REF, BETA2, warmup=False, warmdown=False) == 1.0

    def test_warmdown_only(self):
        assert lr_factor(1, REF, BETA2, warmup=False) == 1.0
        assert lr_factor(8600, REF, BETA2, warmup=False) == 0.5

    def test_warmup_only(self):
        assert lr_factor(1, REF, BETA2, warmdown=False) == pytest.approx(5e-4, abs=1e-15)
        assert lr_factor(10000, REF, BETA2, warmdown=False) == 1.0

    def test_t_max_binds_only_with_warmdown(self):
        assert lr_factor(10001, REF, BETA2, warmdown=False) == 1.0
        assert lr_factor(10001, REF, BETA2, warmup=False, warmdown=False) == 1.0
        with pytest.raises(ValueError):
            lr_factor(10001, REF, BETA2)
        with pytest.raises(ValueError):
            lr_factor(0, REF, BETA2, warmdown=False)


@settings(max_examples=200, derandomize=True)
@given(
    st.integers(1, 5000).flatmap(
        lambda t_max: st.tuples(
            st.just(t_max),
            st.integers(1, t_max),
            st.integers(1, t_max),
            st.integers(1, t_max),
        )
    ),
    st.floats(0.0, 0.99999),
)
def test_factor_in_unit_interval_and_terminal_zero(args, beta2):
    t_max, t, t_warmup, t_warmdown = args
    spec = ScheduleSpec(
        eta=1.0, t_max=t_max, t_warmup=t_warmup, t_warmdown=t_warmdown
    )
    f = lr_factor(t, spec, beta2)
    assert 0.0 <= f <= 1.0
    assert lr_factor(t_max, spec, beta2) == 0.0


@settings(max_examples=100, derandomize=True)
@given(st.integers(2, 2000))
def test_warmup_nondecreasing_warmdown_nonincreasing(t_max):
    spec = ScheduleSpec(eta=1.0, t_max=t_max)
    curve = [lr_factor(t, spec, BETA2) for t in range(1, t_max + 1)]
    warm_end = t_max - spec.t_warmdown
    for i in range(1, warm_end):
        assert curve[i] >= curve[i - 1]
    for i in range(max(warm_end, 1), t_max):
        assert curve[i] <= curve[i - 1]
