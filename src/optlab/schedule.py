"""Three-phase learning-rate schedule: linear warm-up, flat, linear warm-down.

The per-step factor is

    min(1, max((1 - beta2)/2 * t, t / t_warmup), (t_max - t) / t_warmdown)

so the warm-up ramp is the faster of a beta2-derived slope and a budgeted
linear ramp, and the tail decays linearly to exactly 0 at t_max. beta2 is
the moments' second-moment rate (``MomentConfig.beta2``), passed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

WARMUP_DEFAULT_FRACTION = Fraction(22, 100)
WARMDOWN_DEFAULT_FRACTION = Fraction(28, 100)


def _round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2))


@dataclass(frozen=True)
class ScheduleSpec:
    """Base rate plus the phase lengths defining the three-phase factor.

    ``t_warmup`` defaults to 22% of ``t_max`` and ``t_warmdown`` to 28%,
    rounded half-up and clamped to at least 1 step. Overlapping phases
    (t_warmup + t_warmdown > t_max) are allowed; the min/max stays
    well-defined, there is just no flat phase.
    """

    eta: float
    t_max: int
    t_warmup: int | None = None
    t_warmdown: int | None = None

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.t_warmup is None:
            object.__setattr__(
                self,
                "t_warmup",
                max(1, _round_half_up(WARMUP_DEFAULT_FRACTION * self.t_max)),
            )
        if self.t_warmdown is None:
            object.__setattr__(
                self,
                "t_warmdown",
                max(1, _round_half_up(WARMDOWN_DEFAULT_FRACTION * self.t_max)),
            )
        if not 0 < self.t_warmup <= self.t_max:
            raise ValueError(
                f"t_warmup must be in [1, t_max], got {self.t_warmup} (t_max={self.t_max})"
            )
        if not 0 < self.t_warmdown <= self.t_max:
            raise ValueError(
                f"t_warmdown must be in [1, t_max], got {self.t_warmdown} (t_max={self.t_max})"
            )

    @property
    def phases_overlap(self) -> bool:
        return self.t_warmup + self.t_warmdown > self.t_max


def lr_factor(
    t: int, spec: ScheduleSpec, beta2: float, *, warmup: bool = True, warmdown: bool = True
) -> float:
    """Schedule factor in [0, 1] at 1-based step t; multiply by eta for the rate.

    Only the warm-up reads ``beta2``, the second-moment rate of the moments.

    The keyword flags drop the corresponding phase from the min/max (used by
    the engine's per-component toggles); with both flags the full three-phase
    formula applies, with neither the factor is the constant 1. Only the
    warm-down reads ``t_max``, so only with it on must t stay <= t_max.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    factor = 1.0
    if warmup:
        ramp = max((1.0 - beta2) / 2.0 * t, t / spec.t_warmup)
        factor = min(factor, ramp)
    if warmdown:
        if t > spec.t_max:
            raise ValueError(f"t must be in [1, {spec.t_max}], got {t}")
        factor = min(factor, (spec.t_max - t) / spec.t_warmdown)
    return factor
