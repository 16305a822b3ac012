"""Optimizer presets and the step loop.

One step, ``Optimizer.step``, serves both presets; a preset is a named
``Ranger21Config``:

* ``ranger21``: unit-wise clipping, centralization, positive-negative
  momentum with second-moment max, the three-phase schedule, stable
  norm-pulling decay, and periodic lookahead interpolation.
* ``adamw``: the same step with every toggle off, i.e. decoupled-decay
  adaptive moments at a constant learning rate.

Every component can be toggled off individually; a disabled transform
becomes the identity, disabled momentum falls back to the classic
single-buffer estimate, disabled schedule phases pin their factor to 1.

The schedule multiplies the decay exactly once: the step subtracts
``eta_t * u + d`` where ``combined_decay`` already folded ``eta_t`` into d.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import checkpoint
from .fields import bounded, built, check_fields
from .moments import (
    DecayConfig,
    MomentConfig,
    MomentState,
    SpanRuns,
    adam_update,
    combined_decay,
    pnm_update,
)
from .schedule import ScheduleSpec, lr_factor
from .tensor import ParamTensor, _raise_nonfinite
from .transforms import ClipConfig, gradient_centralize, scale_units, unit_scale_factors

PRESETS = ("adamw", "ranger21")


@dataclass(frozen=True)
class Toggles:
    """Per-component enable flags for the ranger21 preset."""

    agc: bool = True
    centralization: bool = True
    pnm: bool = True
    norm_loss: bool = True
    stable_decay: bool = True
    warmup: bool = True
    warmdown: bool = True
    lookahead: bool = True

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def none(cls) -> "Toggles":
        return cls(**{f.name: False for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class Ranger21Config:
    schedule: ScheduleSpec
    moments: MomentConfig = MomentConfig()
    weight_decay: float = bounded(1e-4, ge=0.0)
    clip: ClipConfig = ClipConfig()
    k_lookahead: int = bounded(5, ge=1)
    beta_lookahead: float = bounded(0.5, ge=0.0, lt=1.0)
    toggles: Toggles = Toggles()

    def __post_init__(self) -> None:
        check_fields(self)


def default_config(eta: float, t_max: int, **overrides) -> Ranger21Config:
    """The default schedule for ``eta`` and ``t_max``, ``overrides`` (any fields of
    ``Ranger21Config`` but ``schedule``) and defaults for the rest; the adamw
    preset is this with ``toggles=Toggles.none()``."""
    schedule = built(ScheduleSpec, "schedule.{}".format, eta=eta, t_max=t_max)
    return Ranger21Config(schedule=schedule, **overrides)


def _unit_width(p: ParamTensor) -> int | None:
    """Elements per clip/centralize unit: a dim-0 slice, or None for a rank-1
    tensor, whose units are its elements."""
    return None if p.rank == 1 else p.size // p.shape[0]


@dataclass(eq=False)
class OptimizerState:
    """Each kind of optimizer state in one flat float64 buffer over all params:
    the params θ themselves, the moment slots (one flat ``MomentState``) and
    the lookahead slow weights.

    The buffers are laid out by unit kind, so that each unit-wise stage runs
    once per step over the whole buffer: every rank-1 tensor first, whose
    units are its elements, then the rank >= 2 tensors by unit width,
    registration order within a width. ``units`` holds those tensors' units
    as runs ``(lo, units, width)`` of one width each over the buffer's tail,
    which starts where the rank-1 region ends, at ``runs.size - units.size``.
    ``order`` lists the params' registration indices in the layout, ``runs``
    holds the tensors in it as runs of equal-size tensors, for every
    per-tensor reduction, ``unit_starts`` the index of each tensor's first
    unit among all units (elements of the rank-1 region first), and
    ``bounds`` maps each tensor's name, in registration order, to its
    ``(lo, hi)`` slice of every buffer. ``SpanRuns.of_runs`` builds and
    checks both layouts.

    ``initial`` gathers θ into ``flat_theta`` once, and the slow weights
    start as a copy of it; from then on the optimizer's params are read-only
    views of ``flat_theta``, built in one batch by ``ParamTensor._views``,
    which leaves the buffer itself writeable. A step swaps in new buffers and
    never writes to committed ones; after a lookahead sync ``flat_theta`` is
    ``flat_slow`` itself. A checkpoint load fills its new optimizer's buffers.
    """

    bounds: dict[str, tuple[int, int]]
    order: tuple[int, ...]
    units: SpanRuns
    runs: SpanRuns
    unit_starts: np.ndarray
    flat_theta: np.ndarray
    flat_moments: MomentState
    flat_slow: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, params: Sequence[ParamTensor]) -> "OptimizerState":
        widths = [_unit_width(p) for p in params]
        # a stable sort: registration order within a width
        order = tuple(sorted(range(len(params)), key=lambda i: widths[i] or 0))
        spans, unit_runs, lo = {}, [], 0
        for i in order:
            p, width = params[i], widths[i]
            spans[i] = (lo, lo + p.size)
            if width is not None:
                unit_runs.append((lo, p.shape[0], width))
            lo += p.size
        rank1_end = unit_runs[0][0] if unit_runs else lo
        bounds = {p.name: spans[i] for i, p in enumerate(params)}
        theta = np.concatenate([params[i].values for i in order])
        units = SpanRuns.of_runs((start - rank1_end, n, w) for start, n, w in unit_runs)
        runs = SpanRuns.of(spans.values())  # filled in buffer order
        starts = np.cumsum([0] + [params[i].shape[0] for i in order[:-1]])
        return cls(bounds, order, units, runs, starts, theta, MomentState.zeros(lo), theta.copy())


@dataclass(eq=False)
class TensorDiag:
    """Per-tensor intermediates from one step, pre-lookahead; ``decay_norm_sq``
    is ``decay``'s squared Frobenius norm."""

    name: str
    units_clipped: int
    units_total: int
    mean_vhat: float
    size: int
    update: np.ndarray
    decay: np.ndarray
    decay_norm_sq: float


@dataclass
class StepDiag:
    """What one step did: scheduled rate plus per-tensor intermediates."""

    t: int
    eta_t: float
    tensors: list[TensorDiag]

    @property
    def clip_ratio(self) -> float:
        total = sum(d.units_total for d in self.tensors)
        return sum(d.units_clipped for d in self.tensors) / total

    @property
    def mean_vhat(self) -> float:
        total = sum(d.size for d in self.tensors)
        return sum(d.mean_vhat * d.size for d in self.tensors) / total

    @property
    def decay_norm(self) -> float:
        return float(np.sqrt(sum(d.decay_norm_sq for d in self.tensors)))


Observer = Callable[[StepDiag], None]


def _check_aligned(params: Sequence[ParamTensor], grads: Sequence[ParamTensor]) -> None:
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} parameters but {len(grads)} gradients")
    for p, g in zip(params, grads):
        if p.name != g.name:
            raise ValueError(f"gradient name {g.name!r} does not match parameter {p.name!r}")
        if p.shape != g.shape:
            raise ValueError(
                f"{p.name}: gradient shape {g.shape} does not match parameter {p.shape}"
            )


def scheduled_eta(t: int, config: Ranger21Config) -> float:
    """The learning rate at 1-based step t: eta times the schedule factor of
    the phases the warm-up and warm-down toggles leave on."""
    toggles = config.toggles
    return config.schedule.eta * lr_factor(
        t, config.schedule, config.moments.beta2, warmup=toggles.warmup, warmdown=toggles.warmdown
    )


def lookahead_sync(
    fast: np.ndarray,
    slow: np.ndarray,
    t: int,
    k: int,
    beta_la: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Every k-th step, interpolate the slow weights toward the fast ones
    and substitute them: l <- beta*l + (1-beta)*theta, theta <- l.
    Other steps are a no-op. Both are flat arrays over the same tensors; a
    sync returns its one new array as both."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if k < 1:
        raise ValueError(f"lookahead period k must be >= 1, got {k}")
    if t % k != 0:
        return fast, slow
    new_slow = beta_la * slow + (1.0 - beta_la) * fast
    return new_slow, new_slow


class Optimizer:
    """Owns an ordered collection of named parameters and their state.

    Iteration order is registration order and is part of the determinism
    contract. ``step`` consumes one gradient list per call and advances the
    global counter; checkpoints round-trip the full state bit-identically.
    """

    def __init__(
        self,
        params: Sequence[ParamTensor],
        config: Ranger21Config,
        preset: str = "ranger21",
    ) -> None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
        names = [p.name for p in params]
        if not names:
            raise ValueError("an optimizer needs at least one parameter")
        if len(set(names)) != len(names):
            raise ValueError(f"parameter names must be unique, got {names}")
        self._config = config
        self.preset = preset
        self.state = OptimizerState.initial(params)
        self._params = ParamTensor._views(params, self.state.bounds.values(), self.state.flat_theta)

    @classmethod
    def adamw(
        cls, params: Sequence[ParamTensor], eta: float = 3e-3, **overrides
    ) -> "Optimizer":
        """Every toggle off; ``overrides`` are ``Ranger21Config`` fields. The step
        never reads ``t_max`` (1 here), as warm-down is off."""
        return cls(params, default_config(eta, 1, toggles=Toggles.none(), **overrides), "adamw")

    @classmethod
    def ranger21(
        cls, params: Sequence[ParamTensor], eta: float, t_max: int, **overrides
    ) -> "Optimizer":
        return cls(params, default_config(eta, t_max, **overrides), preset="ranger21")

    @property
    def config(self) -> Ranger21Config:
        """The config this optimizer was built with, fixed for its life: its
        decay config is derived from it once."""
        return self._config

    @functools.cached_property
    def _decay(self) -> DecayConfig:
        """The decay config, built at the first step: a load checks each config field once."""
        c = self._config
        return DecayConfig(c.weight_decay, c.toggles.norm_loss, c.toggles.stable_decay)

    @property
    def params(self) -> tuple[ParamTensor, ...]:
        """The params, a tuple of read-only views of ``state.flat_theta``; only a
        step replaces them, so θ and the moments always move together."""
        return self._params

    @property
    def t(self) -> int:
        return self.state.t

    def step(
        self, grads: Sequence[ParamTensor], observer: Observer | None = None
    ) -> tuple[ParamTensor, ...]:
        """One full composed step: transforms, moments, schedule, decay, lookahead.

        Component order is fixed: clip, centralize, moment update, then
        theta' = theta - eta_t * u - d, then (every k steps) lookahead
        interpolation. Disabled toggles drop out per the module docstring.

        The step reads θ from ``state.flat_theta`` and gathers only the
        gradients, into a flat buffer laid out as the state's. The unit-wise
        stages (clip, centralize) run once over that buffer, with
        ``state.units``, scaling and centring it in place; their reductions,
        and the per-tensor ones of the decay and the observer, run once per
        run of ``state.units`` or ``state.runs``; the elementwise stages run
        once over the whole buffer. The decay config
        is built at the first step and the runs with the state; the
        components are looked up in this module's globals at each call, so a
        wrapper patched in there sees every step. The returned params are
        read-only views of one new buffer, the new ``flat_theta``. The
        optimizer changes only after every stage and the observer have run,
        so a step that raises leaves it as it was.
        """
        params, state, config = self._params, self.state, self._config
        toggles = config.toggles
        t = state.t + 1
        eta_t = scheduled_eta(t, config)
        _check_aligned(params, grads)
        moment_fn = pnm_update if toggles.pnm else adam_update
        spans = list(state.bounds.values())  # registration order, as ``params``
        theta = state.flat_theta
        grad = np.concatenate([grads[i].values for i in state.order])

        factors = None
        if toggles.agc:
            factors = unit_scale_factors(grad, theta, config.clip, state.units)
            scale_units(grad, factors, state.units, out=grad)
        if toggles.centralization:
            gradient_centralize(grad, state.units, out=grad)

        u, v_hat, moments = moment_fn(state.flat_moments, grad, t, config.moments)
        # enough to check u and v_hat here: a clip keeps values finite, an overflow
        # in centralize reaches u, and one in decay or theta' the new params
        if not (np.isfinite(u).all() and np.isfinite(v_hat).all()):
            _raise_nonfinite(params, spans, u, v_hat)
        d = combined_decay(theta, v_hat, eta_t, self._decay, spans=state.runs)
        fast = theta - eta_t * u - d
        slow = state.flat_slow
        if toggles.lookahead:
            fast, slow = lookahead_sync(fast, slow, t, config.k_lookahead, config.beta_lookahead)
        if not np.isfinite(fast).all():
            _raise_nonfinite(params, spans, fast)
        new_params = ParamTensor._views(params, spans, fast)
        if observer is not None:
            runs = state.runs
            clipped = np.zeros(len(params))
            if factors is not None:
                clipped = np.add.reduceat(factors < 1.0, state.unit_starts)
            # one row per value, one column per tensor, in registration order
            per_tensor = np.empty((3, len(params)))
            per_tensor[:, state.order] = (
                runs.sums(v_hat) / runs.sizes, runs.squared_norms(d), clipped
            )
            diags = [
                TensorDiag(p.name, int(n), p.shape[0], mean, p.size, u[lo:hi], d[lo:hi], sq)
                for p, (lo, hi), mean, sq, n in zip(params, spans, *per_tensor.tolist())
            ]
            observer(StepDiag(t=t, eta_t=eta_t, tensors=diags))
        self._params, state.flat_theta, state.flat_moments, state.flat_slow, state.t = (
            new_params, fast, moments, slow, t
        )
        return new_params

    # -- checkpointing: these four, and the format, are the ``checkpoint`` module's
    to_checkpoint = checkpoint.to_checkpoint
    from_checkpoint = classmethod(checkpoint.from_checkpoint)
    save = checkpoint.save
    load = classmethod(checkpoint.load)
