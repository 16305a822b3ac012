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
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import checkpoint
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
_MOMENT_BUFFERS = tuple(f.name for f in dataclasses.fields(MomentState))


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

    @classmethod
    def none(cls) -> "Toggles":
        return cls(**{f.name: False for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class Ranger21Config:
    schedule: ScheduleSpec
    moments: MomentConfig = MomentConfig()
    weight_decay: float = 1e-4
    clip: ClipConfig = ClipConfig()
    k_lookahead: int = 5
    beta_lookahead: float = 0.5
    toggles: Toggles = Toggles()

    def __post_init__(self) -> None:
        if not self.weight_decay >= 0:  # also rejects NaN
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.k_lookahead < 1:
            raise ValueError(f"k_lookahead must be >= 1, got {self.k_lookahead}")
        if not 0.0 <= self.beta_lookahead < 1.0:
            raise ValueError(
                f"beta_lookahead must be in [0, 1), got {self.beta_lookahead}"
            )
        _check_leaves(self, "")  # last, so a value out of range gets its message above


def default_config(eta: float, t_max: int, **overrides) -> Ranger21Config:
    """The default schedule for ``eta`` and ``t_max``, ``overrides`` (any fields of
    ``Ranger21Config`` but ``schedule``) and defaults for the rest; the adamw
    preset is this with ``toggles=Toggles.none()``."""
    return Ranger21Config(schedule=ScheduleSpec(eta=eta, t_max=t_max), **overrides)


def _unit_width(p: ParamTensor) -> int | None:
    """Elements per clip/centralize unit: a dim-0 slice, or None for a rank-1
    tensor, whose units are its elements."""
    return None if p.rank == 1 else p.size // p.shape[0]


@dataclass
class OptimizerState:
    """Each kind of optimizer state in one flat float64 buffer over all params:
    the params θ themselves, the moment slots (one flat ``MomentState``) and
    the lookahead slow weights.

    The buffers are laid out by unit kind, so that the unit-wise stages run
    once per group: every rank-1 tensor first, then the rank >= 2 tensors
    grouped by unit width, registration order within a group. ``order`` lists
    the params' registration indices in that layout, ``groups`` holds each
    group's ``(lo, hi, width)`` (width None for the rank-1 group), ``runs``
    holds the tensors in that layout as runs of equal-size tensors, for every
    per-tensor reduction, ``unit_starts`` the index of each tensor's first
    unit among all groups' units end to end, and ``bounds`` maps each tensor's
    name, in registration order, to its ``(lo, hi)`` slice; ``moments`` and
    ``slow`` are per-name views.

    ``initial`` gathers θ into ``flat_theta`` once, and the slow weights
    start as a copy of it; from then on the optimizer's params are read-only
    views of ``flat_theta``, built in one batch by ``ParamTensor._views``,
    which leaves the buffer itself writeable. A step swaps in new buffers and
    never writes to committed ones; after a lookahead sync ``flat_theta`` is
    ``flat_slow`` itself. A checkpoint load fills its new optimizer's buffers.
    """

    bounds: dict[str, tuple[int, int]]
    order: tuple[int, ...]
    groups: list[tuple[int, int, int | None]]
    runs: SpanRuns
    unit_starts: np.ndarray
    flat_theta: np.ndarray
    flat_moments: MomentState
    flat_slow: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, params: Sequence[ParamTensor]) -> "OptimizerState":
        widths = [_unit_width(p) for p in params]
        # a stable sort: registration order within a group
        order = tuple(sorted(range(len(params)), key=lambda i: widths[i] or 0))
        spans, groups, lo = {}, [], 0
        for i in order:
            hi = lo + params[i].size
            spans[i] = (lo, hi)
            if groups and groups[-1][2] == widths[i]:
                groups[-1] = (groups[-1][0], hi, widths[i])
            else:
                groups.append((lo, hi, widths[i]))
            lo = hi
        bounds = {p.name: spans[i] for i, p in enumerate(params)}
        theta = np.concatenate([params[i].values for i in order])
        runs = SpanRuns.of(spans.values())  # filled in buffer order
        starts = np.cumsum([0] + [params[i].shape[0] for i in order[:-1]])
        return cls(bounds, order, groups, runs, starts, theta, MomentState.zeros(lo), theta.copy())

    @property
    def moments(self) -> dict[str, MomentState]:
        flat = [getattr(self.flat_moments, b) for b in _MOMENT_BUFFERS]
        return {
            name: MomentState(*(buf[lo:hi] for buf in flat))
            for name, (lo, hi) in self.bounds.items()
        }

    @property
    def slow(self) -> dict[str, np.ndarray]:
        return {name: self.flat_slow[lo:hi] for name, (lo, hi) in self.bounds.items()}


@dataclass
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
        self._decay = DecayConfig(
            weight_decay=config.weight_decay,
            norm_loss=config.toggles.norm_loss,
            stable=config.toggles.stable_decay,
        )

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
        stages (clip, centralize) run once per group of ``state.groups``, on
        its ``(units, width)`` view, and the per-tensor reductions, the
        decay's and the observer's, once per run of ``state.runs``; the
        elementwise stages run once over the whole buffer. The decay config
        is built with the optimizer and the runs with its state; the
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

        factors = []
        if toggles.agc or toggles.centralization:
            for lo, hi, width in state.groups:
                g, th = grad[lo:hi], theta[lo:hi]
                if width is not None:
                    g, th = g.reshape(-1, width), th.reshape(-1, width)
                if toggles.agc:
                    factors.append(unit_scale_factors(g, th, config.clip))
                    g = scale_units(g, factors[-1])
                if toggles.centralization:
                    g = gradient_centralize(g)
                grad[lo:hi] = g.reshape(-1)

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
            if factors:
                clipped = np.add.reduceat(np.concatenate(factors) < 1.0, state.unit_starts)
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

    # -- checkpointing: the format is the ``checkpoint`` module's --------------

    def to_checkpoint(self) -> dict:
        """The full state as a JSON-ready v3 dict, which round-trips bit-exactly."""
        return checkpoint.to_checkpoint(self)

    @classmethod
    def from_checkpoint(cls, blob) -> "Optimizer":
        """The optimizer a v3 or v2 dict describes; ValueError names the field at fault."""
        return checkpoint.from_checkpoint(cls, blob)

    def save(self, path) -> None:
        """Write the state to ``path`` as a v4 file; a failed save keeps the old file."""
        checkpoint.save(self, path)

    @classmethod
    def load(cls, path) -> "Optimizer":
        """The optimizer a ``save`` wrote to ``path``, or a v2 or v3 file holds."""
        return checkpoint.load(cls, path)

    def _buffers(self) -> tuple[np.ndarray, ...]:
        """The state's six flat buffers: θ, the moment slots, the slow weights."""
        state = self.state
        moments = (getattr(state.flat_moments, b) for b in _MOMENT_BUFFERS)
        return (state.flat_theta, *moments, state.flat_slow)


_EXPECTED = {
    "bool": "true or false", "int": "an integer", "int | None": "an integer or null",
    "float": "a finite number", "str": "a string",
}
# a bound's keyword -> its sign in messages and its test
_BOUNDS = {
    "ge": (">=", operator.ge), "gt": (">", operator.gt),
    "le": ("<=", operator.le), "lt": ("<", operator.lt),
}


def checked_value(kind: str, value, where: str, **bounds):
    """``value`` if it fits ``kind``, a field's annotation: ``bool``, ``int`` (not
    a bool), ``int | None``, ``float`` (a finite int or float, returned as a
    float), ``str``, or ``tuple[T, ...]`` (a JSON list of ``T``, returned as a
    tuple), and meets each of ``bounds`` (``ge=1`` means >= 1; also ``gt``,
    ``le``, ``lt``), a list entry by entry. ValueError names ``where``, or
    ``where[i]`` for the first bad list entry."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if kind == "float":
        # abs() <= max rejects inf and nan, and ints a float cannot hold
        ok = (is_int or isinstance(value, float)) and abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    elif kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "str":
        ok = isinstance(value, str)
    elif kind in ("int", "int | None"):
        ok = is_int or (value is None and kind == "int | None")
    else:  # "tuple[T, ...]"
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        item = kind[len("tuple[") : -len(", ...]")]
        return tuple(
            checked_value(item, x, f"{where}[{i}]", **bounds) for i, x in enumerate(value)
        )
    if not ok:
        raise ValueError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    for name, bound in bounds.items():
        sign, holds = _BOUNDS[name]
        if not holds(value, bound):
            raise ValueError(f"{where}: must be {sign} {bound}, got {value}")
    return value


# the config parts a checkpoint nests, by their annotation in Ranger21Config
_PARTS = {cls.__name__: cls for cls in (ScheduleSpec, MomentConfig, ClipConfig, Toggles)}


def _check_leaves(config, where: str) -> None:
    """Check every field of ``config`` and of its parts against its annotation."""
    for name, f in config.__dataclass_fields__.items():
        value, part = getattr(config, name), _PARTS.get(f.type)
        if part is None:  # stored as checked: a float field holds a float
            object.__setattr__(config, name, checked_value(f.type, value, f"{where}{name}"))
        elif not isinstance(value, part):
            raise ValueError(f"{where}{name}: expected a {part.__name__}, got {value!r}")
        else:
            _check_leaves(value, f"{where}{name}.")


def checked_call(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a TypeError, ValueError or OverflowError it
    raises becomes a ValueError that names ``where``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
