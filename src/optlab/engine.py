"""Optimizer presets and the step loop.

One step function, ``ranger21_step``, serves both presets; a preset is a
named ``Ranger21Config``:

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
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .moments import (
    DecayConfig,
    MomentConfig,
    MomentState,
    adam_update,
    combined_decay,
    pnm_update,
)
from .schedule import ScheduleSpec, lr_factor
from .tensor import NonFiniteError, ParamTensor
from .transforms import ClipConfig, gradient_centralize, scale_units, unit_scale_factors

PRESETS = ("adamw", "ranger21")

CHECKPOINT_VERSION = 2
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
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.k_lookahead < 1:
            raise ValueError(f"k_lookahead must be >= 1, got {self.k_lookahead}")
        if not 0.0 <= self.beta_lookahead < 1.0:
            raise ValueError(
                f"beta_lookahead must be in [0, 1), got {self.beta_lookahead}"
            )


def default_config(eta: float, t_max: int, **overrides) -> Ranger21Config:
    """Config with every hyperparameter at its preset default."""
    schedule = overrides.pop("schedule", ScheduleSpec(eta=eta, t_max=t_max))
    return Ranger21Config(schedule=schedule, **overrides)


def adamw_config(
    eta: float,
    t_max: int,
    weight_decay: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> Ranger21Config:
    """The adamw preset: every toggle off, plain decoupled decay.

    ``t_max`` is the run length; the step never reads it, as warm-down is off.
    """
    return Ranger21Config(
        schedule=ScheduleSpec(eta=eta, t_max=t_max),
        moments=MomentConfig(beta1=beta1, beta2=beta2, eps=eps),
        weight_decay=weight_decay,
        toggles=Toggles.none(),
    )


@dataclass
class OptimizerState:
    """Per-tensor moment slots, lookahead slow weights, and the step counter."""

    moments: dict[str, MomentState]
    slow: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def initial(cls, params: Sequence[ParamTensor]) -> "OptimizerState":
        return cls(
            moments={p.name: MomentState.zeros(p.size) for p in params},
            slow={p.name: p.values.copy() for p in params},
        )


@dataclass
class TensorDiag:
    """Per-tensor intermediates from one step, pre-lookahead."""

    name: str
    units_clipped: int
    units_total: int
    mean_vhat: float
    size: int
    update: np.ndarray
    decay: np.ndarray


@dataclass
class StepDiag:
    """What one step did: scheduled rate plus per-tensor intermediates."""

    t: int
    eta_t: float
    tensors: list[TensorDiag] = field(default_factory=list)

    @property
    def clip_ratio(self) -> float:
        total = sum(d.units_total for d in self.tensors)
        if total == 0:
            return 0.0
        return sum(d.units_clipped for d in self.tensors) / total

    @property
    def mean_vhat(self) -> float:
        total = sum(d.size for d in self.tensors)
        if total == 0:
            return 0.0
        return sum(d.mean_vhat * d.size for d in self.tensors) / total

    @property
    def decay_norm(self) -> float:
        return float(
            np.sqrt(sum(float(np.dot(d.decay, d.decay)) for d in self.tensors))
        )


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


def ranger21_step(
    params: Sequence[ParamTensor],
    grads: Sequence[ParamTensor],
    state: OptimizerState,
    t: int,
    config: Ranger21Config,
    observer: Observer | None = None,
) -> list[ParamTensor]:
    """One full composed step: transforms, moments, schedule, decay, lookahead.

    Component order is fixed: clip, centralize, moment update, then
    theta' = theta - eta_t * u - d, then (every k steps) lookahead
    interpolation. Disabled toggles drop out per the module docstring.

    Components compute on arrays; the step builds one ``ParamTensor`` per
    parameter, after lookahead. ``state`` changes only once every tensor has
    been updated, so a step that raises leaves it as it was.
    """
    toggles = config.toggles
    eta_t = scheduled_eta(t, config)
    _check_aligned(params, grads)
    decay_cfg = DecayConfig(
        weight_decay=config.weight_decay,
        norm_loss=toggles.norm_loss,
        stable=toggles.stable_decay,
    )
    moment_fn = pnm_update if toggles.pnm else adam_update
    # diagnostics cost a mean over v_hat per tensor; build them only when read
    diags: list[TensorDiag] | None = [] if observer is not None else None

    fast = {}
    new_moments = {}
    for p, g in zip(params, grads):
        grad = g.array
        clipped = 0
        if toggles.agc:
            factors = unit_scale_factors(grad, p.array, config.clip)
            clipped = int(np.count_nonzero(factors < 1.0))
            grad = scale_units(grad, factors)
        if toggles.centralization:
            grad = gradient_centralize(grad)
        u, v_hat, new_moments[p.name] = moment_fn(
            state.moments[p.name], grad.reshape(-1), t, config.moments
        )
        # enough to check u and v_hat here: a clip keeps values finite, an overflow
        # in centralize reaches u, and one in decay or theta' the new params
        if not (np.isfinite(u).all() and np.isfinite(v_hat).all()):
            raise NonFiniteError(f"{p.name}: non-finite values rejected")
        d = combined_decay(p.values, v_hat, eta_t, decay_cfg)
        fast[p.name] = p.values - eta_t * u - d
        if diags is not None:
            diags.append(
                TensorDiag(
                    name=p.name,
                    units_clipped=clipped,
                    units_total=p.shape[0],
                    mean_vhat=float(np.mean(v_hat)),
                    size=p.size,
                    update=u,
                    decay=d,
                )
            )

    slow = state.slow
    if toggles.lookahead:
        fast, slow = lookahead_sync(fast, slow, t, config.k_lookahead, config.beta_lookahead)
    new_params = [ParamTensor(p.name, p.shape, fast[p.name]) for p in params]
    if observer is not None:
        observer(StepDiag(t=t, eta_t=eta_t, tensors=diags))
    state.moments.update(new_moments)
    state.slow = slow
    return new_params


def lookahead_sync(
    fast: dict[str, np.ndarray],
    slow: dict[str, np.ndarray],
    t: int,
    k: int,
    beta_la: float,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Every k-th step, interpolate the slow weights toward the fast ones
    and substitute them: l <- beta*l + (1-beta)*theta, theta <- l.
    Other steps are a no-op. Both maps go from tensor name to flat values."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if t % k != 0:
        return fast, slow
    new_slow = {
        name: beta_la * slow[name] + (1.0 - beta_la) * theta for name, theta in fast.items()
    }
    return dict(new_slow), new_slow


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
        if len(set(names)) != len(names):
            raise ValueError(f"parameter names must be unique, got {names}")
        self.params = list(params)
        self.config = config
        self.preset = preset
        self.state = OptimizerState.initial(params)

    @classmethod
    def adamw(
        cls,
        params: Sequence[ParamTensor],
        eta: float = 3e-3,
        weight_decay: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "Optimizer":
        config = adamw_config(eta, 1, weight_decay, beta1, beta2, eps)
        return cls(params, config, preset="adamw")

    @classmethod
    def ranger21(
        cls, params: Sequence[ParamTensor], eta: float, t_max: int, **overrides
    ) -> "Optimizer":
        return cls(params, default_config(eta, t_max, **overrides), preset="ranger21")

    @property
    def t(self) -> int:
        return self.state.t

    def step(
        self, grads: Sequence[ParamTensor], observer: Observer | None = None
    ) -> list[ParamTensor]:
        t = self.state.t + 1
        self.params = ranger21_step(self.params, grads, self.state, t, self.config, observer)
        self.state.t = t
        return self.params

    # -- checkpointing ------------------------------------------------------

    def to_checkpoint(self) -> dict:
        return {
            "checkpoint_version": CHECKPOINT_VERSION,
            "preset": self.preset,
            "config": dataclasses.asdict(self.config),
            "t": self.state.t,
            "params": [
                {"name": p.name, "shape": list(p.shape), "values": p.values.tolist()}
                for p in self.params
            ],
            "moments": {
                name: {buf: getattr(ms, buf).tolist() for buf in _MOMENT_BUFFERS}
                for name, ms in self.state.moments.items()
            },
            "slow": {name: buf.tolist() for name, buf in self.state.slow.items()},
        }

    @classmethod
    def from_checkpoint(cls, blob: dict) -> "Optimizer":
        """Rebuild an optimizer from ``to_checkpoint`` output; raises ValueError
        naming the field when a field is missing or malformed, or when the
        state does not fit the params or the schedule."""
        if blob.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {blob.get('checkpoint_version')}")
        for key in ("preset", "config", "t", "params", "moments", "slow"):
            _field(blob, key, key)
        params = [_param_from_dict(entry, f"params[{i}]") for i, entry in enumerate(blob["params"])]
        config = _config_from_dict(blob["config"])
        opt = cls(params, config, preset=blob["preset"])
        t, t_max = blob["t"], config.schedule.t_max
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"t: must be an integer, got {t!r}")
        if t < 0 or (config.toggles.warmdown and t > t_max):
            raise ValueError(f"t: must be >= 0, and <= t_max = {t_max} with warm-down on, got {t}")
        names = [p.name for p in params]
        for key in ("moments", "slow"):
            if sorted(blob[key]) != sorted(names):
                raise ValueError(f"{key}: keys {sorted(blob[key])} do not match params {names}")
        opt.state.t = t
        for p in params:
            ms, name = blob["moments"][p.name], repr(p.name)
            opt.state.moments[p.name] = MomentState(
                *(_checked_buffer(ms, b, f"moments[{name}].{b}", p.size) for b in _MOMENT_BUFFERS)
            )
            opt.state.slow[p.name] = _checked_buffer(blob["slow"], p.name, f"slow[{name}]", p.size)
        return opt

    def save(self, path: str | Path) -> None:
        """Write the checkpoint to a temp file beside ``path``, then rename it
        over ``path``, so a failed save never leaves a truncated file there."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        text = json.dumps(self.to_checkpoint())
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Optimizer":
        return cls.from_checkpoint(json.loads(Path(path).read_text()))


def _checked_buffer(mapping: dict, key: str, where: str, size: int) -> np.ndarray:
    buf = np.asarray(_field(mapping, key, where), dtype=np.float64)
    if buf.shape != (size,):
        raise ValueError(f"{where}: expected {size} values, got shape {buf.shape}")
    if not np.all(np.isfinite(buf)):
        raise ValueError(f"{where}: non-finite values rejected")
    return buf


def _field(mapping, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"{where}: missing")
    return mapping[key]


def _exact_fields(cls, blob, where: str) -> dict:
    names = cls.__dataclass_fields__.keys()
    if not isinstance(blob, dict) or blob.keys() != names:
        raise ValueError(f"{where}: expected an object with keys {sorted(names)}, got {blob!r}")
    return blob


def _config_from_dict(blob) -> Ranger21Config:
    """Build the config from a dict holding exactly its fields, and its parts
    from nested dicts; ValueError names the field at fault."""
    kwargs = dict(_exact_fields(Ranger21Config, blob, "config"))
    parts = {
        "schedule": ScheduleSpec, "moments": MomentConfig, "clip": ClipConfig, "toggles": Toggles
    }
    for name, part in parts.items():
        where = f"config.{name}"
        kwargs[name] = _built(where, part, **_exact_fields(part, blob[name], where))
    return _built("config", Ranger21Config, **kwargs)


def _param_from_dict(entry, where: str) -> ParamTensor:
    fields = [_field(entry, key, f"{where}.{key}") for key in ("name", "shape", "values")]
    return _built(where, ParamTensor, *fields)


def _built(where: str, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
