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
from .tensor import ParamTensor
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


def row_count(t: ParamTensor) -> int:
    """Number of clipping units: elements for rank-1, dim-0 slices otherwise."""
    return t.size if t.rank == 1 else t.shape[0]


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

    ``state`` changes only once every tensor has been updated, so a step
    that raises leaves it as it was.
    """
    toggles = config.toggles
    eta_t = config.schedule.eta * lr_factor(
        t, config.schedule, config.moments.beta2, warmup=toggles.warmup, warmdown=toggles.warmdown
    )
    _check_aligned(params, grads)
    decay_cfg = DecayConfig(
        weight_decay=config.weight_decay,
        norm_loss=toggles.norm_loss,
        stable=toggles.stable_decay,
    )
    # diagnostics cost a mean over v_hat per tensor; build them only when read
    diags: list[TensorDiag] | None = [] if observer is not None else None

    new_params = []
    new_moments = {}
    for p, g in zip(params, grads):
        clipped = 0
        if toggles.agc:
            factors = unit_scale_factors(g, p, config.clip)
            clipped = int(np.count_nonzero(factors < 1.0))
            g = scale_units(g, factors)
        if toggles.centralization:
            g = gradient_centralize(g)
        moment_fn = pnm_update if toggles.pnm else adam_update
        u, v_hat, new_moments[p.name] = moment_fn(
            state.moments[p.name], g, t, config.moments
        )
        d = combined_decay(p, v_hat, eta_t, decay_cfg)
        new_params.append(p.with_values(p.values - eta_t * u.values - d.values))
        if diags is not None:
            diags.append(
                TensorDiag(
                    name=p.name,
                    units_clipped=clipped,
                    units_total=int(row_count(p)),
                    mean_vhat=float(np.mean(v_hat.values)),
                    size=p.size,
                    update=u.values,
                    decay=d.values,
                )
            )

    slow = state.slow
    if toggles.lookahead:
        new_params, slow = lookahead_sync(
            new_params, slow, t, config.k_lookahead, config.beta_lookahead
        )
    if observer is not None:
        observer(StepDiag(t=t, eta_t=eta_t, tensors=diags))
    state.moments.update(new_moments)
    state.slow = slow
    return new_params


def lookahead_sync(
    params: Sequence[ParamTensor],
    slow: dict[str, np.ndarray],
    t: int,
    k: int,
    beta_la: float,
) -> tuple[list[ParamTensor], dict[str, np.ndarray]]:
    """Every k-th step, interpolate the slow weights toward the fast ones
    and substitute them: l <- beta*l + (1-beta)*theta, theta <- l.
    Other steps are a no-op."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if t % k != 0:
        return list(params), slow
    new_slow = {}
    new_params = []
    for p in params:
        interpolated = beta_la * slow[p.name] + (1.0 - beta_la) * p.values
        new_slow[p.name] = interpolated
        new_params.append(p.with_values(interpolated))
    return new_params, new_slow


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
        new_params = ranger21_step(self.params, grads, self.state, t, self.config, observer)
        self.params = new_params
        self.state.t = t
        return new_params

    # -- checkpointing ------------------------------------------------------

    def to_checkpoint(self) -> dict:
        return {
            "checkpoint_version": CHECKPOINT_VERSION,
            "preset": self.preset,
            "config": config_to_dict(self.config),
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
        naming the field when the state does not fit the params or the schedule."""
        if blob.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {blob.get('checkpoint_version')}")
        params = [
            ParamTensor(entry["name"], entry["shape"], entry["values"])
            for entry in blob["params"]
        ]
        opt = cls(params, config_from_dict(blob["config"]), preset=blob["preset"])
        t, t_max = int(blob["t"]), opt.config.schedule.t_max
        if t < 0 or (opt.config.toggles.warmdown and t > t_max):
            raise ValueError(f"t: must be >= 0, and <= t_max = {t_max} with warm-down on, got {t}")
        names = [p.name for p in params]
        for key in ("moments", "slow"):
            if sorted(blob[key]) != sorted(names):
                raise ValueError(f"{key}: keys {sorted(blob[key])} do not match params {names}")
        opt.state.t = t
        for p in params:
            ms = blob["moments"][p.name]
            opt.state.moments[p.name] = MomentState(
                **{
                    buf: _checked_buffer(f"moments[{p.name!r}].{buf}", ms[buf], p.size)
                    for buf in _MOMENT_BUFFERS
                }
            )
            opt.state.slow[p.name] = _checked_buffer(
                f"slow[{p.name!r}]", blob["slow"][p.name], p.size
            )
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


def config_to_dict(config: Ranger21Config) -> dict:
    return dataclasses.asdict(config)


def _checked_buffer(where: str, values, size: int) -> np.ndarray:
    buf = np.asarray(values, dtype=np.float64)
    if buf.shape != (size,):
        raise ValueError(f"{where}: expected {size} values, got shape {buf.shape}")
    if not np.all(np.isfinite(buf)):
        raise ValueError(f"{where}: non-finite values rejected")
    return buf


def config_from_dict(blob: dict) -> Ranger21Config:
    return Ranger21Config(
        schedule=ScheduleSpec(**blob["schedule"]),
        moments=MomentConfig(**blob["moments"]),
        weight_decay=blob["weight_decay"],
        clip=ClipConfig(**blob["clip"]),
        k_lookahead=blob["k_lookahead"],
        beta_lookahead=blob["beta_lookahead"],
        toggles=Toggles(**blob["toggles"]),
    )
