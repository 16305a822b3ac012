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

import base64
import binascii
import dataclasses
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

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

CHECKPOINT_VERSION = 4
# v2 stores each buffer as a JSON list of numbers, v3 as base64 of its '<f8' bytes, and
# v4, the file ``save`` writes, as the byte offset of those bytes after the document line
_DICT_VERSION = 3
_V4_START = b'{"checkpoint_version": 4, '
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
    ``flat_slow`` itself. A checkpoint load fills the state its new optimizer
    built before anything else holds it: a v4 load copies all six buffers whole
    from the file's section, whose offsets follow this layout, a v2 or v3 load
    each decoded moment and slow-weight buffer into its per-name view.
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

    # -- checkpointing ------------------------------------------------------

    def to_checkpoint(self) -> dict:
        """The full state as a JSON-ready dict, format v3: each float64 buffer is a
        base64 string of its little-endian bytes, so a round trip is bit-exact."""
        bufs = self._buffers()
        return self._checkpoint(
            _DICT_VERSION, lambda k, lo, hi: _encoded(bufs[k][lo:hi]).decode("ascii")
        )

    def _buffers(self) -> tuple[np.ndarray, ...]:
        """The state's six flat buffers: θ, the moment slots, the slow weights."""
        state = self.state
        moments = (getattr(state.flat_moments, b) for b in _MOMENT_BUFFERS)
        return (state.flat_theta, *moments, state.flat_slow)

    def _checkpoint(self, version: int, leaf: Callable[[int, int, int], object]) -> dict:
        """The checkpoint document; a tensor's leaf for buffer k of ``_buffers()``
        is ``leaf(k, lo, hi)``, with ``lo:hi`` its slice of that buffer."""
        bounds = self.state.bounds
        return {
            "checkpoint_version": version,
            "preset": self.preset,
            "config": dataclasses.asdict(self.config),
            "t": self.state.t,
            "params": [
                {"name": p.name, "shape": list(p.shape), "values": leaf(0, *bounds[p.name])}
                for p in self.params
            ],
            "moments": {
                name: {b: leaf(k, *span) for k, b in enumerate(_MOMENT_BUFFERS, 1)}
                for name, span in bounds.items()
            },
            "slow": {name: leaf(len(_MOMENT_BUFFERS) + 1, *span) for name, span in bounds.items()},
        }

    @classmethod
    def from_checkpoint(cls, blob) -> "Optimizer":
        """Rebuild an optimizer from ``to_checkpoint`` output, or from a version-2
        blob, whose buffers are lists of numbers; raises ValueError naming the
        field when a field is missing, has the wrong type or is out of range, or
        when the state does not fit the params or the schedule."""
        return cls._rebuilt(blob, None)

    @classmethod
    def _rebuilt(cls, blob, section: memoryview | None) -> "Optimizer":
        """The optimizer the checkpoint ``blob`` describes: ``from_checkpoint``'s
        when ``section`` is None, else that of a v4 file's document line, whose
        buffer leaves are offsets into ``section``, the file's raw section, which
        must be exactly six buffers long. A v4 load builds the optimizer from the
        names and shapes alone, then ``_read_section`` fills its six buffers whole;
        a v2 or v3 load walks each tensor's fields and raises at the first field at fault."""
        if not isinstance(blob, dict):
            raise ValueError(f"checkpoint: expected an object, got {type(blob).__name__}")
        version = blob.get("checkpoint_version")
        readers = (
            {2: _listed, _DICT_VERSION: _decoded} if section is None
            else {CHECKPOINT_VERSION: None}
        )
        if not (isinstance(version, int) and version in readers):
            raise ValueError(f"checkpoint_version: unsupported checkpoint version {version!r}")
        read = readers[version]
        for key in ("preset", "config", "t", "params", "moments", "slow"):
            _field(blob, key, key)
        if not isinstance(blob["params"], list):
            raise ValueError(f"params: expected a list, got {type(blob['params']).__name__}")
        params = [
            _param_from_dict(entry, f"params[{i}]", read)
            for i, entry in enumerate(blob["params"])
        ]
        if section is not None and len(section) != _offset(6, n := sum(p.size for p in params), 0):
            raise ValueError(
                f"params: their values take a {_offset(6, n, 0)}-byte section, got {len(section)}"
            )
        config = _from_dict(Ranger21Config, blob["config"], "config")
        if blob["preset"] not in PRESETS:
            raise ValueError(f"preset: expected one of {PRESETS}, got {blob['preset']!r}")
        opt = checked_call("params", cls, params, config, preset=blob["preset"])
        params = opt.params  # the decoded values are in opt.state now: let them go
        t, t_max = checked_value("int", blob["t"], "t"), config.schedule.t_max
        if t < 0 or (config.toggles.warmdown and t > t_max):
            raise ValueError(f"t: must be >= 0, and <= t_max = {t_max} with warm-down on, got {t}")
        names = [p.name for p in params]
        for key in ("moments", "slow"):
            if not isinstance(blob[key], dict) or blob[key].keys() != set(names):
                raise ValueError(f"{key}: expected an object keyed by the param names {names}")
        if section is not None:
            _read_section(opt, blob, section)
        else:
            # one copy per buffer: each decoded array into its view of the new state;
            # the walk names the first field at fault
            moments, slow = opt.state.moments, opt.state.slow
            for p in params:
                ms, name = blob["moments"][p.name], repr(p.name)
                for b in _MOMENT_BUFFERS:
                    where = f"moments[{name}].{b}"
                    getattr(moments[p.name], b)[:] = _checked_buffer(ms, b, where, p.size, read)
                where = f"slow[{name}]"
                slow[p.name][:] = _checked_buffer(blob["slow"], p.name, where, p.size, read)
        opt.state.t = t
        return opt

    def save(self, path: str | Path) -> None:
        """Write the checkpoint in format v4 to a temp file beside ``path``, then
        rename it over ``path``, so a failed save never leaves a truncated file
        there. The file's first line is ``json.dumps`` of the ``to_checkpoint``
        document at version 4, each buffer leaf an int; the raw section after its
        newline holds the six ``_buffers()`` of length n as '<f8' bytes, so a
        tensor's slice ``lo:hi`` of buffer k starts at byte ``8 * (k * n + lo)``."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        n = self.state.flat_theta.size
        doc = json.dumps(self._checkpoint(CHECKPOINT_VERSION, lambda k, lo, hi: _offset(k, n, lo)))
        try:
            with open(tmp, "wb") as f:
                f.write(doc.encode("ascii") + b"\n")
                for buf in self._buffers():
                    f.write(np.ascontiguousarray(buf, dtype="<f8"))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Optimizer":
        """The optimizer a ``save`` wrote to ``path``. A file that starts as
        ``save`` starts it is read as v4, any other as one JSON document (v2 or
        v3); raises ValueError when the document is not JSON, or as
        ``from_checkpoint`` does."""
        data = Path(path).read_bytes()
        v4 = data.startswith(_V4_START)
        end = data.find(b"\n") if v4 else len(data)
        try:
            if end < 0:
                raise ValueError("the document line has no newline")
            blob = json.loads(data[:end])
        except ValueError as exc:  # a UnicodeDecodeError, a JSONDecodeError, or an int
            # past Python's digit limit
            raise ValueError(f"checkpoint: not valid JSON: {exc}") from exc
        return cls._rebuilt(blob, memoryview(data)[end + 1 :] if v4 else None)


def _encoded(buf: np.ndarray) -> bytes:
    """The base64 text of ``buf``'s little-endian float64 bytes, read in place."""
    return binascii.b2a_base64(np.ascontiguousarray(buf, dtype="<f8"), newline=False)


def _offset(k: int, n: int, lo: int) -> int:
    """The byte offset in a v4 section of value lo of buffer k of n: the one ``save`` writes."""
    return 8 * (k * n + lo)


def _read_section(opt: Optimizer, blob: dict, section: memoryview) -> None:
    """Copy ``opt``'s six buffers whole from a v4 file's raw ``section``, which holds
    exactly them, checking each copy once; then, in the v2/v3 walk's order, raise
    ValueError at the first leaf not at the offset ``save`` writes or not finite."""
    bufs = opt._buffers()
    n = bufs[0].size
    finite = []
    for k, buf in enumerate(bufs):
        buf[:] = np.frombuffer(section, dtype="<f8", count=n, offset=_offset(k, n, 0))
        finite.append(np.isfinite(buf).all())
    for i, (name, (lo, hi)) in enumerate(opt.state.bounds.items()):
        leaves = [(blob["params"][i], "values", f"params[{i}].values")]
        leaves += [(blob["moments"][name], b, f"moments[{name!r}].{b}") for b in _MOMENT_BUFFERS]
        leaves.append((blob["slow"], name, f"slow[{name!r}]"))
        for k, (mapping, key, where) in enumerate(leaves):
            offset, expected = _field(mapping, key, where), _offset(k, n, lo)
            if type(offset) is not int or offset != expected:
                raise ValueError(
                    f"{where}: expected {expected}, the offset save writes, got {offset!r}"
                )
            if not finite[k] and not np.isfinite(bufs[k][lo:hi]).all():
                raise ValueError(f"{where}: non-finite values rejected")


def _decoded(text, where: str, size: int) -> np.ndarray:
    """The float64 array a v3 buffer string encodes; it must hold ``size`` values."""
    if not isinstance(text, str):
        raise ValueError(f"{where}: expected a base64 string, got {type(text).__name__}")
    raw = checked_call(where, base64.b64decode, text, validate=True)
    if len(raw) != 8 * size:
        raise ValueError(f"{where}: expected {8 * size} bytes ({size} values), got {len(raw)}")
    # a read-only view of ``raw``: the caller makes the one copy, into the flat state
    return np.frombuffer(raw, dtype="<f8")


def _listed(values, where: str, size: int) -> np.ndarray:
    """The float64 array a v2 buffer list holds; it must hold ``size`` numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{where}: expected a list of numbers, got {type(values).__name__}")
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{where}: expected a list of numbers, got {x!r} at index {i}")
    if len(values) != size:
        raise ValueError(f"{where}: expected {size} values, got {len(values)}")
    return checked_call(where, np.array, values, dtype=np.float64)


def _checked_buffer(mapping: dict, key: str, where: str, size: int, read) -> np.ndarray:
    """The buffer ``read``, the reader of the checkpoint's version, takes from
    ``mapping[key]``; it must hold ``size`` finite values."""
    buf = read(_field(mapping, key, where), where, size)
    if not np.isfinite(buf).all():
        raise ValueError(f"{where}: non-finite values rejected")
    return buf


def _field(mapping, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{where}: missing")
    return mapping[key]


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


def _from_dict(cls, blob, where: str):
    """Build config dataclass ``cls`` from a dict holding exactly its fields, each
    checked against its annotation, and its parts from nested dicts; ValueError
    names the field at fault."""
    fields = cls.__dataclass_fields__
    if not isinstance(blob, dict) or blob.keys() != fields.keys():
        raise ValueError(f"{where}: expected an object with keys {sorted(fields)}, got {blob!r}")
    kwargs = {}
    for name, f in fields.items():
        path = f"{where}.{name}"
        part = _PARTS.get(f.type)
        kwargs[name] = (
            _from_dict(part, blob[name], path) if part else checked_value(f.type, blob[name], path)
        )
    return checked_call(where, cls, **kwargs)


def _param_from_dict(entry, where: str, read) -> ParamTensor:
    """The param ``entry`` names, of its shape, with the values ``read``, the reader of
    the checkpoint's version, checks; for v4 (``read`` None) zeros that take no memory."""
    name = checked_value("str", _field(entry, "name", f"{where}.name"), f"{where}.name")
    shape = checked_value(
        "tuple[int, ...]", _field(entry, "shape", f"{where}.shape"), f"{where}.shape", ge=1
    )
    if not shape:
        raise ValueError(f"{where}.shape: expected a non-empty list, got []")
    size = math.prod(shape)
    if read is None:  # a zero-stride view of one 0.0: the load copies θ whole later
        values = checked_call(f"{where}.shape", np.ndarray, (size,), buffer=bytes(8), strides=(0,))
    else:
        values = _checked_buffer(entry, "values", f"{where}.values", size, read)
    return ParamTensor._adopt(name, shape, values)  # checked above as ParamTensor checks


def checked_call(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a TypeError, ValueError or OverflowError it
    raises becomes a ValueError that names ``where``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
