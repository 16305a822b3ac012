"""The checkpoint format, v4: one line of JSON, the document, then a raw section
of six '<f8' buffers of the state, in ``_buffers`` order: θ, the ``MOMENT_SLOTS``
and the slow weights. Each of a tensor's six leaves is the byte offset in the
section of its slice of one buffer. ``save`` writes these bytes, ``to_checkpoint``
returns them and ``from_checkpoint`` reads them.

Every object in the document is held by ``_held`` to exactly the keys ``save``
writes: a fault names the object if it is not one, else its first missing key
(``moments['a'].v: missing``), else the object and its first unexpected key
(``params[0]: unexpected key 'dtype'``). A load checks, in order: the document's
keys, its version, each param's keys, name and shape, the section's length (with
no newline after the line, the section is empty), the config (each part held to
its fields and built, a fault renamed to its path, ``config.moments.eps``), the
preset, ``t``, the ``moments`` and ``slow`` keys, then each buffer whole and every
leaf in one walk of ``_leaves`` in registration order, a moment entry's keys as
the walk reaches its tensor. So a bad config is named before any tensor's bad leaf."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from . import engine  # read at call time: engine imports this module
from .fields import built, checked_value, field_kinds
from .tensor import ParamTensor

CHECKPOINT_VERSION = 4
# The keys of each ``moments[name]`` entry, each the name of its buffer in
# ``state.flat_moments``, in section order: the section holds θ, these, the slow weights
MOMENT_SLOTS = ("m_prev", "m_prev2", "v", "v_max")
_DOCUMENT = ("checkpoint_version", "preset", "config", "t", "params", "moments", "slow")


def _buffers(state) -> tuple[np.ndarray, ...]:
    """``state``'s six flat buffers, in section order."""
    moments = (getattr(state.flat_moments, slot) for slot in MOMENT_SLOTS)
    return (state.flat_theta, *moments, state.flat_slow)


def _leaves(doc: dict, i: int, name: str) -> list[tuple[dict, str, str]]:
    """Tensor ``i``'s six leaves in ``doc``, in section order: (mapping, key, error field)."""
    moments = doc["moments"][name]
    return [
        (doc["params"][i], "values", f"params[{i}].values"),
        *((moments, slot, f"moments[{name!r}].{slot}") for slot in MOMENT_SLOTS),
        (doc["slow"], name, f"slow[{name!r}]"),
    ]


def _parts(opt) -> list:
    """``opt``'s checkpoint in the order it is written: the document line, then
    the six buffers' '<f8' bytes, read in place."""
    bounds, n = opt.state.bounds, opt.state.flat_theta.size
    doc = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "preset": opt.preset,
        "config": dataclasses.asdict(opt.config),
        "t": opt.state.t,
        "params": [{"name": p.name, "shape": list(p.shape)} for p in opt.params],
        "moments": {name: {} for name in bounds},
        "slow": {},
    }
    for i, (name, (lo, _)) in enumerate(bounds.items()):
        for k, (mapping, key, _) in enumerate(_leaves(doc, i, name)):
            mapping[key] = _offset(k, n, lo)
    line = json.dumps(doc).encode("ascii") + b"\n"
    return [line, *(np.ascontiguousarray(buf, dtype="<f8") for buf in _buffers(opt.state))]


def to_checkpoint(opt) -> bytes:
    """``opt``'s checkpoint: the bytes ``save`` writes."""
    return b"".join(_parts(opt))


def from_checkpoint(cls, data: bytes):
    """The ``cls`` optimizer the checkpoint bytes ``data`` hold; ValueError names
    the field at fault. The params are built from their names and shapes, then
    ``_fill`` fills the optimizer from the section."""
    if not isinstance(data, bytes):
        raise TypeError(f"a checkpoint is bytes, got {type(data).__name__}")
    end = data.find(b"\n") if b"\n" in data else len(data)
    try:  # bad UTF-8, bad JSON, or an int past the digit limit
        doc = json.loads(data[:end])
    except ValueError as exc:
        raise ValueError(f"checkpoint: not valid JSON: {exc}") from exc
    _held(doc, _DOCUMENT, "checkpoint", str)
    version = doc["checkpoint_version"]
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint_version: unsupported checkpoint version {version!r}")
    if not isinstance(doc["params"], list):
        raise ValueError(f"params: expected a list, got {type(doc['params']).__name__}")
    params = [_param(e, f"params[{i}]") for i, e in enumerate(doc["params"])]
    section = memoryview(data)[end + 1 :]
    if len(section) != _offset(6, n := sum(p.size for p in params), 0):
        raise ValueError(
            f"params: their values take a {_offset(6, n, 0)}-byte section, got {len(section)}"
        )
    config = _from_dict(engine.Ranger21Config, doc["config"], "config")
    if doc["preset"] not in engine.PRESETS:
        raise ValueError(f"preset: expected one of {engine.PRESETS}, got {doc['preset']!r}")
    opt = _checked_call("params", cls, params, config, preset=doc["preset"])
    t, t_max = checked_value("int", doc["t"], "t"), config.schedule.t_max
    if t < 0 or (config.toggles.warmdown and t > t_max):
        raise ValueError(f"t: must be >= 0, and <= t_max = {t_max} with warm-down on, got {t}")
    for key in ("moments", "slow"):
        _held(doc[key], opt.state.bounds, key, f"{key}[{{!r}}]".format)
    _fill(opt, doc, section)
    opt.state.t = t
    return opt


def _fill(opt, doc: dict, section: memoryview) -> None:
    """Fill ``opt``'s buffers whole from ``section``, each checked once, then walk
    the leaves: each must be the offset ``save`` writes, its slice checked if its
    buffer failed, so the first fault of the walk is named."""
    bufs = _buffers(opt.state)
    n, finite = bufs[0].size, []
    for k, buf in enumerate(bufs):
        buf[:] = np.frombuffer(section, dtype="<f8", count=n, offset=_offset(k, n, 0))
        finite.append(np.isfinite(buf).all())
    for i, (name, (lo, hi)) in enumerate(opt.state.bounds.items()):
        _held(doc["moments"][name], MOMENT_SLOTS, f"moments[{name!r}]")
        for k, (mapping, key, where) in enumerate(_leaves(doc, i, name)):
            offset, expected = mapping[key], _offset(k, n, lo)
            if type(offset) is not int or offset != expected:
                raise ValueError(
                    f"{where}: expected {expected}, the offset save writes, got {offset!r}"
                )
            if not finite[k] and not np.isfinite(bufs[k][lo:hi]).all():
                raise ValueError(f"{where}: non-finite values rejected")


def save(opt, path: str | Path) -> None:
    """Write ``opt``'s checkpoint, part by part, to a temp file renamed over
    ``path``, so a failed save leaves no truncated file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    parts = _parts(opt)
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(cls, path: str | Path):
    """The ``cls`` optimizer in the checkpoint file ``path``, as ``from_checkpoint``."""
    return from_checkpoint(cls, Path(path).read_bytes())


def _offset(k: int, n: int, lo: int) -> int:
    """The byte offset in a section of value lo of buffer k of n: the one ``save`` writes."""
    return 8 * (k * n + lo)


def _held(entry, keys, where: str, name=None) -> None:
    """Check that ``entry`` is a JSON object of exactly ``keys``, the keys ``save``
    writes; ValueError names ``where`` if it is not an object, then the first
    missing key, as ``name(key)`` (``where.key`` by default), then ``where`` and
    its first unexpected key."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {type(entry).__name__}")
    name = name or f"{where}.{{}}".format
    for key in keys:
        if key not in entry:
            raise ValueError(f"{name(key)}: missing")
    if len(entry) > len(keys):  # every key is there, and more
        unexpected = next(key for key in entry if key not in keys)
        raise ValueError(f"{where}: unexpected key {unexpected!r}")


def _from_dict(cls, blob, where: str):
    """Config dataclass ``cls`` from a dict of exactly its fields, parts from nested
    dicts, each checked once as it is built; ValueError names the field at fault."""
    _held(blob, cls.__dataclass_fields__, where)
    kwargs = {
        name: _from_dict(kind, blob[name], f"{where}.{name}") if isinstance(kind, type)
        else blob[name]
        for name, kind, _ in field_kinds(cls)
    }
    return built(cls, f"{where}.{{}}".format, **kwargs)


def _checked_call(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a TypeError, ValueError or OverflowError it
    raises becomes a ValueError that names ``where``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _param(entry, where: str) -> ParamTensor:
    """The param ``entry`` names, of its shape, with zeros that take no memory (a
    zero-stride view of one 0.0), as the load fills θ whole later."""
    _held(entry, ("name", "shape", "values"), where)
    name = checked_value("str", entry["name"], f"{where}.name")
    shape = checked_value("tuple[int, ...]", entry["shape"], f"{where}.shape", ge=1)
    if not shape:
        raise ValueError(f"{where}.shape: expected a non-empty list, got []")
    size = math.prod(shape)
    values = _checked_call(f"{where}.shape", np.ndarray, (size,), buffer=bytes(8), strides=(0,))
    return ParamTensor._adopt(name, shape, values)  # checked above as ParamTensor checks
