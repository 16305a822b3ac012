"""The checkpoint format, v4: one line of JSON, the document, then a raw section
of the six buffers of ``Optimizer._buffers()`` as '<f8' bytes: θ, the four moment
slots and the slow weights. A tensor has six leaves, one per buffer; each is the
byte offset in the section of the tensor's slice of that buffer. ``save`` writes
these bytes, ``to_checkpoint`` returns them and ``from_checkpoint`` reads them.
A load checks the version first, then the params' names and shapes, the
section's length, the config, preset, ``t`` and keys, then each buffer whole and
every leaf in one walk of ``_leaves`` in registration order, so a bad config is
named before any tensor's bad leaf. The config is built once from its nested
dicts: each part checks its own fields as it is built, so each leaf is checked
once, and a fault is renamed to its path (``config.moments.eps``)."""

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


def _leaves(doc: dict, i: int, name: str) -> list[tuple[dict, str, str]]:
    """Tensor ``i``'s six leaves in ``doc``, in buffer order: (mapping, key, error field)."""
    moments = _object(doc["moments"][name], f"moments[{name!r}]")
    return [
        (doc["params"][i], "values", f"params[{i}].values"),
        *((moments, b, f"moments[{name!r}].{b}") for b in engine._MOMENT_BUFFERS),
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
    return [line, *(np.ascontiguousarray(buf, dtype="<f8") for buf in opt._buffers())]


def to_checkpoint(opt) -> bytes:
    """``opt``'s checkpoint: the bytes ``save`` writes."""
    return b"".join(_parts(opt))


def from_checkpoint(cls, data: bytes):
    """The ``cls`` optimizer the checkpoint bytes ``data`` hold; ValueError names
    the field at fault. The params are built from their names and shapes, then
    ``_fill`` fills the optimizer from the section."""
    if not isinstance(data, bytes):
        raise TypeError(f"a checkpoint is bytes, got {type(data).__name__}")
    end = data.find(b"\n")
    try:  # bad UTF-8, bad JSON, or an int past the digit limit
        doc = json.loads(data[:end] if end >= 0 else data)
    except ValueError as exc:
        raise ValueError(f"checkpoint: not valid JSON: {exc}") from exc
    version = _object(doc, "checkpoint").get("checkpoint_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint_version: unsupported checkpoint version {version!r}")
    if end < 0:
        raise ValueError("checkpoint: not valid JSON: the document line has no newline")
    for key in ("preset", "config", "t", "params", "moments", "slow"):
        _field(doc, key, key)
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
    names = list(opt.state.bounds)
    for key in ("moments", "slow"):
        if not isinstance(doc[key], dict) or doc[key].keys() != set(names):
            raise ValueError(f"{key}: expected an object keyed by the param names {names}")
    _fill(opt, doc, section)
    opt.state.t = t
    return opt


def _fill(opt, doc: dict, section: memoryview) -> None:
    """Fill ``opt``'s buffers whole from ``section``, each checked once, then walk
    the leaves: each must be the offset ``save`` writes, its slice checked if its
    buffer failed, so the first fault of the walk is named."""
    bufs = opt._buffers()
    n, finite = bufs[0].size, []
    for k, buf in enumerate(bufs):
        buf[:] = np.frombuffer(section, dtype="<f8", count=n, offset=_offset(k, n, 0))
        finite.append(np.isfinite(buf).all())
    for i, (name, (lo, hi)) in enumerate(opt.state.bounds.items()):
        for k, (mapping, key, where) in enumerate(_leaves(doc, i, name)):
            offset, expected = _field(mapping, key, where), _offset(k, n, lo)
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


def _object(entry, where: str) -> dict:
    """``entry``, which must be a JSON object."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {type(entry).__name__}")
    return entry


def _field(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"{where}: missing")
    return mapping[key]


def _from_dict(cls, blob, where: str):
    """Config dataclass ``cls`` from a dict of exactly its fields, parts from nested
    dicts, each checked once as it is built; ValueError names the field at fault."""
    fields = cls.__dataclass_fields__
    if not isinstance(blob, dict) or blob.keys() != fields.keys():
        raise ValueError(f"{where}: expected an object with keys {sorted(fields)}, got {blob!r}")
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
    entry, name_at, shape_at = _object(entry, where), f"{where}.name", f"{where}.shape"
    name = checked_value("str", _field(entry, "name", name_at), name_at)
    shape = _field(entry, "shape", shape_at)
    shape = checked_value("tuple[int, ...]", shape, shape_at, ge=1)
    if not shape:
        raise ValueError(f"{shape_at}: expected a non-empty list, got []")
    size = math.prod(shape)
    values = _checked_call(shape_at, np.ndarray, (size,), buffer=bytes(8), strides=(0,))
    return ParamTensor._adopt(name, shape, values)  # checked above as ParamTensor checks
