"""The checkpoint format. A tensor has six leaves, its slices of ``Optimizer._buffers()``:
θ, the four moment slots and the slow weights. v2 stores a leaf as a JSON list of
numbers, v3 (``to_checkpoint``) as base64 of its '<f8' bytes, v4 (the file ``save``
writes) as the offset of those bytes in the raw section after the document line.
Every version is built or read through one walk of ``_leaves`` in registration
order, after the params' names and shapes, the config, preset, ``t`` and keys are
checked. v2/v3 read θ with the params, before those checks, as it builds the
optimizer; v4 checks θ in the walk. So a bad θ is the first fault of a v2/v3 load,
but a v4 load names a bad config, or an earlier tensor's bad leaf, before it. The
config is built once from its nested dicts: each part checks its own fields as it
is built, so each leaf is checked once, and a fault is renamed to its path
(``config.moments.eps``)."""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Callable

import numpy as np

from . import engine  # read at call time: engine imports this module
from .fields import built, checked_value, field_kinds
from .tensor import ParamTensor

CHECKPOINT_VERSION = 4
_DICT_VERSION = 3
_V4_START = b'{"checkpoint_version": 4, '


def _leaves(doc: dict, i: int, name: str) -> list[tuple[dict, str, str]]:
    """Tensor ``i``'s six leaves in ``doc``, in buffer order: (mapping, key, error field)."""
    moments = _object(doc["moments"][name], f"moments[{name!r}]")
    return [
        (doc["params"][i], "values", f"params[{i}].values"),
        *((moments, b, f"moments[{name!r}].{b}") for b in engine._MOMENT_BUFFERS),
        (doc["slow"], name, f"slow[{name!r}]"),
    ]


def _checkpoint(opt, version: int, leaf: Callable[[int, int, int], object]) -> dict:
    """``opt``'s document; a tensor's leaf of buffer k is ``leaf(k, lo, hi)``."""
    bounds = opt.state.bounds
    doc = {
        "checkpoint_version": version,
        "preset": opt.preset,
        "config": dataclasses.asdict(opt.config),
        "t": opt.state.t,
        "params": [{"name": p.name, "shape": list(p.shape)} for p in opt.params],
        "moments": {name: {} for name in bounds},
        "slow": {},
    }
    for i, (name, span) in enumerate(bounds.items()):
        for k, (mapping, key, _) in enumerate(_leaves(doc, i, name)):
            mapping[key] = leaf(k, *span)
    return doc


def to_checkpoint(opt) -> dict:
    """``opt``'s state as a JSON-ready v3 dict; a leaf's bytes are read in place."""
    bufs = [np.ascontiguousarray(buf, dtype="<f8") for buf in opt._buffers()]
    return _checkpoint(
        opt, _DICT_VERSION, lambda k, lo, hi: base64.b64encode(bufs[k][lo:hi]).decode("ascii")
    )


def from_checkpoint(cls, blob, section: memoryview | None = None):
    """The ``cls`` optimizer a v3 or v2 dict ``blob`` describes, or a v4 document line
    whose raw section is ``section``; ValueError names the field at fault. v2/v3 θ is
    decoded to build the optimizer (v4: names and shapes), then ``_fill`` fills it."""
    version = _object(blob, "checkpoint").get("checkpoint_version")
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
    params = [_param_from_dict(e, f"params[{i}]", read) for i, e in enumerate(blob["params"])]
    if section is not None and len(section) != _offset(6, n := sum(p.size for p in params), 0):
        raise ValueError(
            f"params: their values take a {_offset(6, n, 0)}-byte section, got {len(section)}"
        )
    config = _from_dict(engine.Ranger21Config, blob["config"], "config")
    if blob["preset"] not in engine.PRESETS:
        raise ValueError(f"preset: expected one of {engine.PRESETS}, got {blob['preset']!r}")
    opt = _checked_call("params", cls, params, config, preset=blob["preset"])
    del params  # the decoded values are in opt.state now: let them go
    t, t_max = checked_value("int", blob["t"], "t"), config.schedule.t_max
    if t < 0 or (config.toggles.warmdown and t > t_max):
        raise ValueError(f"t: must be >= 0, and <= t_max = {t_max} with warm-down on, got {t}")
    names = list(opt.state.bounds)
    for key in ("moments", "slow"):
        if not isinstance(blob[key], dict) or blob[key].keys() != set(names):
            raise ValueError(f"{key}: expected an object keyed by the param names {names}")
    _fill(opt, blob, read, section)
    opt.state.t = t
    return opt


def _fill(opt, blob: dict, read, section: memoryview | None) -> None:
    """Fill ``opt``'s buffers in one walk of the leaves. v2/v3: each leaf but θ as
    ``read`` decodes it. v4: each buffer whole from ``section``, checked once; each
    leaf must be the offset ``save`` writes, its slice checked if its buffer failed."""
    bufs = opt._buffers()
    n, finite = bufs[0].size, []
    if section is not None:
        for k, buf in enumerate(bufs):
            buf[:] = np.frombuffer(section, dtype="<f8", count=n, offset=_offset(k, n, 0))
            finite.append(np.isfinite(buf).all())
    for i, (name, (lo, hi)) in enumerate(opt.state.bounds.items()):
        for k, (mapping, key, where) in enumerate(_leaves(blob, i, name)):
            if section is None:
                if k:  # θ, k = 0, is in already: it built ``opt``
                    bufs[k][lo:hi] = _checked_buffer(mapping, key, where, hi - lo, read)
                continue
            offset, expected = _field(mapping, key, where), _offset(k, n, lo)
            if type(offset) is not int or offset != expected:
                raise ValueError(
                    f"{where}: expected {expected}, the offset save writes, got {offset!r}"
                )
            if not finite[k] and not np.isfinite(bufs[k][lo:hi]).all():
                raise ValueError(f"{where}: non-finite values rejected")


def save(opt, path: str | Path) -> None:
    """Write ``opt`` as v4, the document line then the buffers' '<f8' bytes, to a
    temp file renamed over ``path``, so a failed save leaves no truncated file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    n = opt.state.flat_theta.size
    doc = json.dumps(_checkpoint(opt, CHECKPOINT_VERSION, lambda k, lo, hi: _offset(k, n, lo)))
    try:
        with open(tmp, "wb") as f:
            f.write(doc.encode("ascii") + b"\n")
            for buf in opt._buffers():
                f.write(np.ascontiguousarray(buf, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(cls, path: str | Path):
    """The ``cls`` optimizer in ``path``: v4 if it starts as ``save`` starts it, else
    one JSON document; ValueError if that is not JSON, or as ``from_checkpoint``."""
    data = Path(path).read_bytes()
    v4 = data.startswith(_V4_START)
    end = data.find(b"\n") if v4 else len(data)
    try:
        if end < 0:
            raise ValueError("the document line has no newline")
        blob = json.loads(data[:end])
    except ValueError as exc:  # bad UTF-8, bad JSON, or an int past the digit limit
        raise ValueError(f"checkpoint: not valid JSON: {exc}") from exc
    return from_checkpoint(cls, blob, memoryview(data)[end + 1 :] if v4 else None)


def _offset(k: int, n: int, lo: int) -> int:
    """The byte offset in a v4 section of value lo of buffer k of n: the one ``save`` writes."""
    return 8 * (k * n + lo)


def _decoded(text, where: str, size: int) -> np.ndarray:
    """The float64 array, a view, a v3 leaf encodes; it must hold ``size`` values."""
    if not isinstance(text, str):
        raise ValueError(f"{where}: expected a base64 string, got {type(text).__name__}")
    raw = _checked_call(where, base64.b64decode, text, validate=True)
    if len(raw) != 8 * size:
        raise ValueError(f"{where}: expected {8 * size} bytes ({size} values), got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8")


def _listed(values, where: str, size: int) -> np.ndarray:
    """The float64 array a v2 leaf lists; it must hold ``size`` numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{where}: expected a list of numbers, got {type(values).__name__}")
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{where}: expected a list of numbers, got {x!r} at index {i}")
    if len(values) != size:
        raise ValueError(f"{where}: expected {size} values, got {len(values)}")
    return _checked_call(where, np.array, values, dtype=np.float64)


def _checked_buffer(mapping: dict, key: str, where: str, size: int, read) -> np.ndarray:
    """The buffer ``read`` takes from ``mapping[key]``; it must hold ``size`` finite values."""
    buf = read(_field(mapping, key, where), where, size)
    if not np.isfinite(buf).all():
        raise ValueError(f"{where}: non-finite values rejected")
    return buf


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


def _param_from_dict(entry, where: str, read) -> ParamTensor:
    """The param ``entry`` names, of its shape, with the values ``read`` checks; for
    v4 (``read`` None) zeros that take no memory, as the load copies θ whole later."""
    entry, name_at, shape_at = _object(entry, where), f"{where}.name", f"{where}.shape"
    name = checked_value("str", _field(entry, "name", name_at), name_at)
    shape = _field(entry, "shape", shape_at)
    shape = checked_value("tuple[int, ...]", shape, shape_at, ge=1)
    if not shape:
        raise ValueError(f"{shape_at}: expected a non-empty list, got []")
    size = math.prod(shape)
    if read is None:  # a zero-stride view of one 0.0
        values = _checked_call(shape_at, np.ndarray, (size,), buffer=bytes(8), strides=(0,))
    else:
        values = _checked_buffer(entry, "values", f"{where}.values", size, read)
    return ParamTensor._adopt(name, shape, values)  # checked above as ParamTensor checks
