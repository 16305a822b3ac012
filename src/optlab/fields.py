"""Each field's kind and range, stated once beside its annotation
(``beta1: float = bounded(0.9, ge=0.0, lt=1.0)``), and the one rule that checks
them, ``checked_value``, for every config part, problem, bench key and
checkpoint entry. A part's or problem's ``__post_init__`` calls ``check_fields``;
a fault is a ``FieldError`` naming the field, which a reader renames to the key
it read (``optimizers[0].eps_clipping``, ``config.moments.eps``) with ``built``.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import sys
from typing import Callable

_EXPECTED = {
    "bool": "true or false", "int": "an integer", "int | None": "an integer or null",
    "float": "a finite number", "str": "a string",
}
# a bound's keyword -> its sign in messages and its test
_BOUNDS = {
    "ge": (">=", operator.ge), "gt": (">", operator.gt),
    "le": ("<=", operator.le), "lt": ("<", operator.lt),
}


class FieldError(ValueError):
    """A value rejected for ``field``, or for its entry ``at`` (``[0]``);
    reads ``"{field}{at}: {reason}"``."""

    def __init__(self, field: str, reason: str, at: str = "") -> None:
        super().__init__(f"{field}{at}: {reason}")
        self.field, self.reason, self.at = field, reason, at


def bounded(default=dataclasses.MISSING, **bounds):
    """A dataclass field with ``default`` whose values must meet ``bounds``
    (``ge=1`` means >= 1; also ``gt``, ``le``, ``lt``), each list entry alike."""
    return dataclasses.field(default=default, metadata=bounds)


def checked_value(kind: str, value, where: str, **bounds):
    """``value`` if it fits ``kind``, a field's annotation: ``bool``, ``int`` (not
    a bool), ``int | None``, ``float`` (a finite int or float, returned as a
    float), ``str``, ``tuple[T, ...]`` (a list or tuple of ``T``, returned as a
    tuple) or ``tuple[T, T]`` (of exactly that many), and meets each of
    ``bounds``, a list entry by entry. FieldError names ``where``, or
    ``where[i]`` for the first bad list entry."""
    return _value(kind, value, where, _rules(bounds))


def _rules(bounds) -> tuple:
    """Each bound as its sign, its test and its value."""
    return tuple((*_BOUNDS[name], bound) for name, bound in bounds.items())


def _value(kind: str, value, where: str, rules: tuple):
    if not kind.startswith("tuple["):
        return _scalar(kind, value, where, rules)
    if not isinstance(value, (list, tuple)):
        raise FieldError(where, f"expected a list, got {value!r}")
    kinds = kind[len("tuple[") : -1].split(", ")
    if kinds[-1] == "...":
        kinds = kinds[:1] * len(value)
    elif len(value) != len(kinds):
        raise FieldError(where, f"expected {len(kinds)} entries, got {len(value)}")
    return tuple(
        _scalar(k, x, where, rules, f"[{i}]") for i, (k, x) in enumerate(zip(kinds, value))
    )


def _scalar(kind: str, value, where: str, rules: tuple, at: str = ""):
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if kind == "float":
        # abs() <= max rejects inf and nan, and ints a float cannot hold
        ok = (is_int or isinstance(value, float)) and abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    elif kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "str":
        ok = isinstance(value, str)
    else:  # "int" or "int | None"
        ok = is_int or (value is None and kind == "int | None")
    if not ok:
        raise FieldError(where, f"expected {_EXPECTED[kind]}, got {value!r}", at)
    for sign, holds, bound in rules:
        if value is not None and not holds(value, bound):
            raise FieldError(where, f"must be {sign} {bound}, got {value}", at)
    return value


@functools.cache
def field_kinds(cls) -> tuple[tuple[str, object, tuple], ...]:
    """Each init field of dataclass ``cls``: its name, its kind (its annotation,
    or the class of the part it holds) and its bounds, as ``(sign, test, bound)``."""
    names = vars(sys.modules[cls.__module__])
    return tuple(
        (f.name, f.type if f.type in _EXPECTED or f.type.startswith("tuple[") else names[f.type],
         _rules(f.metadata))
        for f in dataclasses.fields(cls) if f.init
    )


def check_fields(obj) -> None:
    """Check each field of dataclass ``obj`` against its kind and bounds, in
    field order, and store it as checked (a float field holds a float)."""
    for name, kind, rules in field_kinds(type(obj)):
        value = getattr(obj, name)
        if isinstance(kind, str):
            object.__setattr__(obj, name, _value(kind, value, name, rules))
        elif not isinstance(value, kind):
            raise FieldError(name, f"expected a {kind.__name__}, got {value!r}")


def built(cls, rename: Callable[[str], str], /, **kwargs):
    """``cls(**kwargs)``; a FieldError it raises names its field ``rename(field)``."""
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise FieldError(rename(exc.field), exc.reason, exc.at) from exc
