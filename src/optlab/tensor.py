"""Minimal dense float64 tensor: the type ``Optimizer`` takes and returns.
Components compute on plain arrays; a step returns its params, and an MLP
evaluate its gradients, as read-only views of one flat buffer, built in one
batch by ``ParamTensor._views`` after one finiteness check of that buffer."""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a tensor, or an update the step computed for it, holds NaN or Inf."""


class ParamTensor:
    """Named dense tensor: a shape plus row-major float64 values.

    Construction checks the name is a string, copies the data, validates the
    shape/value agreement and rejects non-finite entries. The value buffer is frozen afterwards;
    anything that changes a tensor builds a new one (see ``with_values``).
    """

    __slots__ = ("name", "shape", "values")

    def __init__(self, name: str, shape: Sequence[int], values) -> None:
        if not isinstance(name, str):  # a checkpoint stores the name as a JSON string
            raise ValueError(f"name must be a string, got {name!r}")
        try:
            if bool in map(type, shape):  # operator.index would read True as 1
                raise TypeError
            shape = tuple(map(operator.index, shape))
        except TypeError:
            raise ValueError(f"{name}: every extent must be an integer, got {shape!r}") from None
        if not shape:
            raise ValueError(f"{name}: shape must have at least one axis")
        if min(shape) < 1:
            raise ValueError(f"{name}: every extent must be >= 1, got {shape}")
        flat = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        size = math.prod(shape)
        if flat.size != size:
            raise ValueError(f"{name}: shape {shape} needs {size} values, got {flat.size}")
        if not np.isfinite(flat).all():
            raise NonFiniteError(f"{name}: non-finite values rejected")
        flat.setflags(write=False)
        self.name = name
        self.shape = shape
        self.values = flat

    @classmethod
    def _adopt(cls, name: str, shape: tuple[int, ...], values: np.ndarray) -> "ParamTensor":
        """Wrap ``values``, a flat float64 array of ``shape``'s size that nothing
        else writes and the caller has checked, without a copy; ``values``
        becomes read-only. A checkpoint load builds each param this way over
        zero-stride placeholder zeros, then fills the new state's θ whole."""
        values.flags.writeable = False
        tensor = cls.__new__(cls)
        tensor.name, tensor.shape, tensor.values = name, shape, values
        return tensor

    @classmethod
    def _views(
        cls, like: Iterable, spans: Iterable[tuple[int, int]], flat: np.ndarray
    ) -> tuple["ParamTensor", ...]:
        """A tuple of one tensor per entry of ``like``, with that entry's name
        and shape, whose values are its ``(lo, hi)`` slice of ``flat``: no copy
        and no check (the caller has checked ``flat`` once). The slices are
        taken from one read-only view of ``flat``, so they are read-only while
        ``flat`` itself stays writeable, and the tuple cannot be resized."""
        frozen = flat.view()
        frozen.flags.writeable = False
        tensors = []
        for p, (lo, hi) in zip(like, spans):
            tensor = cls.__new__(cls)
            tensor.name, tensor.shape, tensor.values = p.name, p.shape, frozen[lo:hi]
            tensors.append(tensor)
        return tuple(tensors)

    def with_values(self, values) -> "ParamTensor":
        """New tensor with the same name and shape but fresh values."""
        return ParamTensor(self.name, self.shape, values)

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the values in their declared shape."""
        return self.values.reshape(self.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.shape})"


def _raise_nonfinite(
    tensors: Iterable, spans: Iterable[tuple[int, int]], *buffers: np.ndarray
) -> None:
    """Raise NonFiniteError naming the first of ``tensors`` whose ``(lo, hi)``
    slice of any of ``buffers`` holds NaN or Inf; the caller lists them in
    the order its rule names them."""
    for p, (lo, hi) in zip(tensors, spans):
        if not all(np.isfinite(buf[lo:hi]).all() for buf in buffers):
            raise NonFiniteError(f"{p.name}: non-finite values rejected")
