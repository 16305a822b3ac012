"""Minimal dense float64 tensor: the type ``Optimizer`` takes and returns.
Components compute on plain arrays; a step returns its params as views of
one flat buffer, and an MLP evaluate its fresh gradients, through
``ParamTensor._adopt``."""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a tensor, or an update the step computed for it, holds NaN or Inf."""


class ParamTensor:
    """Named dense tensor: a shape plus row-major float64 values.

    Construction copies the data, validates the shape/value agreement and
    rejects non-finite entries. The value buffer is frozen afterwards;
    anything that changes a tensor builds a new one (see ``with_values``).
    """

    __slots__ = ("name", "shape", "values")

    def __init__(self, name: str, shape: Sequence[int], values) -> None:
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
    def _adopt(
        cls, name: str, shape: tuple[int, ...], values: np.ndarray, *, check_finite: bool = False
    ) -> "ParamTensor":
        """Wrap ``values``, a flat float64 array of ``shape``'s size that
        nothing else writes, without copying it or checking its shape;
        ``values`` (often a view of a larger buffer, or a problem's fresh
        gradient) becomes read-only. With ``check_finite`` a non-finite entry
        raises ``NonFiniteError`` naming the tensor; without it the caller
        has checked the entries already (a step checks its whole buffer once).
        """
        if check_finite and not np.isfinite(values).all():
            raise NonFiniteError(f"{name}: non-finite values rejected")
        values.flags.writeable = False
        tensor = cls.__new__(cls)
        tensor.name, tensor.shape, tensor.values = name, shape, values
        return tensor

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
