"""Minimal dense float64 tensor: the type ``Optimizer`` takes and returns.
Components compute on plain arrays; a step returns its params as views of
one flat buffer, through ``ParamTensor._adopt``."""

from __future__ import annotations

import math
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
        shape = tuple(int(s) for s in shape)
        if not shape:
            raise ValueError(f"{name}: shape must have at least one axis")
        if any(s < 1 for s in shape):
            raise ValueError(f"{name}: every extent must be >= 1, got {shape}")
        flat = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if flat.size != math.prod(shape):
            raise ValueError(
                f"{name}: shape {shape} needs {math.prod(shape)} values, got {flat.size}"
            )
        if not np.all(np.isfinite(flat)):
            raise NonFiniteError(f"{name}: non-finite values rejected")
        flat.setflags(write=False)
        self.name = name
        self.shape = shape
        self.values = flat

    @classmethod
    def _adopt(cls, name: str, shape: tuple[int, ...], values: np.ndarray) -> "ParamTensor":
        """Wrap ``values``, a flat float64 array of ``shape``'s size whose
        entries the caller has already checked to be finite, without copying
        or validating it; ``values`` (often a view of a larger buffer) becomes
        read-only."""
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
