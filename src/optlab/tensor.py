"""Minimal dense float64 tensor with the reductions the update rules need."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class NonFiniteError(ValueError):
    """Raised when tensor construction sees NaN or Inf values."""


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
    def zeros(cls, name: str, shape: Sequence[int]) -> "ParamTensor":
        return cls(name, shape, np.zeros(math.prod(tuple(shape))))

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


def frobenius_norm(t: ParamTensor) -> float:
    """Square root of the sum of squared entries; 0 for an all-zero tensor."""
    return float(np.linalg.norm(t.values))


def row_norms(t: ParamTensor) -> np.ndarray:
    """Frobenius norm of each dim-0 slice (remaining axes flattened).

    A rank-1 tensor yields one norm per element: each entry is its own unit.
    """
    if t.rank == 1:
        return np.abs(t.values)
    return np.linalg.norm(t.array.reshape(t.shape[0], -1), axis=1)


def mean_all_but_first(t: ParamTensor) -> np.ndarray:
    """Arithmetic mean of each dim-0 slice. Requires rank >= 2."""
    if t.rank < 2:
        raise ValueError(f"{t.name}: mean_all_but_first needs rank >= 2, got rank 1")
    return t.array.reshape(t.shape[0], -1).mean(axis=1)
