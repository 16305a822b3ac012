"""Gradient transforms applied before moment estimation, and the unit reductions
they use. Pure array maths: each function takes float64 arrays in the tensor's
declared shape and returns one of that shape without writing to its inputs. A
unit is a dim-0 slice, or one element of a rank-1 array. The preset order is
unit-wise clipping first (``scale_units`` by ``unit_scale_factors``),
centralization second.

The unit reductions run on the ``(units, width)`` view with the arithmetic
of ``np.linalg.norm(..., axis=1)`` and ``np.mean(..., axis=1)`` written out,
so they give those functions' bits without their per-call dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClipConfig:
    """Unit-wise clipping threshold and the epsilon guarding zero parameters."""

    tau: float = 1e-2
    eps: float = 1e-3

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


def row_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each unit: one per element for a rank-1 array.
    The arithmetic of ``np.linalg.norm(rows, axis=1)``, without its dispatch."""
    if a.ndim == 1:
        return np.abs(a)
    rows = a.reshape(a.shape[0], -1)
    return np.sqrt((rows * rows).sum(axis=1))


def mean_all_but_first(a: np.ndarray) -> np.ndarray:
    """Arithmetic mean of each dim-0 slice. Requires rank >= 2. The
    arithmetic of ``np.mean(rows, axis=1)``, sum over count, without its
    dispatch."""
    if a.ndim < 2:
        raise ValueError("mean_all_but_first needs rank >= 2, got rank 1")
    rows = a.reshape(a.shape[0], -1)
    return rows.sum(axis=1) / rows.shape[1]


def unit_scale_factors(g: np.ndarray, theta: np.ndarray, cfg: ClipConfig) -> np.ndarray:
    """Per-unit multipliers for adaptive clipping.

    Unit r gets tau * max(|theta_r|, eps) / |g_r| when its gradient-to-parameter
    norm ratio exceeds tau, and 1.0 otherwise. Written multiplicatively
    (|g_r| > tau * max(|theta_r|, eps)) so zero-gradient units never divide by 0.
    """
    if g.shape != theta.shape:
        raise ValueError(
            f"shape mismatch: gradient {g.shape} vs parameter {theta.shape}"
        )
    g_norms = row_norms(g)
    limits = cfg.tau * np.maximum(row_norms(theta), cfg.eps)
    return np.divide(limits, g_norms, out=np.ones(g_norms.shape), where=g_norms > limits)


def scale_units(g: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Multiply each unit (dim-0 slice, or element for rank-1) by its factor."""
    if g.ndim == 1:
        return g * factors
    return (g.reshape(g.shape[0], -1) * factors[:, None]).reshape(g.shape)


def gradient_centralize(g: np.ndarray) -> np.ndarray:
    """Subtract each dim-0 slice's mean (over all remaining axes).

    Applies only to arrays with more than one axis; rank-1 gradients
    (biases, norm scales) are returned as they are.
    """
    if g.ndim == 1:
        return g
    rows = g.reshape(g.shape[0], -1)
    return (rows - mean_all_but_first(g)[:, None]).reshape(g.shape)
