"""Gradient transforms applied before moment estimation. Pure array maths on
float64 arrays, which write to none of their inputs but the one passed as
``out``. A unit is a dim-0 slice, or one element of a rank-1 array. The preset order is unit-wise clipping first (``scale_units`` by
``unit_scale_factors``), centralization second.

Each function takes one tensor's array in its declared shape, or, with
``units``, a flat buffer of many tensors' units, so that a step clips and
centralizes all its tensors in one call each: the buffer's head, its first
``size - units.size`` values, holds rank-1 tensors' elements, each a unit of
norm |x|, and its tail holds rank >= 2 tensors' units, as the spans of the
``SpanRuns`` ``units`` over the tail. A unit's norm is
``np.sqrt(units.sums(x * x))`` and its mean ``units.sums(x) / units.sizes``:
the arithmetic of ``np.linalg.norm(..., axis=1)`` and ``np.mean(..., axis=1)``
written out, so they give those functions' bits without their per-call
dispatch. A rank-1 tensor has no mean to subtract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import bounded, check_fields
from .moments import SpanRuns

_NO_UNITS = SpanRuns.of(())


@dataclass(frozen=True)
class ClipConfig:
    """Unit-wise clipping threshold and the epsilon guarding zero parameters."""

    tau: float = bounded(1e-2, gt=0.0)
    eps: float = bounded(1e-3, gt=0.0)

    def __post_init__(self) -> None:
        check_fields(self)


def _layout(a: np.ndarray, units: SpanRuns | None) -> tuple[int, SpanRuns]:
    """The length of flat ``a``'s head of rank-1 elements, and its tail's
    units; with ``units`` None, read from ``a``'s own shape."""
    if units is None:
        if a.ndim == 1:
            return a.size, _NO_UNITS
        return 0, SpanRuns.of_runs([(0, a.shape[0], a.size // a.shape[0])])
    if a.ndim != 1 or units.size > a.size:
        raise ValueError(
            f"units over {units.size} values need a flat buffer at least as long, got shape {a.shape}"
        )
    return a.size - units.size, units


def _output(g: np.ndarray, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The array a transform of ``g`` writes, ``out`` holding ``g``'s values or a
    copy of ``g``, and its flat view."""
    if out is None:
        out = g.copy()
    elif out is not g:
        np.copyto(out, g)
    return out, out if out.ndim == 1 else out.reshape(-1)


def _unit_norms(flat: np.ndarray, head: int, units: SpanRuns) -> np.ndarray:
    """|x| of each head element of ``flat``, then each unit's Frobenius norm."""
    norms = np.empty(head + units.sizes.size)
    np.abs(flat[:head], out=norms[:head])
    tail, tail_norms = flat[head:], norms[head:]
    np.sqrt(units.sums(tail * tail, out=tail_norms), out=tail_norms)
    return norms


def unit_scale_factors(
    g: np.ndarray, theta: np.ndarray, cfg: ClipConfig, units: SpanRuns | None = None
) -> np.ndarray:
    """Per-unit multipliers for adaptive clipping, one per unit in buffer order.

    Unit r gets tau * max(|theta_r|, eps) / |g_r| when its gradient-to-parameter
    norm ratio exceeds tau, and 1.0 otherwise. Written multiplicatively
    (|g_r| > tau * max(|theta_r|, eps)) so zero-gradient units never divide by 0.
    """
    if g.shape != theta.shape:
        raise ValueError(
            f"shape mismatch: gradient {g.shape} vs parameter {theta.shape}"
        )
    head, units = _layout(g, units)
    if units.runs:
        g_norms = _unit_norms(g.reshape(-1), head, units)
        theta_norms = _unit_norms(theta.reshape(-1), head, units)
    else:
        g_norms, theta_norms = np.abs(g), np.abs(theta)
    limits = np.maximum(theta_norms, cfg.eps, out=theta_norms)
    limits *= cfg.tau
    return np.divide(limits, g_norms, out=np.ones(g_norms.shape), where=g_norms > limits)


def scale_units(
    g: np.ndarray, factors: np.ndarray, units: SpanRuns | None = None, *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply each unit by its factor, into ``out`` (a C-contiguous array of
    ``g``'s shape, ``g`` itself to scale in place) or a new array."""
    head, units = _layout(g, units)
    out, flat = _output(g, out)
    if not units.runs:  # every unit an element
        flat *= factors
        return out
    if head:
        flat[:head] *= factors[:head]
    for i, j, rows in units.rows(flat[head:]):
        rows *= factors[head + i : head + j, None]
    return out


def gradient_centralize(
    g: np.ndarray, units: SpanRuns | None = None, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Subtract each dim-0 slice's mean (over all remaining axes), into ``out``
    (as for ``scale_units``) or a new array. Rank-1 gradients (biases, norm
    scales) keep their values."""
    head, units = _layout(g, units)
    out, flat = _output(g, out)
    if units.runs:
        tail = flat[head:]
        means = units.sums(tail)
        means /= units.sizes
        for i, j, rows in units.rows(tail):
            rows -= means[i:j, None]
    return out
