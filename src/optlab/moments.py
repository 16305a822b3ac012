"""Moment machinery and the combined weight-decay term, as pure array maths on
flat float64 arrays. The moment updates are elementwise, so the step runs them
once over all tensors' values end to end; ``combined_decay`` reduces per
tensor, over one tensor's values or over the tensors of a flat buffer, one
``(count, size)`` view per run of equal-size tensors (``SpanRuns``), and
computes the per-tensor factors in one pass of array arithmetic.

Two interchangeable moment updates share one state layout:

* ``pnm_update`` keeps two lagged first-moment buffers (odd and even steps)
  and combines them with weights (1 + beta0) and -beta0, tracks the running
  elementwise max of the second moment, and normalizes the update vector by
  sqrt((1 + beta0)^2 + beta0^2) so beta0 can change without retuning the
  learning rate.
* ``adam_update`` is the classic single-buffer estimate with plain bias
  correction and no second-moment max.

``combined_decay`` produces the decay displacement: plain decoupled decay,
optionally rescaled by the effective step size (1 / sqrt(mean(v_hat))) and
optionally redirected to pull the tensor norm toward 1 instead of toward 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fields import bounded, check_fields

# Floor for sqrt(mean(v_hat)) in stable decay; inert once any gradient has flowed.
STABLE_DECAY_FLOOR = 1e-8


@dataclass(frozen=True)
class MomentConfig:
    beta0: float = bounded(0.9, ge=0.0, le=1.0)  # 1.0 is the AdaPNM and Ranger21 reference value
    beta1: float = bounded(0.9, ge=0.0, lt=1.0)
    beta2: float = bounded(0.999, ge=0.0, lt=1.0)
    eps: float = bounded(1e-8, gt=0.0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class DecayConfig:
    """Weight-decay coefficient plus the two decay-shaping switches.

    The step builds one from ``Ranger21Config.weight_decay`` and the
    ``norm_loss``/``stable_decay`` toggles.
    """

    weight_decay: float = bounded(1e-4, ge=0.0)
    norm_loss: bool = True
    stable: bool = True

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(eq=False)
class MomentState:
    """Moment slots: first moments at t-1 and t-2, second moment, and its max.

    Buffers are flat float64 arrays of the gradient's element count: one
    tensor's, or in ``OptimizerState`` all tensors' end to end. Updates return
    a fresh state; the t-2 slot is rotated, not copied.
    """

    m_prev: np.ndarray
    m_prev2: np.ndarray
    v: np.ndarray
    v_max: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "MomentState":
        return cls(
            m_prev=np.zeros(size),
            m_prev2=np.zeros(size),
            v=np.zeros(size),
            v_max=np.zeros(size),
        )

    def check_matches(self, g: np.ndarray) -> None:
        if self.m_prev.size != g.size:
            raise ValueError(
                f"state buffers hold {self.m_prev.size} elements, gradient has {g.size}"
            )


def pnm_update(
    state: MomentState, g: np.ndarray, t: int, cfg: MomentConfig
) -> tuple[np.ndarray, np.ndarray, MomentState]:
    """Positive-negative momentum step with running second-moment max.

        m_t     = beta1^2 * m_{t-2} + (1 - beta1^2) * g
        m_hat   = ((1 + beta0) * m_t - beta0 * m_{t-1}) / (1 - beta1^t)
        v_t     = beta2 * v_{t-1} + (1 - beta2) * g^2
        v_max   = max(v_t, v_max)  elementwise
        v_hat   = v_max / (1 - beta2^t)
        u       = m_hat / (sqrt((1+beta0)^2 + beta0^2) * (sqrt(v_hat) + eps))

    Returns the update vector, the bias-corrected second moment (the stable
    decay needs it), and the advanced state with rotated moment buffers.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    state.check_matches(g)
    b0, b1, b2 = cfg.beta0, cfg.beta1, cfg.beta2

    m_t = b1 * b1 * state.m_prev2 + (1.0 - b1 * b1) * g
    m_hat = ((1.0 + b0) * m_t - b0 * state.m_prev) / (1.0 - b1**t)
    v_t = b2 * state.v + (1.0 - b2) * g * g
    v_max = np.maximum(v_t, state.v_max)
    v_hat = v_max / (1.0 - b2**t)
    normalizer = math.sqrt((1.0 + b0) ** 2 + b0**2)
    u = m_hat / (normalizer * (np.sqrt(v_hat) + cfg.eps))

    new_state = MomentState(m_prev=m_t, m_prev2=state.m_prev, v=v_t, v_max=v_max)
    return u, v_hat, new_state


def adam_update(
    state: MomentState, g: np.ndarray, t: int, cfg: MomentConfig
) -> tuple[np.ndarray, np.ndarray, MomentState]:
    """Classic adaptive moment step (single buffer, no second-moment max).

        m_t   = beta1 * m_{t-1} + (1 - beta1) * g
        v_t   = beta2 * v_{t-1} + (1 - beta2) * g^2
        u     = (m_t / (1 - beta1^t)) / (sqrt(v_t / (1 - beta2^t)) + eps)

    Same return contract as ``pnm_update``; ``beta0`` and ``v_max`` are unused.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    state.check_matches(g)
    b1, b2 = cfg.beta1, cfg.beta2

    m_t = b1 * state.m_prev + (1.0 - b1) * g
    m_hat = m_t / (1.0 - b1**t)
    v_t = b2 * state.v + (1.0 - b2) * g * g
    v_hat = v_t / (1.0 - b2**t)
    u = m_hat / (np.sqrt(v_hat) + cfg.eps)

    new_state = MomentState(m_prev=m_t, m_prev2=state.m_prev, v=v_t, v_max=state.v_max)
    return u, v_hat, new_state


@dataclass(frozen=True, eq=False)
class SpanRuns:
    """Spans, which tile a flat buffer from 0 in order, as runs of consecutive
    equal-size spans ``(lo, count, size)``. A run's values are one
    ``(count, size)`` view, so a reduction over each span is one call per run.
    The spans are tensors for ``combined_decay`` and the step's diagnostics,
    and clip/centralize units for ``transforms``. ``sizes`` holds each span's
    size, the repeat counts that spread one scalar per span over the buffer;
    ``size`` is the buffer's. ``of_runs`` builds and checks every layout;
    ``==`` is identity, as ``sizes`` is an array."""

    runs: tuple[tuple[int, int, int], ...]
    sizes: np.ndarray
    size: int

    @classmethod
    def of(cls, spans: Iterable[tuple[int, int]]) -> "SpanRuns":
        """The spans ``(lo, hi)``, each a run of one."""
        return cls.of_runs((lo, 1, hi - lo) for lo, hi in spans)

    @classmethod
    def of_runs(cls, runs: Iterable[tuple[int, int, int]]) -> "SpanRuns":
        """The runs ``(lo, count, size)``, each two adjacent runs of one size
        merged; ValueError unless they tile a buffer from 0 in order, each
        with at least one span of at least one value."""
        merged, end = [], 0
        for lo, n, size in runs:
            if lo != end or n < 1 or size < 1:
                raise ValueError(
                    f"spans must tile the buffer in order, got run ({lo}, {n}, {size}) after {end}"
                )
            if merged and merged[-1][2] == size:
                merged[-1][1] += n
            else:
                merged.append([lo, n, size])
            end = lo + n * size
        sizes = np.array([size for *_, size in merged], dtype=np.int64)
        return cls(tuple(map(tuple, merged)), np.repeat(sizes, [n for _, n, _ in merged]), end)

    @functools.cached_property
    def _table(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        """Each run's first and end span index, first and end value, count and size."""
        table, i = [], 0
        for lo, n, size in self.runs:
            table.append((i, i + n, lo, lo + n * size, n, size))
            i += n
        return tuple(table)

    def rows(self, buf: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        """Each run's ``(count, size)`` view of the flat ``buf``, after the index
        of its first span and the end of its spans."""
        for i, j, lo, hi, n, size in self._table:
            yield i, j, buf[lo:hi].reshape(n, size)

    def sums(self, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each span's sum, in buffer order, into ``out`` or a new array:
        ``np.add.reduce`` along each run's rows, as ``rows.sum(axis=1)`` calls
        it (the bits of each slice's ``.sum()``)."""
        if out is None:
            out = np.empty(self.sizes.size)
        for i, j, lo, hi, n, size in self._table:
            np.add.reduce(buf[lo:hi].reshape(n, size), 1, None, out[i:j])
        return out

    @np.errstate(over="ignore")  # past the float range a squared norm is inf
    def squared_norms(self, buf: np.ndarray) -> np.ndarray:
        """Each span's squared Frobenius norm, in buffer order: ``np.vecdot``
        on each run's ``(count, size)`` view of the flat ``buf`` (the bits of
        each slice's ``np.dot``), the step's one BLAS reduction."""
        out = np.empty(self.sizes.size)
        for i, j, lo, hi, n, size in self._table:
            rows = buf[lo:hi].reshape(n, size)
            np.vecdot(rows, rows, out=out[i:j])
        return out


def combined_decay(
    theta: np.ndarray,
    v_hat: np.ndarray,
    eta_t: float,
    cfg: DecayConfig,
    *,
    spans: SpanRuns | Sequence[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Decay displacement d, already scaled by the scheduled learning rate:

        d = eta_t * [1 / sqrt(mean(v_hat))] * weight_decay * [1 - 1/|theta|] * theta

    The bracketed factors are dropped when ``stable`` / ``norm_loss`` are off;
    with both off this is the plain decoupled decay eta_t * weight_decay * theta.
    |theta| is the whole-tensor Frobenius norm, mean(v_hat) the whole-tensor
    mean. An exactly-zero tensor decays to d = +0.0. A norm past the float
    range is inf, so its tensor's factor is 1, without an overflow warning.

    ``theta`` and ``v_hat`` are one tensor's values, or, with ``spans``, flat
    buffers of several tensors whose ``(lo, hi)`` slices ``spans`` lists in
    buffer order (or a ``SpanRuns`` built from them once). Each tensor gets
    its own factor, with the same bits as a call on its slice alone: the sums
    and squared norms come from ``SpanRuns.sums`` and ``.squared_norms``, one
    call per run of equal-size tensors (the bits of each slice's ``.sum()``
    and ``np.dot`` on the numpy build the tests pin), the scalar arithmetic
    runs once over all tensors, and d is one multiply over the whole buffer.
    """
    if theta.shape != v_hat.shape:
        raise ValueError(
            f"shape mismatch: theta {theta.shape} vs v_hat {v_hat.shape}"
        )
    if not eta_t >= 0:  # also rejects NaN
        raise ValueError(f"eta_t must be >= 0, got {eta_t}")
    scale = eta_t * cfg.weight_decay
    if not (cfg.stable or cfg.norm_loss):
        return scale * theta
    if not isinstance(spans, SpanRuns):
        spans = SpanRuns.of([(0, theta.size)] if spans is None else spans)
    if spans.size != theta.size:
        raise ValueError(f"spans cover {spans.size} of {theta.size} values")
    s, zero = scale, None
    if cfg.stable:
        means = spans.sums(v_hat) / spans.sizes  # sum/n has the bits of np.mean
        s = s / np.maximum(np.sqrt(means), STABLE_DECAY_FLOOR)
    if cfg.norm_loss:
        norms = np.sqrt(spans.squared_norms(theta))
        if np.count_nonzero(norms) < norms.size:
            zero = norms == 0.0
            norms[zero] = 1.0  # a quiet 1/norm; these tensors' d is set below
        s = s * (1.0 - 1.0 / norms)
    d = np.repeat(s, spans.sizes) * theta
    if zero is not None:
        d[np.repeat(zero, spans.sizes)] = 0.0  # +0.0, also where theta holds -0.0
    return d
