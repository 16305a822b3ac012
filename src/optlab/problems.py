"""Desk-scale differentiable problems with exact hand-written gradients.

Analytic surfaces (rosenbrock, quadratic), and blob classification with a
small MLP under label-smoothed cross-entropy, backpropagated by hand over
seeded Gaussian-cluster data; ``BlobsMLPProblem`` is the way into the MLP.
Randomness everywhere comes from numpy's Philox counter-based generator so
data and weight draws are reproducible bit-for-bit from their seeds. A
problem draws its data on first use, so building one allocates nothing; a
blobs MLP problem builds its layer layout and its labels' smoothed targets
at the same time, once, and each evaluate then only checks the params'
shapes against that layout before the backward pass.

Weight init is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases start
at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .tensor import ParamTensor, _raise_nonfinite


def philox(seed) -> np.random.Generator:
    """Deterministic counter-based generator for the given seed material."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# -- analytic surfaces -------------------------------------------------------


def rosenbrock(x) -> tuple[float, np.ndarray]:
    """f = (1 - x1)^2 + 100 (x2 - x1^2)^2 and its analytic gradient.

    Where a square overflows (Python's float ``**`` raises instead of giving
    inf), the loss is inf and the gradient NaN, so a diverging run reads as
    diverged."""
    x1, x2 = float(x[0]), float(x[1])
    try:
        loss = (1.0 - x1) ** 2 + 100.0 * (x2 - x1**2) ** 2
        grad = np.array(
            [
                -2.0 * (1.0 - x1) - 400.0 * x1 * (x2 - x1**2),
                200.0 * (x2 - x1**2),
            ]
        )
    except OverflowError:
        return math.inf, np.full(2, math.nan)
    return loss, grad


def _checked_spectrum(spectrum) -> np.ndarray:
    """``spectrum`` as a float64 array; it must be non-empty and positive."""
    a = np.asarray(spectrum, dtype=np.float64)
    if a.size == 0:
        raise ValueError("spectrum must be non-empty")
    if not np.all(a > 0):  # also rejects NaN
        raise ValueError("spectrum must be positive")
    return a


def _check_start(start) -> None:
    if not all(math.isfinite(x) for x in start):
        raise ValueError(f"start must be finite, got {tuple(start)}")


# -- label-smoothed cross-entropy --------------------------------------------


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")


def smoothed_targets(labels, n_classes: int, alpha: float) -> np.ndarray:
    """(1 - alpha) * onehot + alpha * uniform, one row per label; the true
    class gets 1 - alpha + alpha/C. The labels must be a 1-D array of an
    integer dtype (not bool), each in [0, n_classes), with n_classes >= 2;
    anything else raises ``ValueError``. No labels give no rows."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    _check_alpha(alpha)
    labels = np.asarray(labels)
    if (
        labels.ndim != 1
        or labels.dtype.kind not in "iu"
        or (labels.size > 0 and (labels.min() < 0 or labels.max() >= n_classes))
    ):
        raise ValueError(f"need one label per row, each in [0, {n_classes})")
    q = np.full((labels.size, n_classes), alpha / n_classes)
    q[np.arange(labels.size), labels] += 1.0 - alpha
    return q


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _ce_loss(logp: np.ndarray, q: np.ndarray) -> float:
    return float(-(q * logp).sum() / q.shape[0])


def _smoothed_ce(logits: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    logp = _log_softmax(logits)
    return _ce_loss(logp, q), (np.exp(logp) - q) / q.shape[0]


# -- MLP with manual backprop -------------------------------------------------

def _tanh_slope(a: np.ndarray) -> np.ndarray:
    slope = a * a
    return np.subtract(1.0, slope, out=slope)


# name -> (activation, taking an optional ``out``, and its derivative written
# in the activation's output a), so the backward pass reads the stored
# activations instead of recomputing them. 1 - a*a and a > 0 must give the
# same bits as the pre-activation forms 1 - tanh(z)**2 and z > 0
# (tests/test_problems.py pins both).
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, _tanh_slope),
    "relu": (
        lambda z, out=None: np.maximum(z, 0.0, out=out),
        lambda a: (a > 0.0).astype(np.float64),
    ),
}


def _activation(name: str) -> tuple[Callable, Callable]:
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return ACTIVATIONS[name]


def _check_widths(widths: Sequence[int]) -> None:
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    if min(widths) < 1:
        raise ValueError(f"every width must be >= 1, got {tuple(widths)}")


def mlp_init(widths: Sequence[int], rng: np.random.Generator) -> list[ParamTensor]:
    """Affine-layer parameters for the width chain; weights are [out, in]."""
    _check_widths(widths)
    params = []
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        params.append(ParamTensor(f"w{layer}", (fan_out, fan_in), w))
        params.append(ParamTensor(f"b{layer}", (fan_out,), np.zeros(fan_out)))
    return params


class _Layout(NamedTuple):
    """The flat gradient layout of an MLP's params, from its widths: each
    param's shape, the offsets ``starts`` at which each param's ``(lo, hi)``
    span begins, and the param indices in the order the backward pass writes
    them (last layer first, weight before bias), the order in which a
    non-finite gradient is named."""

    shapes: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    backward: tuple[int, ...]


def _layout(widths: Sequence[int]) -> _Layout:
    shapes = tuple(
        shape
        for fan_in, fan_out in zip(widths[:-1], widths[1:])
        for shape in ((fan_out, fan_in), (fan_out,))
    )
    starts = tuple(accumulate(map(math.prod, shapes), initial=0))
    backward = tuple(j for i in reversed(range(len(widths) - 1)) for j in (2 * i, 2 * i + 1))
    return _Layout(shapes, starts, tuple(zip(starts, starts[1:])), backward)


def _forward(params, x: np.ndarray, act: Callable) -> Iterator[np.ndarray]:
    """Each layer's output in turn, the logits last: affine layers with
    ``act`` between them, final layer linear. The pass itself holds only the
    layer it computes and the one before it."""
    last = len(params) - 2
    for i in range(0, len(params), 2):
        z = x @ params[i].array.T
        z += params[i + 1].values
        x = act(z, out=z) if i < last else z
        yield x


def _logits(params, x: np.ndarray, act: Callable) -> np.ndarray:
    for logits in _forward(params, x, act):
        pass
    return logits


def _backprop(
    params, layout: _Layout, x: np.ndarray, q: np.ndarray, act: Callable, act_deriv: Callable
) -> tuple[float, tuple[ParamTensor, ...]]:
    """Batch-mean smoothed cross-entropy of the MLP and its exact gradients,
    for params laid out as ``layout``, inputs ``x`` and smoothed targets
    ``q``, all checked by the caller.

    The backward pass is the usual reverse pass; all gradients are divided by
    the batch size to match the mean reduction. It writes them into one fresh
    buffer, in the params' order, that is checked finite once; the gradients
    are read-only views of it. A non-finite gradient raises
    ``NonFiniteError`` naming the first tensor the pass wrote non-finite:
    last layer first, weight before bias."""
    acts = [x, *_forward(params, x, act)]
    loss, d_z = _smoothed_ce(acts[-1], q)
    starts = layout.starts
    flat = np.empty(starts[-1])
    for i in reversed(range(len(params) // 2)):
        w = params[2 * i]
        lo, mid, hi = starts[2 * i : 2 * i + 3]
        np.matmul(d_z.T, acts[i], out=flat[lo:mid].reshape(w.shape))
        d_z.sum(axis=0, out=flat[mid:hi])
        if i > 0:
            d_z = d_z @ w.array
            d_z *= act_deriv(acts[i])
    if not np.isfinite(flat).all():
        order = layout.backward
        _raise_nonfinite([params[j] for j in order], [layout.spans[j] for j in order], flat)
    return loss, ParamTensor._views(params, layout.spans, flat)


# -- data -----------------------------------------------------------------------


def _check_blob_counts(n: int, n_classes: int) -> None:
    if not n >= n_classes >= 2:
        raise ValueError(f"need n >= n_classes >= 2, got n={n}, n_classes={n_classes}")


def make_blobs(
    seed: int, n: int, d: int, n_classes: int, separation: float
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 inputs [n, d] in Gaussian class clusters (unit noise) at
    `separation` times random unit directions, and their int64 labels [n].
    Balanced labels (counts differ by at most 1); a pure function of its
    arguments."""
    _check_blob_counts(n, n_classes)
    rng = philox(seed)
    directions = rng.standard_normal((n_classes, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions
    labels = np.arange(n, dtype=np.int64) % n_classes
    return means[labels] + rng.standard_normal((n, d)), labels


# -- benchmark problems ---------------------------------------------------------


@dataclass
class RosenbrockProblem:
    name: ClassVar[str] = "rosenbrock"
    start: tuple[float, float] = (-1.5, 2.0)

    def __post_init__(self) -> None:
        if len(self.start) != 2:
            raise ValueError(f"start must hold 2 numbers, got {len(self.start)}")
        _check_start(self.start)

    def init_params(self, rng: np.random.Generator) -> list[ParamTensor]:
        return [ParamTensor("x", (2,), self.start)]

    def sample_batch(self, rng: np.random.Generator):
        return None

    def evaluate(self, params: Sequence[ParamTensor], batch=None):
        loss, grad = rosenbrock(params[0].values)
        return loss, [params[0].with_values(grad)]

    def metrics(self, params: Sequence[ParamTensor]):
        return rosenbrock(params[0].values)[0], None


@dataclass
class QuadraticProblem:
    name: ClassVar[str] = "quadratic"
    spectrum: tuple[float, ...]
    start: tuple[float, ...]
    _a: np.ndarray = field(init=False, repr=False, compare=False)  # the checked spectrum

    def __post_init__(self) -> None:
        self._a = _checked_spectrum(self.spectrum)
        if len(self.spectrum) != len(self.start):
            raise ValueError("spectrum and start must have the same length")
        _check_start(self.start)

    def init_params(self, rng: np.random.Generator) -> list[ParamTensor]:
        return [ParamTensor("x", (len(self.start),), self.start)]

    def sample_batch(self, rng: np.random.Generator):
        return None

    def _at(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """f = 1/2 sum a_i x_i^2 over the checked spectrum a, and grad = a * x."""
        return float(0.5 * np.sum(self._a * x * x)), self._a * x

    def evaluate(self, params: Sequence[ParamTensor], batch=None):
        loss, grad = self._at(params[0].values)
        return loss, [params[0].with_values(grad)]

    def metrics(self, params: Sequence[ParamTensor]):
        return self._at(params[0].values)[0], None


@dataclass
class BlobsMLPProblem:
    """Blob classification with an MLP; minibatches are sampled with replacement.

    ``blobs`` holds ``make_blobs``'s arguments (data_seed, n, d, classes,
    separation); the data is drawn on the first evaluate or metrics call."""

    name: ClassVar[str] = "blobs_mlp"
    blobs: tuple[int, int, int, int, float]
    hidden: tuple[int, ...]
    batch_size: int
    activation: str = "tanh"
    alpha: float = 0.1
    widths: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        _, n, d, n_classes, separation = self.blobs
        _check_blob_counts(n, n_classes)
        if not math.isfinite(separation):
            raise ValueError(f"separation must be finite, got {separation}")
        _check_alpha(self.alpha)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        _activation(self.activation)
        self.widths = (d, *self.hidden, n_classes)
        _check_widths(self.widths)

    @cached_property
    def data(self) -> tuple[np.ndarray, np.ndarray]:
        """``make_blobs(*self.blobs)``: the inputs [n, d] and labels [n]."""
        return make_blobs(*self.blobs)

    def init_params(self, rng: np.random.Generator) -> list[ParamTensor]:
        return mlp_init(self.widths, rng)

    def sample_batch(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.blobs[1], size=self.batch_size)

    @cached_property
    def layout(self) -> _Layout:
        """The params' shapes and gradient layout, from ``widths``; built on
        the first evaluate or metrics call."""
        return _layout(self.widths)

    @cached_property
    def targets(self) -> np.ndarray:
        """``smoothed_targets`` of the data's labels, [n, classes]; built on
        the first evaluate or metrics call."""
        return smoothed_targets(self.data[1], self.widths[-1], self.alpha)

    def _check_shapes(self, params: Sequence[ParamTensor]) -> None:
        shapes = self.layout.shapes
        if tuple(p.shape for p in params) != shapes:
            for p, shape in zip(params, shapes):
                if p.shape != shape:
                    raise ValueError(
                        f"{p.name}: widths {self.widths} need shape {shape}, got {p.shape}"
                    )
            raise ValueError(f"widths {self.widths} need {len(shapes)} params, got {len(params)}")

    def evaluate(self, params: Sequence[ParamTensor], batch=None):
        self._check_shapes(params)
        x, q = self.data[0], self.targets
        if batch is not None:
            x, q = x[batch], q[batch]
        return _backprop(params, self.layout, x, q, *_activation(self.activation))

    def metrics(self, params: Sequence[ParamTensor]):
        """Full-dataset loss and accuracy from one forward pass; the loss is
        computed alone, without its gradient."""
        self._check_shapes(params)
        x, y = self.data
        logits = _logits(params, x, _activation(self.activation)[0])
        accuracy = float(np.mean(logits.argmax(axis=1) == y))
        return _ce_loss(_log_softmax(logits), self.targets), accuracy
