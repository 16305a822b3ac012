"""Desk-scale differentiable problems with exact hand-written gradients.

Analytic surfaces (rosenbrock, quadratic), label-smoothed cross-entropy, a
small MLP with manual backpropagation and seeded Gaussian-cluster data.
Randomness everywhere comes from numpy's Philox counter-based generator so
data and weight draws are reproducible bit-for-bit from their seeds. A
problem draws its data on first use, so building one allocates nothing.

Weight init is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases start
at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .tensor import ParamTensor, _raise_nonfinite


def philox(seed) -> np.random.Generator:
    """Deterministic counter-based generator for the given seed material."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# -- analytic surfaces -------------------------------------------------------


def rosenbrock(x) -> tuple[float, np.ndarray]:
    """f = (1 - x1)^2 + 100 (x2 - x1^2)^2 and its analytic gradient."""
    x1, x2 = float(x[0]), float(x[1])
    loss = (1.0 - x1) ** 2 + 100.0 * (x2 - x1**2) ** 2
    grad = np.array(
        [
            -2.0 * (1.0 - x1) - 400.0 * x1 * (x2 - x1**2),
            200.0 * (x2 - x1**2),
        ]
    )
    return loss, grad


def quadratic(x, spectrum) -> tuple[float, np.ndarray]:
    """f = 1/2 sum a_i x_i^2 with diagonal spectrum a; grad = a * x."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(spectrum, dtype=np.float64)
    if np.any(a <= 0):
        raise ValueError("spectrum must be positive")
    return float(0.5 * np.sum(a * x * x)), a * x


# -- label-smoothed cross-entropy --------------------------------------------


def smoothed_targets(labels: np.ndarray, n_classes: int, alpha: float) -> np.ndarray:
    """(1 - alpha) * onehot + alpha * uniform; the true class gets 1 - alpha + alpha/C."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    labels = np.asarray(labels)
    q = np.full((labels.size, n_classes), alpha / n_classes)
    q[np.arange(labels.size), labels] += 1.0 - alpha
    return q


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def label_smoothed_ce(logits, labels, alpha: float) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy of ``logits`` [batch, classes] against the
    labels' smoothed target distributions, and its gradient w.r.t. the logits:
    (softmax(logits) - target_dist) / batch."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    batch, n_classes = logits.shape
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if labels.shape != (batch,) or labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"need one label per row, each in [0, {n_classes})")
    q = smoothed_targets(labels, n_classes, alpha)
    logp = _log_softmax(logits)
    return float(-(q * logp).sum() / batch), (np.exp(logp) - q) / batch


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


def mlp_init(widths: Sequence[int], rng: np.random.Generator) -> list[ParamTensor]:
    """Affine-layer parameters for the width chain; weights are [out, in]."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    params = []
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        params.append(ParamTensor(f"w{layer}", (fan_out, fan_in), w))
        params.append(ParamTensor(f"b{layer}", (fan_out,), np.zeros(fan_out)))
    return params


def _layers(params: Sequence[ParamTensor]) -> list[tuple[ParamTensor, ParamTensor]]:
    if len(params) % 2 != 0:
        raise ValueError("expected alternating weight/bias parameters")
    pairs = list(zip(params[0::2], params[1::2]))
    for w, b in pairs:
        if w.rank != 2 or b.rank != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"layer ({w.name}, {b.name}) shapes do not form an affine layer")
    for (w, _), (w_next, _) in zip(pairs, pairs[1:]):
        if w_next.shape[1] != w.shape[0]:
            raise ValueError(f"{w_next.name} input width does not match {w.name} output width")
    return pairs


def _check_width(w0: ParamTensor, x: np.ndarray) -> None:
    if x.shape[1] != w0.shape[1]:
        raise ValueError(
            f"{w0.name} takes inputs of width {w0.shape[1]}, got inputs of width {x.shape[1]}"
        )


def _forward(pairs, x: np.ndarray, act: Callable) -> list:
    """Every layer's input followed by the logits: affine layers with
    ``act`` between them, final layer linear."""
    acts = [x]
    for i, (w, b) in enumerate(pairs):
        z = acts[-1] @ w.array.T
        z += b.values
        acts.append(act(z, out=z) if i < len(pairs) - 1 else z)
    return acts


def mlp_logits(params: Sequence[ParamTensor], inputs, activation: str = "tanh") -> np.ndarray:
    act, _ = _activation(activation)
    pairs = _layers(params)
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("inputs must be [n, d]")
    _check_width(pairs[0][0], x)
    return _forward(pairs, x, act)[-1]


def mlp_eval(
    params: Sequence[ParamTensor],
    inputs,
    labels,
    activation: str = "tanh",
    alpha: float = 0.1,
) -> tuple[float, tuple[ParamTensor, ...]]:
    """Batch-mean smoothed cross-entropy of the MLP and its exact gradients.

    Forward: affine layers with the chosen activation between them, final
    layer linear. Backward is the usual reverse pass; all gradients are
    divided by the batch size to match the mean reduction. The pass writes
    them into one fresh buffer, in the params' order, that is checked finite
    once; the gradients are read-only views of it. A non-finite gradient
    raises ``NonFiniteError`` naming the first tensor the pass wrote
    non-finite: last layer first, weight before bias.
    """
    act, act_deriv = _activation(activation)
    pairs = _layers(params)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs must be [n, d] with one label per row")
    _check_width(pairs[0][0], x)

    acts = _forward(pairs, x, act)
    loss, d_z = label_smoothed_ce(acts[-1], y, alpha)
    starts = list(accumulate((p.size for p in params), initial=0))
    spans = list(zip(starts, starts[1:]))
    flat = np.empty(starts[-1])
    for i in reversed(range(len(pairs))):
        w, b = pairs[i]
        lo, mid, hi = starts[2 * i : 2 * i + 3]
        np.matmul(d_z.T, acts[i], out=flat[lo:mid].reshape(w.shape))
        d_z.sum(axis=0, out=flat[mid:hi])
        if i > 0:
            d_z = d_z @ w.array
            d_z *= act_deriv(acts[i])
    if not np.isfinite(flat).all():
        backward = [j for i in reversed(range(len(pairs))) for j in (2 * i, 2 * i + 1)]
        _raise_nonfinite([params[j] for j in backward], [spans[j] for j in backward], flat)
    return loss, ParamTensor._views(params, spans, flat)


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
    start: tuple[float, float] = (-1.5, 2.0)
    name: str = "rosenbrock"

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
    spectrum: tuple[float, ...]
    start: tuple[float, ...]
    name: str = "quadratic"

    def __post_init__(self) -> None:
        if len(self.spectrum) != len(self.start):
            raise ValueError("spectrum and start must have the same length")

    def init_params(self, rng: np.random.Generator) -> list[ParamTensor]:
        return [ParamTensor("x", (len(self.start),), self.start)]

    def sample_batch(self, rng: np.random.Generator):
        return None

    def evaluate(self, params: Sequence[ParamTensor], batch=None):
        loss, grad = quadratic(params[0].values, self.spectrum)
        return loss, [params[0].with_values(grad)]

    def metrics(self, params: Sequence[ParamTensor]):
        return quadratic(params[0].values, self.spectrum)[0], None


@dataclass
class BlobsMLPProblem:
    """Blob classification with an MLP; minibatches are sampled with replacement.

    ``blobs`` holds ``make_blobs``'s arguments (data_seed, n, d, classes,
    separation); the data is drawn on the first evaluate or metrics call."""

    blobs: tuple[int, int, int, int, float]
    hidden: tuple[int, ...]
    batch_size: int
    activation: str = "tanh"
    alpha: float = 0.1
    name: str = "blobs_mlp"
    widths: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        _, n, d, n_classes, _ = self.blobs
        _check_blob_counts(n, n_classes)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        _activation(self.activation)
        self.widths = (d, *self.hidden, n_classes)

    @cached_property
    def data(self) -> tuple[np.ndarray, np.ndarray]:
        """``make_blobs(*self.blobs)``: the inputs [n, d] and labels [n]."""
        return make_blobs(*self.blobs)

    def init_params(self, rng: np.random.Generator) -> list[ParamTensor]:
        return mlp_init(self.widths, rng)

    def sample_batch(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.blobs[1], size=self.batch_size)

    def evaluate(self, params: Sequence[ParamTensor], batch=None):
        x, y = self.data
        if batch is not None:
            x, y = x[batch], y[batch]
        return mlp_eval(params, x, y, activation=self.activation, alpha=self.alpha)

    def metrics(self, params: Sequence[ParamTensor]):
        """Full-dataset loss and accuracy from one forward pass."""
        x, y = self.data
        logits = mlp_logits(params, x, activation=self.activation)
        loss, _ = label_smoothed_ce(logits, y, self.alpha)
        accuracy = float(np.mean(logits.argmax(axis=1) == y))
        return loss, accuracy
