"""Desk-scale differentiable problems with exact hand-written gradients.

Analytic surfaces (rosenbrock, quadratic), label-smoothed cross-entropy, a
small MLP with manual backpropagation, seeded Gaussian-cluster datasets, and
a central-difference gradient oracle. Randomness everywhere comes from
numpy's Philox counter-based generator so datasets and weight draws are
reproducible bit-for-bit from their seeds.

Weight init is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases start
at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .tensor import ParamTensor


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


def label_smoothed_ce(logits, target: int, alpha: float) -> tuple[float, np.ndarray]:
    """Cross-entropy of one sample against its smoothed target distribution.

    Gradient with respect to the logits is softmax(logits) - target_dist.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n_classes = logits.shape[-1]
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if not 0 <= target < n_classes:
        raise ValueError(f"target {target} out of range [0, {n_classes})")
    q = smoothed_targets(np.array([target]), n_classes, alpha)[0]
    logp = _log_softmax(logits)
    loss = float(-(q * logp).sum())
    return loss, np.exp(logp) - q


# -- MLP with manual backprop -------------------------------------------------

ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
}


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


def _forward(pairs, x: np.ndarray, act: Callable) -> tuple[list, list]:
    """Pre-activations of every layer, and every layer's input followed by
    the logits: affine layers with ``act`` between them, final layer linear."""
    pre, acts = [], [x]
    for i, (w, b) in enumerate(pairs):
        z = acts[-1] @ w.array.T + b.values
        pre.append(z)
        acts.append(act(z) if i < len(pairs) - 1 else z)
    return pre, acts


def _smoothed_ce(logits: np.ndarray, labels, alpha: float) -> tuple[float, np.ndarray]:
    """Batch-mean smoothed cross-entropy and its gradient w.r.t. the logits."""
    batch, n_classes = logits.shape
    q = smoothed_targets(labels, n_classes, alpha)
    logp = _log_softmax(logits)
    return float(-(q * logp).sum() / batch), (np.exp(logp) - q) / batch


def mlp_logits(params: Sequence[ParamTensor], inputs, activation: str = "tanh") -> np.ndarray:
    act, _ = ACTIVATIONS[activation]
    _, acts = _forward(_layers(params), np.asarray(inputs, dtype=np.float64), act)
    return acts[-1]


def mlp_eval(
    params: Sequence[ParamTensor],
    inputs,
    labels,
    activation: str = "tanh",
    alpha: float = 0.1,
) -> tuple[float, list[ParamTensor]]:
    """Batch-mean smoothed cross-entropy of the MLP and its exact gradients.

    Forward: affine layers with the chosen activation between them, final
    layer linear. Backward is the usual reverse pass; all gradients are
    divided by the batch size to match the mean reduction.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    act, act_deriv = ACTIVATIONS[activation]
    pairs = _layers(params)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs must be [n, d] with one label per row")

    pre, acts = _forward(pairs, x, act)
    loss, d_z = _smoothed_ce(acts[-1], y, alpha)
    grads: list[ParamTensor | None] = [None] * len(params)
    for i in reversed(range(len(pairs))):
        w, b = pairs[i]
        grads[2 * i] = w.with_values(d_z.T @ acts[i])
        grads[2 * i + 1] = b.with_values(d_z.sum(axis=0))
        if i > 0:
            d_z = (d_z @ w.array) * act_deriv(pre[i - 1])
    return loss, grads


# -- datasets -----------------------------------------------------------------


@dataclass
class Dataset:
    """Classification samples: inputs [n, d], integer labels [n]."""

    inputs: np.ndarray
    labels: np.ndarray
    seed: int
    n_classes: int

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be [n, d], labels [n]")
        if self.inputs.shape[0] != self.labels.shape[0] or self.inputs.shape[0] < 1:
            raise ValueError("need one label per sample and at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(f"labels must lie in [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def to_csv(self, path: str | Path) -> None:
        lines = [",".join([f"x{i}" for i in range(self.dim)] + ["label"])]
        for row, label in zip(self.inputs, self.labels):
            lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path, seed: int = 0, n_classes: int | None = None) -> "Dataset":
        lines = Path(path).read_text().splitlines()
        header = lines[0].split(",")
        dim = len(header) - 1
        inputs, labels = [], []
        for line in lines[1:]:
            cells = line.split(",")
            inputs.append([float(c) for c in cells[:dim]])
            labels.append(int(cells[dim]))
        labels_arr = np.asarray(labels, dtype=np.int64)
        if n_classes is None:
            n_classes = int(labels_arr.max()) + 1
        return cls(np.asarray(inputs), labels_arr, seed=seed, n_classes=n_classes)


def make_blobs(seed: int, n: int, d: int, n_classes: int, separation: float) -> Dataset:
    """Gaussian class clusters (unit noise) at `separation` times random unit
    directions. Balanced labels (counts differ by at most 1); a pure function
    of its arguments."""
    if not n >= n_classes >= 2:
        raise ValueError(f"need n >= n_classes >= 2, got n={n}, n_classes={n_classes}")
    rng = philox(seed)
    directions = rng.standard_normal((n_classes, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions
    labels = np.arange(n, dtype=np.int64) % n_classes
    inputs = means[labels] + rng.standard_normal((n, d))
    return Dataset(inputs, labels, seed=seed, n_classes=n_classes)


# -- finite differences --------------------------------------------------------


def finite_diff_grad(
    f: Callable[[list[ParamTensor]], float],
    params: Sequence[ParamTensor],
    h: float = 1e-6,
) -> list[ParamTensor]:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h, per coordinate."""
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    grads = []
    base = [p.values.copy() for p in params]
    for k, p in enumerate(params):
        grad = np.zeros(p.size)
        for i in range(p.size):
            bumped = [arr.copy() for arr in base]
            bumped[k][i] += h
            up = f([q.with_values(arr) for q, arr in zip(params, bumped)])
            bumped[k][i] -= 2.0 * h
            down = f([q.with_values(arr) for q, arr in zip(params, bumped)])
            grad[i] = (up - down) / (2.0 * h)
        grads.append(p.with_values(grad))
    return grads


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
    """Blob classification with an MLP; minibatches are sampled with replacement."""

    dataset: Dataset
    hidden: tuple[int, ...]
    batch_size: int
    activation: str = "tanh"
    alpha: float = 0.1
    name: str = "blobs_mlp"
    widths: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.widths = (self.dataset.dim, *self.hidden, self.dataset.n_classes)

    def init_params(self, rng: np.random.Generator) -> list[ParamTensor]:
        return mlp_init(self.widths, rng)

    def sample_batch(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.dataset.n, size=self.batch_size)

    def evaluate(self, params: Sequence[ParamTensor], batch=None):
        if batch is None:
            x, y = self.dataset.inputs, self.dataset.labels
        else:
            x, y = self.dataset.inputs[batch], self.dataset.labels[batch]
        return mlp_eval(params, x, y, activation=self.activation, alpha=self.alpha)

    def metrics(self, params: Sequence[ParamTensor]):
        """Full-dataset loss and accuracy from one forward pass."""
        logits = mlp_logits(params, self.dataset.inputs, activation=self.activation)
        loss, _ = _smoothed_ce(logits, self.dataset.labels, self.alpha)
        accuracy = float(np.mean(logits.argmax(axis=1) == self.dataset.labels))
        return loss, accuracy
