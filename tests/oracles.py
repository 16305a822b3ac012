"""Independent oracles for the vectorized implementations.

Straight-line scalar transcriptions of the update rules, written directly
from the algorithm definitions with plain Python floats; a Frobenius norm; a
whole-tensor clip; a central-difference gradient; the quadratic surface; the
MLP activations' derivatives in the pre-activation; a label-smoothed
cross-entropy and a reference MLP, forward and backward, that differentiates
through those derivatives; the decay's per-slice loop; the default schedule
phase lengths in exact rationals; and a reader of checkpoint format v4. They
use numpy at most and deliberately import nothing from the package.
"""

import base64
import json
import math
from fractions import Fraction

import numpy as np


def frobenius_norm(a):
    """Square root of the sum of squared entries; 0 for an all-zero array.
    The same dot product as ``np.linalg.norm(a)``, so the same bits."""
    flat = a.ravel(order="K")
    return math.sqrt(float(np.dot(flat, flat)))


def global_threshold_clip(g, tau):
    """Whole-tensor Frobenius clip: rescale to norm tau when the norm exceeds tau."""
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    norm = float(np.linalg.norm(g))
    if norm <= tau:
        return g
    return g * (tau / norm)


def finite_diff_grad(f, params, h=1e-6):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h, per coordinate,
    of ``f`` over a list of tensors; one gradient tensor per parameter."""
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


def quadratic(x, spectrum):
    """f = 1/2 sum a_i x_i^2 over the diagonal spectrum a, and its gradient a * x."""
    x, a = np.asarray(x, dtype=np.float64), np.asarray(spectrum, dtype=np.float64)
    return float(0.5 * np.sum(a * x * x)), a * x


# The MLP activations' derivatives in the pre-activation z, as their
# definitions give them; the package writes them in the activation's output.
PRE_ACTIVATION_DERIVATIVES = {
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "relu": lambda z: (z > 0.0).astype(np.float64),
}


def label_smoothed_ce(logits, labels, alpha):
    """The batch-mean label-smoothed cross-entropy of ``logits`` [n, classes]
    against integer ``labels`` [n], and its gradient w.r.t. the logits. The
    targets are (1 - alpha) one-hot plus alpha uniform. Returns (loss, d_logits)."""
    n, n_classes = logits.shape
    q = (1.0 - alpha) * np.eye(n_classes)[labels] + alpha / n_classes
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-(q * logp).sum() / n), (np.exp(logp) - q) / n


def mlp_eval(layers, x, labels, activation, alpha):
    """A reference MLP's logits, its ``label_smoothed_ce`` and the loss's
    gradients, straight from the definitions. ``layers`` holds one
    (weight [out, in], bias [out]) pair of arrays per affine layer, with
    ``activation`` between layers and the last one linear. Returns
    (logits, loss, gradients), the gradients in the layers' order, weight
    before bias; the backward pass differentiates each activation at its
    pre-activation z."""
    act = {"tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0)}[activation]
    pre, outs = [], [x]
    for i, (w, b) in enumerate(layers):
        z = outs[-1] @ w.T + b
        pre.append(z)
        outs.append(z if i == len(layers) - 1 else act(z))
    logits = outs[-1]
    loss, d_z = label_smoothed_ce(logits, labels, alpha)
    grads = []
    for i in reversed(range(len(layers))):
        grads[:0] = [d_z.T @ outs[i], d_z.sum(axis=0)]
        if i > 0:
            d_z = (d_z @ layers[i][0]) * PRE_ACTIVATION_DERIVATIVES[activation](pre[i - 1])
    return logits, loss, grads


STABLE_DECAY_FLOOR = 1e-8  # the package's floor for sqrt(mean(v_hat))


def combined_decay_by_slice(theta, v_hat, eta_t, cfg, spans):
    """``combined_decay`` with ``spans`` as it was written before the per-run
    reductions: a Python loop over the spans for each tensor's two scalars,
    the sum and the squared norm of its slice, then one multiply. ``cfg`` is
    a ``DecayConfig``."""
    scale = eta_t * cfg.weight_decay
    if not (cfg.stable or cfg.norm_loss):
        return scale * theta
    scales, sizes, zero = [], [], []
    for lo, hi in spans:
        s = scale
        if cfg.stable:
            # sum/n has the bits of np.mean
            s /= max(math.sqrt(float(v_hat[lo:hi].sum() / (hi - lo))), STABLE_DECAY_FLOOR)
        if cfg.norm_loss:
            norm = frobenius_norm(theta[lo:hi])
            if norm == 0.0:
                zero.append((lo, hi))
                s = 0.0
            else:
                s *= 1.0 - 1.0 / norm
        scales.append(s)
        sizes.append(hi - lo)
    d = np.repeat(scales, sizes) * theta
    for lo, hi in zero:
        d[lo:hi] = 0.0  # +0.0, also where theta holds -0.0
    return d


def adamw_scalar_trajectory(
    theta0, grads, eta=1e-3, weight_decay=1e-4, beta1=0.9, beta2=0.999, eps=1e-8
):
    """Decoupled-decay adaptive moments on one scalar; returns theta after each step."""
    theta = theta0
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        m_hat = m / (1.0 - beta1**t)
        v = beta2 * v + (1.0 - beta2) * g * g
        v_hat = v / (1.0 - beta2**t)
        u = m_hat / (math.sqrt(v_hat) + eps)
        d = weight_decay * theta
        theta = theta - eta * u - eta * d
        out.append(theta)
    return out


def pnm_scalar(grads, beta0=0.9, beta1=0.9, beta2=0.999, eps=1e-8):
    """Two-buffer momentum with second-moment max on one scalar.

    Returns (update vectors, bias-corrected second moments), one pair per step.
    """
    m_prev = 0.0
    m_prev2 = 0.0
    v = 0.0
    v_max = 0.0
    us, v_hats = [], []
    for t, g in enumerate(grads, start=1):
        m = beta1 * beta1 * m_prev2 + (1.0 - beta1 * beta1) * g
        m_hat = ((1.0 + beta0) * m - beta0 * m_prev) / (1.0 - beta1**t)
        v = beta2 * v + (1.0 - beta2) * g * g
        v_max = max(v, v_max)
        v_hat = v_max / (1.0 - beta2**t)
        u = m_hat / (math.sqrt((1.0 + beta0) ** 2 + beta0**2) * (math.sqrt(v_hat) + eps))
        m_prev2, m_prev = m_prev, m
        us.append(u)
        v_hats.append(v_hat)
    return us, v_hats


def default_phase_length(percent, t_max):
    """A schedule phase's default length: ``percent`` of ``t_max`` in exact
    rationals, rounded half-up, and at least one step."""
    return max(1, int(Fraction(percent, 100) * t_max + Fraction(1, 2)))


def schedule_factor_scalar(t, t_max, t_warmup, t_warmdown, beta2=0.999):
    return min(
        1.0,
        max((1.0 - beta2) / 2.0 * t, t / t_warmup),
        (t_max - t) / t_warmdown,
    )


def ranger21_scalar_trajectory(
    theta0,
    grads,
    eta,
    t_max,
    t_warmup,
    t_warmdown,
    weight_decay=1e-4,
    beta0=0.9,
    beta1=0.9,
    beta2=0.999,
    beta_la=0.5,
    eps=1e-8,
    eps_clip=1e-3,
    tau=1e-2,
    k=5,
):
    """Full composed update on one scalar parameter; returns theta after each step.

    A scalar is a single rank-1 unit: it is clipped unit-wise but never
    centralized. The decay's tensor norm and second-moment mean are the
    scalar's absolute value and v_hat itself.
    """
    theta = theta0
    slow = theta0
    m_prev = 0.0
    m_prev2 = 0.0
    v = 0.0
    v_max = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        limit = max(abs(theta), eps_clip)
        if abs(g) > tau * limit:
            g = tau * limit / abs(g) * g

        m = beta1 * beta1 * m_prev2 + (1.0 - beta1 * beta1) * g
        m_hat = ((1.0 + beta0) * m - beta0 * m_prev) / (1.0 - beta1**t)
        v = beta2 * v + (1.0 - beta2) * g * g
        v_max = max(v, v_max)
        v_hat = v_max / (1.0 - beta2**t)
        u = m_hat / (math.sqrt((1.0 + beta0) ** 2 + beta0**2) * (math.sqrt(v_hat) + eps))
        m_prev2, m_prev = m_prev, m

        eta_t = eta * schedule_factor_scalar(t, t_max, t_warmup, t_warmdown, beta2)
        if theta == 0.0:
            d = 0.0
        else:
            d = (
                eta_t
                * weight_decay
                / max(math.sqrt(v_hat), 1e-8)
                * (1.0 - 1.0 / abs(theta))
                * theta
            )
        theta = theta - eta_t * u - d

        if t % k == 0:
            slow = beta_la * slow + (1.0 - beta_la) * theta
            theta = slow
        out.append(theta)
    return out


def v4_as_v3(data: bytes) -> dict:
    """The v3 checkpoint dict that the bytes of a v4 file hold, read from the
    format's definition. The first line is ``json.dumps`` of the document, the
    v3 document at version 4 with each buffer leaf an int: the byte offset, in
    the raw section after the newline, of that tensor's '<f8' values. The
    section holds six buffers over all the tensors' values. Asserts each of
    these; each leaf of the result is the base64 of the bytes at its offset."""
    line, section = data.split(b"\n", 1)
    doc = json.loads(line)
    assert line == json.dumps(doc).encode("ascii")
    assert doc["checkpoint_version"] == 4
    sizes = {entry["name"]: math.prod(entry["shape"]) for entry in doc["params"]}
    assert len(section) == 6 * 8 * sum(sizes.values())

    def buffer(offset, name):
        assert type(offset) is int and 0 <= offset <= len(section) - 8 * sizes[name]
        return base64.b64encode(section[offset : offset + 8 * sizes[name]]).decode("ascii")

    return {
        **doc,
        "checkpoint_version": 3,
        "params": [{**e, "values": buffer(e["values"], e["name"])} for e in doc["params"]],
        "moments": {
            name: {slot: buffer(offset, name) for slot, offset in slots.items()}
            for name, slots in doc["moments"].items()
        },
        "slow": {name: buffer(offset, name) for name, offset in doc["slow"].items()},
    }
