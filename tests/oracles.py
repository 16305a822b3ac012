"""Independent oracles for the vectorized implementations.

Straight-line scalar transcriptions of the update rules, written directly
from the algorithm definitions with plain Python floats; a Frobenius norm; a
whole-tensor clip; a central-difference gradient; the MLP activations'
derivatives in the pre-activation; and the decay's per-slice loop. They use
numpy at most and deliberately import nothing from the package.
"""

import math

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


# The MLP activations' derivatives in the pre-activation z, as mlp_eval once
# computed them; the package writes them in the activation's output instead.
PRE_ACTIVATION_DERIVATIVES = {
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "relu": lambda z: (z > 0.0).astype(np.float64),
}


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
