"""Reference formulations of the gated network, kept as oracles for the tests.

- The per-sample `forward`/`backward`/`bce_loss` are the textbook equations,
  one input vector at a time; finite differences of `bce_loss(forward(...))`
  check the batch gradient that `attention.train` uses.
- `reference_sigmoid`, `reference_train` and `reference_augment` are the plain
  allocating formulation: boolean-mask sigmoid, fresh arrays for every batch
  temporary, per-parameter Adam and SGD updates. The in-place training step
  must match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from attnboost.attention import AttentionParams, TrainConfig, init_params
from attnboost.tabular import FeatureMatrix

PARAM_FIELDS = ("W1", "b1", "W_attn", "b_attn", "w2", "b2")


def reference_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


@dataclass
class ForwardTrace:
    x: np.ndarray
    h: np.ndarray
    alpha: np.ndarray
    h_tilde: np.ndarray
    y_hat: float


@dataclass
class Gradients:
    W1: np.ndarray
    b1: np.ndarray
    W_attn: np.ndarray
    b_attn: np.ndarray
    w2: np.ndarray
    b2: float


def forward(params: AttentionParams, x: np.ndarray) -> ForwardTrace:
    """Run one input vector through the gated network, keeping intermediates."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d,):
        raise ValueError(f"input has shape {x.shape}, expected ({params.d},)")
    h = np.maximum(params.W1 @ x + params.b1, 0.0)
    alpha = reference_sigmoid(params.W_attn @ h + params.b_attn)
    h_tilde = alpha * h
    y_hat = float(reference_sigmoid(params.w2 @ h_tilde + params.b2))
    return ForwardTrace(x=x, h=h, alpha=alpha, h_tilde=h_tilde, y_hat=y_hat)


def bce_loss(y_hat: float, y: int, prob_clamp: float = 1e-12) -> float:
    """Binary cross-entropy with the probability clamped away from 0 and 1."""
    if not 0.0 <= y_hat <= 1.0:
        raise ValueError(f"y_hat must be a probability, got {y_hat}")
    p = min(max(y_hat, prob_clamp), 1.0 - prob_clamp)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def backward(params: AttentionParams, trace: ForwardTrace, y: int) -> Gradients:
    """Exact loss gradients for one sample, given its forward trace."""
    dz_out = trace.y_hat - y
    d_ht = dz_out * params.w2
    dz_attn = d_ht * trace.h * trace.alpha * (1.0 - trace.alpha)
    d_h = d_ht * trace.alpha + params.W_attn.T @ dz_attn
    dz1 = d_h * (trace.h > 0.0)
    return Gradients(
        W1=np.outer(dz1, trace.x),
        b1=dz1,
        W_attn=np.outer(dz_attn, trace.h),
        b_attn=dz_attn,
        w2=dz_out * trace.h_tilde,
        b2=dz_out,
    )


def _forward_batch(params: AttentionParams, X: np.ndarray):
    H = np.maximum(X @ params.W1.T + params.b1, 0.0)
    A = reference_sigmoid(H @ params.W_attn.T + params.b_attn)
    Ht = A * H
    y_hat = reference_sigmoid(Ht @ params.w2 + params.b2)
    return H, A, Ht, y_hat


def _backward_batch(params: AttentionParams, X, y, H, A, Ht, y_hat) -> Gradients:
    n = X.shape[0]
    dz_out = (y_hat - y) / n
    g_b2 = float(dz_out.sum())
    g_w2 = Ht.T @ dz_out
    d_ht = np.outer(dz_out, params.w2)
    dz_attn = d_ht * H * A * (1.0 - A)
    g_W_attn = dz_attn.T @ H
    g_b_attn = dz_attn.sum(axis=0)
    d_h = d_ht * A + dz_attn @ params.W_attn
    dz1 = d_h * (H > 0.0)
    return Gradients(W1=dz1.T @ X, b1=dz1.sum(axis=0), W_attn=g_W_attn,
                     b_attn=g_b_attn, w2=g_w2, b2=g_b2)


class _AdamState:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: AttentionParams):
        self.t = 0
        self.m = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS[:-1]}
        self.v = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS[:-1]}
        self.m["b2"] = 0.0
        self.v["b2"] = 0.0

    def step(self, params: AttentionParams, grads: Gradients, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name in PARAM_FIELDS:
            g = getattr(grads, name)
            self.m[name] = self.BETA1 * self.m[name] + (1.0 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1.0 - self.BETA2) * (g * g)
            update = lr * (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.EPS)
            setattr(params, name, getattr(params, name) - update)


def _sgd_step(params: AttentionParams, grads: Gradients, lr: float) -> None:
    for name in PARAM_FIELDS:
        setattr(params, name, getattr(params, name) - lr * getattr(grads, name))


def reference_train(X: FeatureMatrix, y: np.ndarray, config: TrainConfig):
    """The allocating mini-batch loop: same shuffles, same batches, same updates."""
    values = X.values
    y = np.asarray(y)
    n = values.shape[0]
    params = init_params(values.shape[1], config.k, config.seed)
    rng = np.random.default_rng(config.seed)
    adam = _AdamState(params) if config.optimizer == "adaptive-moments" else None
    clamp = config.prob_clamp
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            Xb, yb = values[batch], y[batch]
            H, A, Ht, y_hat = _forward_batch(params, Xb)
            p = np.clip(y_hat, clamp, 1.0 - clamp)
            loss_sum += float(-(yb * np.log(p) + (1 - yb) * np.log(1.0 - p)).sum())
            grads = _backward_batch(params, Xb, yb, H, A, Ht, y_hat)
            if adam is not None:
                adam.step(params, grads, config.learning_rate)
            else:
                _sgd_step(params, grads, config.learning_rate)
        history.append(loss_sum / n)
    return params, history


def reference_augment(params: AttentionParams, X: FeatureMatrix, mode: str) -> FeatureMatrix:
    _, A, Ht, _ = _forward_batch(params, X.values)
    block = Ht if mode == "weighted-hidden" else A
    names = list(X.feature_names) + [f"attn_{i}" for i in range(params.k)]
    return FeatureMatrix(values=np.hstack([X.values, block]), feature_names=names)
