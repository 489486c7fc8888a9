"""Reference formulations of the gated network, kept as oracles for the tests.

- The per-sample `forward`/`backward`/`bce_loss` are the textbook equations,
  one input vector at a time; finite differences of `bce_loss(forward(...))`
  check the batch gradient that `attention.train` uses.
- `reference_sigmoid`, `reference_train` and `reference_augment` are the plain
  allocating formulation: boolean-mask sigmoid, fresh arrays for every batch
  temporary, per-parameter Adam updates and the loss clamp of 1e-12. The
  in-place training step must match them bit for bit.
- `Network` is the block with its output head (w2, b2), which training needs
  and the served `AttentionParams` does not hold.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields

import numpy as np

from attnboost.attention import AttentionParams, TrainConfig, init_params
from attnboost.tabular import FeatureMatrix

BLOCK_FIELDS = tuple(f.name for f in fields(AttentionParams))
PARAM_FIELDS = (*BLOCK_FIELDS, "w2", "b2")
PROB_CLAMP = 1e-12


@dataclass
class Network:
    """The gated block and the output head that trains it."""

    W1: np.ndarray  # (k, d)
    b1: np.ndarray  # (k,)
    W_attn: np.ndarray  # (k, k)
    b_attn: np.ndarray  # (k,)
    w2: np.ndarray  # (k,)
    b2: float
    k = property(lambda self: self.W1.shape[0])
    d = property(lambda self: self.W1.shape[1])

    @property
    def block(self) -> AttentionParams:
        return AttentionParams(*(getattr(self, name) for name in BLOCK_FIELDS))

    @property
    def head(self) -> tuple[np.ndarray, float]:
        return self.w2, self.b2


def reference_init(d: int, k: int, seed: int) -> Network:
    """`init_params`' block and head weights, with the head's bias at 0."""
    block, w2 = init_params(d, k, seed)
    return Network(block.W1, block.b1, block.W_attn, block.b_attn, w2, 0.0)


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


def forward(params: Network, x: np.ndarray) -> ForwardTrace:
    """Run one input vector through the gated network, keeping intermediates."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d,):
        raise ValueError(f"input has shape {x.shape}, expected ({params.d},)")
    h = np.maximum(params.W1 @ x + params.b1, 0.0)
    alpha = reference_sigmoid(params.W_attn @ h + params.b_attn)
    h_tilde = alpha * h
    y_hat = float(reference_sigmoid(params.w2 @ h_tilde + params.b2))
    return ForwardTrace(x=x, h=h, alpha=alpha, h_tilde=h_tilde, y_hat=y_hat)


def bce_loss(y_hat: float, y: int, prob_clamp: float = PROB_CLAMP) -> float:
    """Binary cross-entropy with the probability clamped away from 0 and 1."""
    if not 0.0 <= y_hat <= 1.0:
        raise ValueError(f"y_hat must be a probability, got {y_hat}")
    p = min(max(y_hat, prob_clamp), 1.0 - prob_clamp)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def backward(params: Network, trace: ForwardTrace, y: int) -> Gradients:
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


def _hidden_batch(params, X: np.ndarray):
    """H, the gate A and the block H * A of a block or a Network."""
    H = np.maximum(X @ params.W1.T + params.b1, 0.0)
    A = reference_sigmoid(H @ params.W_attn.T + params.b_attn)
    return H, A, A * H


def _backward_batch(params: Network, X, y, H, A, Ht, y_hat) -> Gradients:
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

    def __init__(self, params: Network):
        self.t = 0
        self.m = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS[:-1]}
        self.v = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS[:-1]}
        self.m["b2"] = 0.0
        self.v["b2"] = 0.0

    def step(self, params: Network, grads: Gradients, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name in PARAM_FIELDS:
            g = getattr(grads, name)
            self.m[name] = self.BETA1 * self.m[name] + (1.0 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1.0 - self.BETA2) * (g * g)
            update = lr * (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.EPS)
            setattr(params, name, getattr(params, name) - update)


def reference_train(X: FeatureMatrix, y: np.ndarray, config: TrainConfig,
                    params: Network | None = None) -> tuple[Network, list[float]]:
    """The allocating mini-batch loop: same shuffles, same batches, same updates.

    Trains every unit of `params` (a copy), or of `reference_init`'s network
    when not given, and returns the network with its head.
    """
    values = X.values
    y = np.asarray(y)
    n = values.shape[0]
    if params is None:
        params = reference_init(values.shape[1], config.k, config.seed)
    else:
        params = copy.deepcopy(params)
    rng = np.random.default_rng(config.seed)
    adam = _AdamState(params)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            Xb, yb = values[batch], y[batch]
            H, A, Ht = _hidden_batch(params, Xb)
            y_hat = reference_sigmoid(Ht @ params.w2 + params.b2)
            p = np.clip(y_hat, PROB_CLAMP, 1.0 - PROB_CLAMP)
            loss_sum += float(-(yb * np.log(p) + (1 - yb) * np.log(1.0 - p)).sum())
            grads = _backward_batch(params, Xb, yb, H, A, Ht, y_hat)
            adam.step(params, grads, config.learning_rate)
        history.append(loss_sum / n)
    return params, history


def reference_augment(params: AttentionParams, X: FeatureMatrix) -> FeatureMatrix:
    _, _, Ht = _hidden_batch(params, X.values)
    names = list(X.feature_names) + [f"attn_{i}" for i in range(params.k)]
    return FeatureMatrix(values=np.hstack([X.values, Ht]), feature_names=names)
