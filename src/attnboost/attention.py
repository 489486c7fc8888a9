"""Gated two-layer network producing attention-weighted hidden features.

Forward pass: h = ReLU(W1 x + b1), alpha = sigmoid(W_attn h + b_attn),
h_tilde = alpha * h, y_hat = sigmoid(w2 . h_tilde + b2), trained with
binary cross-entropy. Gradients are exact; the ReLU subgradient at 0 is 0.

Training keeps the six parameters as views into one float64 vector and writes
each mini-batch's mean gradient into a second vector with the same layout, so
the optimizer updates everything in one pass over one vector. Every buffer a
step needs is allocated once per fit and the forward and backward passes work
in place. Each elementwise operation keeps the operands and order of the
plain allocating formulation, so results are bitwise equal to it on the
network that is trained.

That network holds only the live units: those whose initial pre-activation is
positive on at least one training row. A unit that is dead on every row has
h = 0 in every batch, so every gradient entry of its W1 row, b1, w2, b_attn
and W_attn row and column is a sum of zeros, Adam and SGD step it by exactly
0, it stays dead, and each term it adds to a live unit's sum is an exact
zero. Training without it is therefore exact in arithmetic; dead units are
returned bitwise at initialisation, and live parameters may differ from a fit
over all units in the last bits only, because the matrix products sum the
remaining terms in another order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tabular
from .errors import DataError
from .tabular import FeatureMatrix

AUGMENT_MODES = ("weighted-hidden", "attention-vector")
OPTIMIZERS = ("plain-sgd", "adaptive-moments")


def _sigmoid_into(x, out, den, mask):
    """Write sigmoid(x) into `out` (which may be `x`), using `den` and `mask` as scratch.

    With e = exp(-|x|) the result is 1 / (1 + e) for x >= 0 and e / (1 + e)
    below 0: the two branches of the usual stable form, on the same operands,
    without gathering either half.
    """
    np.greater_equal(x, 0.0, out=mask)
    np.copysign(x, -1.0, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=den)
    np.putmask(out, mask, 1.0)
    np.divide(out, den, out=out)
    return out


def sigmoid(x):
    """Numerically stable logistic function; a float for 0-d input."""
    x = np.asarray(x, dtype=np.float64)
    out = _sigmoid_into(x, np.empty_like(x), np.empty_like(x), np.empty(x.shape, dtype=bool))
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=16)
def attention_names(k: int) -> tuple[str, ...]:
    """Column names of a k-wide attention block."""
    return tuple(f"attn_{i}" for i in range(k))


@dataclass
class AttentionParams:
    W1: np.ndarray  # (k, d)
    b1: np.ndarray  # (k,)
    W_attn: np.ndarray  # (k, k)
    b_attn: np.ndarray  # (k,)
    w2: np.ndarray  # (k,)
    b2: float
    d: int
    k: int

    def copy(self) -> "AttentionParams":
        return AttentionParams(
            W1=self.W1.copy(),
            b1=self.b1.copy(),
            W_attn=self.W_attn.copy(),
            b_attn=self.b_attn.copy(),
            w2=self.w2.copy(),
            b2=self.b2,
            d=self.d,
            k=self.k,
        )


@dataclass
class TrainConfig:
    k: int = 128
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adaptive-moments"
    prob_clamp: float = 1e-12

    def __post_init__(self):
        # each range is written so that NaN fails it; a rejection names the field first
        for name, ok, rule in (
            ("k", self.k >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 0, "must be non-negative"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("learning_rate", 0.0 < self.learning_rate < math.inf, "must be finite and positive"),
            # below about 5.6e-17, 1 - prob_clamp rounds to 1 and the loss to log(0)
            ("prob_clamp", 0.0 < self.prob_clamp < 0.5 and 1.0 - self.prob_clamp < 1.0,
             "must be in (0, 0.5) with 1 - prob_clamp below 1"),
            ("optimizer", self.optimizer in OPTIMIZERS, f"must be one of {OPTIMIZERS}"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")


def init_params(d: int, k: int, seed: int) -> AttentionParams:
    """Fan-balanced uniform weights, zero biases, from a seeded generator."""
    if d < 1 or k < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, k={k}")
    rng = np.random.default_rng(seed)

    def uniform(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    return AttentionParams(
        W1=uniform(d, k, (k, d)),
        b1=np.zeros(k),
        W_attn=uniform(k, k, (k, k)),
        b_attn=np.zeros(k),
        w2=uniform(k, 1, (k,)),
        b2=0.0,
        d=d,
        k=k,
    )


def _views(flat: np.ndarray, d: int, k: int) -> tuple[np.ndarray, ...]:
    """W1, b1, W_attn, b_attn, w2 and b2 (shape (1,)) as views into a flat vector."""
    views, start = [], 0
    for shape in ((k, d), (k,), (k, k), (k,), (k,), (1,)):
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return tuple(views)


class _Trainer:
    """One fit's flat parameter and gradient vectors, optimizer state and batch buffers.

    Batch buffers hold `rows` rows; a shorter batch uses their leading rows.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: AttentionParams, rows: int, config: TrainConfig):
        d, k = params.d, params.k
        self.d, self.k = d, k
        self.learning_rate = config.learning_rate
        self.prob_clamp = config.prob_clamp
        self.flat = np.concatenate([params.W1.ravel(), params.b1, params.W_attn.ravel(),
                                    params.b_attn, params.w2, [params.b2]])
        self.grad = np.empty_like(self.flat)
        self.param_views = _views(self.flat, d, k)
        self.grad_views = _views(self.grad, d, k)
        self.update_buf = np.empty_like(self.flat)
        self.t = 0
        if config.optimizer == "adaptive-moments":
            self.m = np.zeros_like(self.flat)
            self.v = np.zeros_like(self.flat)
            self.denom = np.empty_like(self.flat)
        else:
            self.m = None
        self.X = np.empty((rows, d))
        self.H, self.Z, self.A, self.Ht, self.D, self.dZ = (np.empty((rows, k)) for _ in range(6))
        self.mask = np.empty((rows, k), dtype=bool)
        self.y, self.y_hat, self.dz_out, self.p, self.q = (np.empty(rows) for _ in range(5))
        self.mask_out = np.empty(rows, dtype=bool)

    def params(self) -> AttentionParams:
        W1, b1, W_attn, b_attn, w2, b2 = self.param_views
        return AttentionParams(W1=W1, b1=b1, W_attn=W_attn, b_attn=b_attn, w2=w2,
                               b2=float(b2[0]), d=self.d, k=self.k)

    def gradient(self, values: np.ndarray, y: np.ndarray, batch: np.ndarray) -> float:
        """Write the mean-loss gradient of rows `batch` into `grad`; return their summed loss.

        `y` holds float64 labels; `batch` holds valid row indices.
        """
        W1, b1, W_attn, b_attn, w2, b2 = self.param_views
        gW1, gb1, gW_attn, gb_attn, gw2, gb2 = self.grad_views
        m = batch.shape[0]
        # mode="clip" lets take write straight into `out`; the indices are in range
        X = np.take(values, batch, axis=0, out=self.X[:m], mode="clip")
        yb = np.take(y, batch, out=self.y[:m], mode="clip")
        H, Z, A, Ht, D, dZ = self.H[:m], self.Z[:m], self.A[:m], self.Ht[:m], self.D[:m], self.dZ[:m]
        mask = self.mask[:m]
        y_hat, dz_out, p, q = self.y_hat[:m], self.dz_out[:m], self.p[:m], self.q[:m]

        np.matmul(X, W1.T, out=H)
        H += b1
        np.maximum(H, 0.0, out=H)
        np.matmul(H, W_attn.T, out=Z)
        Z += b_attn
        _sigmoid_into(Z, A, Ht, mask)  # Ht and q serve as scratch until they are written
        np.multiply(A, H, out=Ht)
        np.matmul(Ht, w2, out=y_hat)
        y_hat += b2
        _sigmoid_into(y_hat, y_hat, q, self.mask_out[:m])

        np.clip(y_hat, self.prob_clamp, 1.0 - self.prob_clamp, out=p)
        np.subtract(1.0, p, out=q)
        np.log(p, out=p)
        p *= yb
        np.log(q, out=q)
        np.subtract(1.0, yb, out=dz_out)
        q *= dz_out
        p += q
        loss = -float(p.sum())

        np.subtract(y_hat, yb, out=dz_out)
        dz_out /= m
        gb2[0] = dz_out.sum()
        np.matmul(Ht.T, dz_out, out=gw2)
        np.multiply(dz_out[:, None], w2, out=D)
        np.multiply(D, H, out=dZ)
        dZ *= A
        np.subtract(1.0, A, out=Z)  # Z is free once A holds the gate
        dZ *= Z
        np.matmul(dZ.T, H, out=gW_attn)
        np.sum(dZ, axis=0, out=gb_attn)
        D *= A
        np.matmul(dZ, W_attn, out=Z)
        D += Z
        np.greater(H, 0.0, out=mask)
        D *= mask
        np.matmul(D.T, X, out=gW1)
        np.sum(D, axis=0, out=gb1)
        return loss

    def update(self) -> None:
        """One optimizer step over the whole flat parameter vector."""
        g, step, lr = self.grad, self.update_buf, self.learning_rate
        if self.m is None:
            np.multiply(g, lr, out=step)
        else:
            self.t += 1
            bc1 = 1.0 - self.BETA1 ** self.t
            bc2 = 1.0 - self.BETA2 ** self.t
            m, v, denom = self.m, self.v, self.denom
            m *= self.BETA1
            np.multiply(g, 1.0 - self.BETA1, out=step)
            m += step
            v *= self.BETA2
            np.multiply(g, g, out=step)
            step *= 1.0 - self.BETA2
            v += step
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            np.divide(m, bc1, out=step)
            step *= lr
            step /= denom
        self.flat -= step


def train(
    X: FeatureMatrix, y: np.ndarray, config: TrainConfig
) -> tuple[AttentionParams, list[float]]:
    """Mini-batch training with seeded per-epoch shuffling.

    Only the live units are trained (see the module docstring); the returned
    parameters keep all `config.k` units, the dead ones at initialisation.
    Returns the trained parameters and the mean per-sample loss of each epoch.
    """
    values = X.values
    y = np.asarray(y)
    n = values.shape[0]
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    if y.shape[0] != n:
        raise ValueError("feature matrix and target lengths differ")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")

    rng = np.random.default_rng(config.seed)
    params = init_params(values.shape[1], config.k, config.seed)
    live = _live_units(params, values, config.batch_size)
    trainer = _Trainer(_sub_network(params, live), min(config.batch_size, n), config)
    labels = y.astype(np.float64)
    history: list[float] = []

    for _ in range(config.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            loss_sum += trainer.gradient(values, labels, perm[start : start + config.batch_size])
            trainer.update()
        history.append(loss_sum / n)

    trained = trainer.params()
    params.W1[live] = trained.W1
    params.b1[live] = trained.b1
    params.W_attn[np.ix_(live, live)] = trained.W_attn
    params.b_attn[live] = trained.b_attn
    params.w2[live] = trained.w2
    params.b2 = trained.b2
    return params, history


def _live_units(params: AttentionParams, values: np.ndarray, rows: int) -> np.ndarray:
    """Indices of the hidden units whose pre-activation is positive on some row.

    Takes `rows` rows at a time, so the check holds no more of H than a
    training batch does.
    """
    live = np.zeros(params.k, dtype=bool)
    for start in range(0, values.shape[0], rows):
        H = values[start : start + rows] @ params.W1.T
        H += params.b1
        live |= (H > 0.0).any(axis=0)
    return np.flatnonzero(live)


def _sub_network(params: AttentionParams, units: np.ndarray) -> AttentionParams:
    """The network restricted to the given hidden units (copies, in their order)."""
    return AttentionParams(W1=params.W1[units], b1=params.b1[units],
                           W_attn=params.W_attn[np.ix_(units, units)],
                           b_attn=params.b_attn[units], w2=params.w2[units],
                           b2=params.b2, d=params.d, k=units.size)


def augment(params: AttentionParams, X: FeatureMatrix, mode: str = "weighted-hidden") -> FeatureMatrix:
    """Append per-row network features (h_tilde or alpha) to the input columns.

    The hidden layer is computed in one product straight into the output's
    attention block. The gate follows in row blocks of at most
    tabular._BLOCK_CELLS cells, each block's gate and sigmoid scratch reused
    from one allocation, and each block of the output then becomes h * alpha
    or alpha in place. So besides the output augment holds about three
    blocks, whatever the row count. Block sizes differ by at most one row, so
    no block is a short tail: OpenBLAS takes other kernels for a product of
    one row (and, at k = 128, of up to 9 rows), whose sums can differ in the
    last bit from the same rows of a larger product. Blocks of many rows take
    the whole-matrix kernels, so the output is bitwise that of one
    whole-matrix pass (the tests check it against the allocating form).
    """
    if mode not in AUGMENT_MODES:
        raise ValueError(f"augment mode must be one of {AUGMENT_MODES}, got {mode!r}")
    if X.d != params.d:
        raise ValueError(f"matrix width {X.d} does not match network input width {params.d}")
    values = X.values
    n, d, k = values.shape[0], params.d, params.k
    out = np.empty((n, d + k))
    out[:, :d] = values
    H = out[:, d:]  # the hidden layer, until each block turns into the features
    np.matmul(values, params.W1.T, out=H)
    H += params.b1
    np.maximum(H, 0.0, out=H)
    blocks = min(n, -(-n * k // tabular._BLOCK_CELLS))  # the fewest that hold n * k cells
    rows = -(-n // blocks) if n else 1
    longer = n - blocks * (rows - 1)  # blocks of `rows` rows; the rest have one fewer
    A, den, mask = np.empty((rows, k)), np.empty((rows, k)), np.empty((rows, k), dtype=bool)
    lo = 0
    for block in range(blocks):
        if block == longer:
            A, den, mask = A[:-1], den[:-1], mask[:-1]
        h = H[lo : lo + len(A)]
        np.matmul(h, params.W_attn.T, out=A)
        A += params.b_attn
        _sigmoid_into(A, A, den, mask)
        if mode == "weighted-hidden":
            h *= A
        else:
            h[...] = A
        lo += len(A)
    return FeatureMatrix(values=out, feature_names=[*X.feature_names, *attention_names(k)])
