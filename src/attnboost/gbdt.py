"""Histogram-based second-order boosted trees with a binary logistic objective.

Features are quantized once into per-feature bins (midpoint thresholds),
stored in the smallest unsigned dtype that holds every bin index. Trees are
grown depth-first. A node's histogram holds, for each candidate feature and
bin, the node's gradient sum, hessian sum and row count in a padded
(features x B) matrix, B being the widest bin count among the round's
features. The root's histogram is built from its rows; at each split only the
child with fewer rows is built and its sibling is parent minus child. Counts
are integers and subtract exactly, so a boundary that leaves a child without
rows is never chosen even when subtraction leaves rounding residue in its
gradient sums. Split search scans every feature of a node in one pass over the
matrix, maximizing the regularized second-order gain. Leaf weights use the
L1/L2 closed form on sums over the leaf's rows and are stored unscaled; the
shrinkage factor is applied at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import sigmoid
from .errors import DataError
from .tabular import FeatureMatrix

HESSIAN_FLOOR = 1e-16

# Relative window inside which two split gains are considered tied, so the
# lexicographic tie-break cannot be overridden by summation-order noise.
GAIN_TIE_REL = 1e-10


@dataclass
class BoostConfig:
    n_estimators: int = 3000
    learning_rate: float = 0.1
    max_depth: int = 10
    min_child_weight: float = 10.0
    gamma: float = 0.8
    subsample: float = 0.8
    colsample_bytree: float = 0.8
    reg_alpha: float = 0.1
    reg_lambda: float = 1.0
    max_bins: int = 256
    seed: int = 42
    base_score: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0 or not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError("subsample fractions must be in (0, 1]")
        if self.gamma < 0 or self.reg_lambda < 0 or self.reg_alpha < 0:
            raise ValueError("gamma, reg_lambda, and reg_alpha must be non-negative")
        if self.max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        if not 0.0 < self.base_score < 1.0:
            raise ValueError("base_score must be a probability in (0, 1)")


@dataclass
class BinnedMatrix:
    bins: np.ndarray  # (n, d) bin indices, smallest unsigned dtype holding max_bins - 1
    thresholds: list[np.ndarray]  # per feature, ascending bin upper edges
    widths: np.ndarray = field(init=False, repr=False)  # per feature bin count

    def __post_init__(self):
        self.widths = np.array([len(t) + 1 for t in self.thresholds], dtype=np.intp)

    def n_bins(self, feature: int) -> int:
        return int(self.widths[feature])


@dataclass
class NodeHistogram:
    """Sums over one node's rows per (candidate feature, bin).

    Matrix row i belongs to features[i] of the list the histogram was built
    for; bins past a feature's own width are padding and stay zero.
    """

    grad: np.ndarray  # (k, B) float64 gradient sums
    hess: np.ndarray  # (k, B) float64 hessian sums
    count: np.ndarray  # (k, B) int64 row counts

    def __sub__(self, other: "NodeHistogram") -> "NodeHistogram":
        return NodeHistogram(self.grad - other.grad, self.hess - other.hess,
                             self.count - other.count)


@dataclass
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1, weight set)."""

    feature: int = -1
    threshold: float = 0.0
    bin_idx: int = -1
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class Ensemble:
    trees: list[TreeNode]
    base_raw: float
    learning_rate: float
    feature_names: list[str]
    eval_history: list[tuple[int, float, float]] = field(default_factory=list, repr=False)


@dataclass
class SplitDecision:
    feature: int
    bin_idx: int
    threshold: float
    gain: float


def logistic_grad_hess(raw: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gradient p - y and floored hessian p(1-p) of the logistic loss."""
    raw = np.asarray(raw, dtype=np.float64)
    y = np.asarray(y)
    if raw.shape[0] != y.shape[0]:
        raise ValueError("raw scores and targets have different lengths")
    p = sigmoid(raw)
    return p - y, np.maximum(p * (1.0 - p), HESSIAN_FLOOR)


def bin_features(X, max_bins: int) -> BinnedMatrix:
    """Quantize each feature into at most max_bins bins with midpoint edges."""
    values = X.values if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=np.float64)
    if values.size and not np.isfinite(values).all():
        raise ValueError("cannot bin non-finite values")
    n, d = values.shape
    bins = np.zeros((n, d), dtype=np.min_scalar_type(max_bins - 1))
    thresholds: list[np.ndarray] = []
    ranks = n * np.arange(1, max_bins) // max_bins
    for j in range(d):
        col = values[:, j]
        distinct = np.unique(col)
        if distinct.size <= max_bins:
            cuts = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            ordered = np.sort(col)
            lo, hi = ordered[ranks - 1], ordered[ranks]
            cuts = np.unique((0.5 * (lo + hi))[hi > lo])
        thresholds.append(cuts)
        bins[:, j] = np.searchsorted(cuts, col, side="left")
    return BinnedMatrix(bins=bins, thresholds=thresholds)


def leaf_weight(G: float, H: float, reg_lambda: float, reg_alpha: float) -> float:
    """Closed-form optimum of the L1/L2-regularized second-order leaf objective."""
    if G > reg_alpha:
        num = G - reg_alpha
    elif G < -reg_alpha:
        num = G + reg_alpha
    else:
        return 0.0
    return -num / (H + reg_lambda)


def build_histogram(
    rows: np.ndarray,
    binned: BinnedMatrix,
    g: np.ndarray,
    h: np.ndarray,
    features: np.ndarray,
) -> NodeHistogram:
    """Gradient, hessian and row-count histogram of `rows` over `features`.

    One bincount per quantity, keyed by feature position * B + bin, where B is
    the widest bin count among `features`.
    """
    features = np.asarray(features)
    k = features.size
    width = int(binned.widths[features].max()) if k else 1
    keys = np.add(binned.bins[np.ix_(rows, features)], np.arange(k) * width,
                  dtype=np.intp).ravel()
    size = k * width
    weights_g = np.repeat(g[rows], k)
    weights_h = np.repeat(h[rows], k)
    return NodeHistogram(
        grad=np.bincount(keys, weights=weights_g, minlength=size).reshape(k, width),
        hess=np.bincount(keys, weights=weights_h, minlength=size).reshape(k, width),
        count=np.bincount(keys, minlength=size).reshape(k, width),
    )


def find_best_split(
    hist: NodeHistogram,
    binned: BinnedMatrix,
    features: np.ndarray,
    config: BoostConfig,
) -> SplitDecision | None:
    """Best (feature, bin boundary) of a node by second-order gain, or None.

    `hist` is the node's histogram over `features` (see build_histogram).
    Gain must exceed zero after subtracting gamma, both children must hold at
    least one row and carry hessian mass >= min_child_weight. Ties keep the
    lowest feature index, then the lowest threshold (features and boundaries
    are taken in that order); gains within GAIN_TIE_REL of each other count as
    tied.
    """
    features = np.asarray(features)
    widths = binned.widths[features]
    if features.size == 0 or widths.max() < 2 or hist.count[0].sum() < 2:
        return None
    NL = np.cumsum(hist.count, axis=1)
    GL = np.cumsum(hist.grad, axis=1)
    HL = np.cumsum(hist.hess, axis=1)
    N, G, H = NL[:, -1:], GL[:, -1:].copy(), HL[:, -1:].copy()
    GR, HR = G - GL, H - HL
    lam, mcw = config.reg_lambda, config.min_child_weight
    boundary = np.arange(GL.shape[1]) < (widths - 1)[:, None]  # padding has no boundary
    ok = boundary & (NL > 0) & (NL < N) & (HL >= mcw) & (HR >= mcw)

    # 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma, computed in
    # place: a fresh (k, B) temporary costs more to allocate than to fill
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        HL += lam
        HR += lam
        gains = GL * GL
        gains /= HL
        GR *= GR
        GR /= HR
        gains += GR
        gains -= G * G / (H + lam)
    gains *= 0.5
    gains -= config.gamma
    np.putmask(gains, ~ok, -np.inf)

    # per feature: the lowest boundary whose gain is tied with the feature's top
    top = gains.max(axis=1)
    window = GAIN_TIE_REL * np.maximum(1.0, np.abs(top))
    first = np.argmax((gains >= (top - window)[:, None]) & (gains > 0.0), axis=1)
    first_gain = gains[np.arange(features.size), first]

    best: SplitDecision | None = None
    for pos in np.flatnonzero(top > 0.0).tolist():
        gain = float(first_gain[pos])
        if best is None or gain > best.gain + GAIN_TIE_REL * max(1.0, abs(best.gain)):
            f, b = int(features[pos]), int(first[pos])
            best = SplitDecision(feature=f, bin_idx=b,
                                 threshold=float(binned.thresholds[f][b]), gain=gain)
    return best


def _grow_tree(
    rows: np.ndarray,
    binned: BinnedMatrix,
    g: np.ndarray,
    h: np.ndarray,
    features: np.ndarray,
    config: BoostConfig,
) -> TreeNode:
    """Grow one tree depth-first, left subtree before right.

    Besides the node being split, the stack holds the histograms of pending
    right siblings, at most one per level. Nodes at max_depth get none; the
    root's is built when it is searched.
    """
    root = TreeNode()
    stack = [(root, rows, None, 0)]
    while stack:
        node, rows, hist, depth = stack.pop()
        decision = None
        if depth < config.max_depth and rows.size >= 2:
            if hist is None:
                hist = build_histogram(rows, binned, g, h, features)
            decision = find_best_split(hist, binned, features, config)
        if decision is None:
            G, H = float(g[rows].sum()), float(h[rows].sum())
            node.weight = leaf_weight(G, H, config.reg_lambda, config.reg_alpha)
            continue
        mask = binned.bins[rows, decision.feature] <= decision.bin_idx
        left, right = rows[mask], rows[~mask]
        left_hist = right_hist = None
        if depth + 1 < config.max_depth:
            if left.size <= right.size:
                left_hist = build_histogram(left, binned, g, h, features)
                right_hist = hist - left_hist
            else:
                right_hist = build_histogram(right, binned, g, h, features)
                left_hist = hist - right_hist
        node.feature = decision.feature
        node.threshold = decision.threshold
        node.bin_idx = decision.bin_idx
        node.gain = decision.gain
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.right, right, right_hist, depth + 1))
        stack.append((node.left, left, left_hist, depth + 1))
    return root


def _apply_tree_binned(root: TreeNode, bins: np.ndarray) -> np.ndarray:
    out = np.empty(bins.shape[0], dtype=np.float64)

    def descend(node: TreeNode, idx: np.ndarray) -> None:
        if node.is_leaf:
            out[idx] = node.weight
            return
        mask = bins[idx, node.feature] <= node.bin_idx
        descend(node.left, idx[mask])
        descend(node.right, idx[~mask])

    descend(root, np.arange(bins.shape[0]))
    return out


def _apply_tree_values(root: TreeNode, values: np.ndarray) -> np.ndarray:
    out = np.empty(values.shape[0], dtype=np.float64)

    def descend(node: TreeNode, idx: np.ndarray) -> None:
        if node.is_leaf:
            out[idx] = node.weight
            return
        mask = values[idx, node.feature] <= node.threshold
        descend(node.left, idx[mask])
        descend(node.right, idx[~mask])

    descend(root, np.arange(values.shape[0]))
    return out


def _round_sample(config: BoostConfig, t: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted rows and features of round t, drawn from a generator seeded by (seed, t)."""
    rng = np.random.default_rng([config.seed, t])
    rows = np.arange(n)
    if config.subsample < 1.0:
        rows = np.sort(rng.choice(n, size=max(1, int(config.subsample * n)), replace=False))
    feats = np.arange(d)
    if config.colsample_bytree < 1.0:
        feats = np.sort(rng.choice(d, size=max(1, int(config.colsample_bytree * d)),
                                   replace=False))
    return rows, feats


def train_boosting(
    X: FeatureMatrix,
    y: np.ndarray,
    config: BoostConfig,
    eval_set: tuple[FeatureMatrix, np.ndarray] | None = None,
    eval_every: int = 0,
) -> Ensemble:
    """Fit the boosted ensemble; fully deterministic given config.seed.

    Row and feature subsampling for round t draw from a generator seeded by
    (seed, t), so each round's sample is independent of execution history.
    When eval_set and eval_every are given, (round, train AUC, eval AUC) rows
    are recorded in the returned ensemble's eval_history; nothing acts on them.
    """
    y = np.asarray(y)
    n, d = X.values.shape
    if n == 0:
        raise DataError("cannot train on an empty matrix")
    if y.shape[0] != n:
        raise ValueError("feature matrix and target lengths differ")
    if np.unique(y).size < 2:
        raise DataError("boosting requires both classes in the target")
    if eval_every and eval_set is None:
        raise ValueError("eval_every requires eval_set")

    binned = bin_features(X, config.max_bins)
    base_raw = float(np.log(config.base_score / (1.0 - config.base_score)))
    raw = np.full(n, base_raw)
    eval_raw = None
    if eval_set is not None:
        eval_raw = np.full(eval_set[0].n_rows, base_raw)

    trees: list[TreeNode] = []
    history: list[tuple[int, float, float]] = []
    for t in range(config.n_estimators):
        g, h = logistic_grad_hess(raw, y)
        rows, feats = _round_sample(config, t, n, d)
        root = _grow_tree(rows, binned, g, h, feats, config)
        trees.append(root)
        raw += config.learning_rate * _apply_tree_binned(root, binned.bins)
        if eval_raw is not None:
            eval_raw += config.learning_rate * _apply_tree_values(root, eval_set[0].values)
        if eval_every and (t + 1) % eval_every == 0:
            from .metrics import auc

            history.append((t + 1, auc(sigmoid(raw), y), auc(sigmoid(eval_raw), eval_set[1])))

    return Ensemble(
        trees=trees,
        base_raw=base_raw,
        learning_rate=config.learning_rate,
        feature_names=list(X.feature_names),
        eval_history=history,
    )


def predict_raw(model: Ensemble, X: FeatureMatrix) -> np.ndarray:
    """Raw scores base + eta * sum of tree outputs."""
    if X.d != len(model.feature_names):
        raise ValueError(
            f"matrix width {X.d} does not match model width {len(model.feature_names)}"
        )
    raw = np.full(X.n_rows, model.base_raw)
    for root in model.trees:
        raw += model.learning_rate * _apply_tree_values(root, X.values)
    return raw


def predict_proba(model: Ensemble, X: FeatureMatrix) -> np.ndarray:
    """Sigmoid of the raw scores, elementwise."""
    return sigmoid(predict_raw(model, X))
