"""Histogram-based second-order boosted trees with a binary logistic objective.

Features are quantized once into per-feature bins (midpoint thresholds),
stored in the smallest unsigned dtype that holds every bin index. Trees are
grown depth-first. A node's histogram holds, for each candidate feature, the
node's gradient sums, hessian sums and row counts. A column with one bin
(constant on the training rows, such as a dead attention unit) has no
boundary, so it is dropped from each round's sampled features and never
enters a histogram or a split scan; the sample is drawn before the drop, so
the trees are those grown over the full sample.

A histogram has one of two layouts. The dense one is a padded (features x B)
matrix with a column per bin, B being the widest bin count among the round's
features. The compact one, for a node of at most B/2 rows, is a (features x
rows) matrix: a feature's column j is the node's j-th row in bin order, each
bin's sums sit at the column of its last row and the other columns hold
exact zeros, so a small node's scan walks its rows rather than B bins. The
root's histogram is built from its rows. At a split where a child has more
than B/2 rows, the child with fewer rows gets a dense build and its sibling
is parent minus child; a child of at most B/2 rows builds its own compact
histogram. Counts are integers and subtract exactly, so a boundary that
leaves a child without rows is never chosen even when subtraction leaves
rounding residue in its gradient sums. Split search scans every feature of a
node in one pass over the matrix, maximizing the regularized second-order
gain. Both layouts add each bin's rows in the same order, and a column that
closes no bin repeats the gain of the last one that does, so they give
bitwise equal decisions and gains. Leaf weights use the L1/L2 closed form on
sums over the leaf's rows and are stored unscaled; the shrinkage factor is
applied at prediction time.

A tree is a record of parallel node arrays in pre-order (root first, a node's
left subtree before its right), the layout the model file stores. A split
keeps only its raw `threshold`, the cut at its bin boundary b: bins come from
`searchsorted(cuts, value, side="left")`, so bin <= b exactly when
value <= cuts[b], and a trained tree and one read from a file are the same
record. An ensemble stacks its trees into one set of arrays once, with leaves
linking to themselves and each node's two children packed side by side, and
one walk moves every (tree, row) pair down a level per step: it compares raw
values with `threshold` and takes the child with one gather indexed by the
node and the comparison. Training's per-round update and scoring make the
same call. Tree outputs are added to the raw score strictly in tree order, so
scores do not depend on how many rows or trees are walked together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tabular
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
        # each range is written so that NaN fails it (a comparison with NaN is
        # false); a rejection names the field first
        unit, finite = "must be in (0, 1]", "must be finite and non-negative"
        for name, ok, rule in (
            ("n_estimators", self.n_estimators >= 0, "must be non-negative"),
            ("max_depth", self.max_depth >= 0, "must be non-negative"),
            ("learning_rate", 0.0 < self.learning_rate <= 1.0, unit),
            ("min_child_weight", 0.0 <= self.min_child_weight < math.inf, finite),
            ("gamma", 0.0 <= self.gamma < math.inf, finite),
            ("subsample", 0.0 < self.subsample <= 1.0, unit),
            ("colsample_bytree", 0.0 < self.colsample_bytree <= 1.0, unit),
            ("reg_alpha", 0.0 <= self.reg_alpha < math.inf, finite),
            ("reg_lambda", 0.0 <= self.reg_lambda < math.inf, finite),
            ("max_bins", self.max_bins >= 2, "must be >= 2"),
            ("base_score", 0.0 < self.base_score < 1.0, "must be a probability in (0, 1)"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")


@dataclass
class BinnedMatrix:
    bins: np.ndarray  # (n, d) bin indices, smallest unsigned dtype holding max_bins - 1
    thresholds: list[np.ndarray]  # per feature, ascending bin upper edges
    widths: np.ndarray = field(init=False, repr=False)  # per feature bin count

    def __post_init__(self):
        self.widths = np.array([len(t) + 1 for t in self.thresholds], dtype=np.intp)


@dataclass
class NodeHistogram:
    """Sums over one node's rows per (candidate feature, column).

    Matrix row i belongs to features[i] of the list the histogram was built
    for. In the dense layout (`bins` is None) column j is bin j; columns past
    a feature's own width are padding and stay zero. In the compact layout
    column j is the j-th of the node's rows in bin order, `bins[i, j]` is that
    row's bin, and each bin's sums sit at the column of its last row, with
    exact zeros in the others.
    """

    grad: np.ndarray  # (k, B) or (k, rows) float64 gradient sums
    hess: np.ndarray  # (k, B) or (k, rows) float64 hessian sums
    count: np.ndarray  # (k, B) or (k, rows) int64 row counts
    bins: np.ndarray | None = None  # (k, rows) bin of each column; None when dense

    def __sub__(self, other: "NodeHistogram") -> "NodeHistogram":
        if self.bins is not None or other.bins is not None:
            raise ValueError("only dense histograms subtract: a compact column is not a bin")
        return NodeHistogram(self.grad - other.grad, self.hess - other.hess,
                             self.count - other.count)


@dataclass(eq=False)
class Tree:
    """One tree as parallel arrays over its nodes in pre-order.

    Node 0 is the root. An internal node has feature >= 0 and both children
    after it; a leaf has feature, left and right all -1 and carries weight.
    A row goes left at an internal node when its value is <= threshold.
    """

    feature: np.ndarray  # (nodes,) intp
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) intp
    right: np.ndarray  # (nodes,) intp
    weight: np.ndarray  # (nodes,) float64, unscaled leaf weight (0 on internal nodes)
    gain: np.ndarray  # (nodes,) float64, split gain (0 on leaves)


@dataclass(eq=False)
class Forest:
    """Trees stacked into one set of arrays for the vectorized walk.

    Node i of the stack owns two slots, 2i and 2i + 1, and the walk moves
    through slots. `feature`, `threshold` and `weight` hold node i's entry at
    both of its slots. `children[2i + s]` is the slot of the child a row
    takes when `s = value <= threshold` (1 left, 0 right), so one gather
    picks the next node. A leaf's children are its own slot, so a walk that
    takes a fixed number of steps leaves each (tree, row) pair on its leaf. A
    leaf's feature is 0, so its comparison (whose outcome is ignored) reads a
    real column.
    """

    roots: np.ndarray  # (trees,) slot of each tree's root
    depth: np.ndarray  # (trees,) edges on each tree's longest root-to-leaf path
    feature: np.ndarray  # (2 * nodes,)
    threshold: np.ndarray  # (2 * nodes,)
    children: np.ndarray  # (2 * nodes,)
    weight: np.ndarray  # (2 * nodes,)

    @classmethod
    def stack(cls, trees) -> "Forest":
        sizes = np.array([t.feature.size for t in trees], dtype=np.intp)
        roots = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=roots[1:])

        def cat(name: str, dtype) -> np.ndarray:
            return np.concatenate([getattr(t, name) for t in trees] or [np.empty(0, dtype)])

        feature = cat("feature", np.intp)
        leaf = feature < 0
        here = np.arange(feature.size)
        offset = np.repeat(roots, sizes)
        left = np.where(leaf, here, cat("left", np.intp) + offset)
        right = np.where(leaf, here, cat("right", np.intp) + offset)

        node_depth = np.zeros(feature.size, dtype=np.intp)
        level, steps = roots, 0
        while True:
            level = level[~leaf[level]]
            if level.size == 0:
                break
            steps += 1
            if steps > feature.size:
                raise ValueError("tree child links form a cycle")
            level = np.concatenate([left[level], right[level]])
            node_depth[level] = steps
        depth = np.maximum.reduceat(node_depth, roots) if trees else roots
        return cls(roots=2 * roots, depth=depth,
                   feature=np.repeat(np.where(leaf, 0, feature), 2),
                   threshold=np.repeat(cat("threshold", np.float64), 2),
                   children=2 * np.stack([right, left], axis=1).reshape(-1),
                   weight=np.repeat(cat("weight", np.float64), 2))


@dataclass
class Ensemble:
    """Boosted trees; `trees` is fixed at construction and stacked into `forest`."""

    trees: tuple[Tree, ...]
    base_raw: float
    learning_rate: float
    feature_names: list[str]
    forest: Forest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.trees = tuple(self.trees)
        self.forest = Forest.stack(self.trees)


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
        ordered = np.sort(col)
        new_value = ordered[1:] != ordered[:-1]
        if np.count_nonzero(new_value) < max_bins:  # at most max_bins distinct values
            distinct = np.concatenate((ordered[:1], ordered[1:][new_value]))
            cuts = (distinct[:-1] + distinct[1:]) / 2.0
        else:
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
    compact: bool = False,
) -> NodeHistogram:
    """Gradient, hessian and row-count histogram of `rows` over `features`.

    One bincount per quantity, keyed by feature position * B + bin, where B is
    the widest bin count among `features`. A compact histogram sorts each
    feature's keys and renames every key to the column of its last occurrence
    in that order. Either way bincount adds a bin's rows in the order of
    `rows`, so the two layouts hold bitwise equal sums. Features are taken in
    chunks of at most tabular._BLOCK_CELLS // rows (at least one), which
    bounds the (rows x features) keys and weights; a chunk's bins are its own
    features', so the sums do not depend on the chunking.
    """
    features = np.asarray(features)
    k = features.size
    width = int(binned.widths[features].max()) if k else 1
    columns = rows.size if compact else width
    # rows first, then columns, widened in place: several times faster than
    # bins[np.ix_(rows, features)] and than a casting np.add
    node_bins, g_rows, h_rows = binned.bins[rows], g[rows], h[rows]
    per_chunk = max(1, tabular._BLOCK_CELLS // max(1, rows.size))
    grads, hesses, counts, bins = [], [], [], []
    for lo in range(0, max(k, 1), per_chunk):  # one chunk also when there is no feature
        chunk = features[lo : lo + per_chunk]
        offsets = np.arange(0, chunk.size * width, width)
        keys = node_bins[:, chunk].astype(np.intp)  # (rows, chunk)
        keys += offsets
        if compact:
            ordered = np.sort(keys.T, axis=1)  # (chunk, rows): each feature's keys by bin
            flat = ordered.ravel()
            last = np.ones(flat.size, dtype=bool)  # the last column of each bin
            np.not_equal(flat[1:], flat[:-1], out=last[:-1])
            last = np.flatnonzero(last)
            column = np.empty(chunk.size * width, dtype=np.intp)  # key -> its bin's last column
            column[flat[last]] = last
            keys = column[keys]
            bins.append(ordered - offsets[:, None])
        keys = keys.ravel()
        shape = (chunk.size, columns)
        size = shape[0] * shape[1]
        grads.append(np.bincount(keys, weights=np.repeat(g_rows, chunk.size),
                                 minlength=size).reshape(shape))
        hesses.append(np.bincount(keys, weights=np.repeat(h_rows, chunk.size),
                                  minlength=size).reshape(shape))
        counts.append(np.bincount(keys, minlength=size).reshape(shape))

    def joined(parts):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return NodeHistogram(grad=joined(grads), hess=joined(hesses), count=joined(counts),
                         bins=joined(bins) if compact else None)


def find_best_split(
    hist: NodeHistogram,
    binned: BinnedMatrix,
    features: np.ndarray,
    config: BoostConfig,
) -> SplitDecision | None:
    """Best (feature, bin boundary) of a node by second-order gain, or None.

    `hist` is the node's histogram over `features` (see build_histogram), in
    either layout. Gain must exceed zero after subtracting gamma, both
    children must hold at least one row and carry hessian mass >=
    min_child_weight. Ties keep the lowest feature index, then the lowest
    threshold (features and boundaries are taken in that order); gains within
    GAIN_TIE_REL of each other count as tied. A column that closes no bin
    repeats the partition, and so the gain, of the last column before it that
    does, so the lowest tied column always closes a bin.
    """
    features = np.asarray(features)
    if features.size == 0 or binned.widths[features].max() < 2 or hist.count[0].sum() < 2:
        return None
    NL = np.cumsum(hist.count, axis=1)
    GL = np.cumsum(hist.grad, axis=1)
    HL = np.cumsum(hist.hess, axis=1)
    N, G, H = NL[:, -1:], GL[:, -1:].copy(), HL[:, -1:].copy()
    GR, HR = G - GL, H - HL
    lam, mcw = config.reg_lambda, config.min_child_weight
    # counts are exact, so NL == N from a feature's last bin through its padding
    ok = (NL > 0) & (NL < N) & (HL >= mcw) & (HR >= mcw)

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
    first_gain = gains[np.arange(features.size), first].tolist()

    # features in order; a later one wins only by more than the tie window. A
    # feature without a positive gain has first_gain <= 0, so it never wins.
    best, bar = -1, 0.0
    for pos, gain in enumerate(first_gain):
        if gain > bar:
            best, bar = pos, gain + GAIN_TIE_REL * max(1.0, gain)
    if best < 0:
        return None
    f, b = int(features[best]), int(first[best])
    if hist.bins is not None:
        b = int(hist.bins[best, b])
    return SplitDecision(feature=f, bin_idx=b, threshold=float(binned.thresholds[f][b]),
                         gain=first_gain[best])


def _grow_tree(
    rows: np.ndarray,
    binned: BinnedMatrix,
    g: np.ndarray,
    h: np.ndarray,
    features: np.ndarray,
    config: BoostConfig,
) -> Tree:
    """Grow one tree depth-first, left subtree before right.

    A node is numbered when it is popped, which is pre-order, and its
    parent's child link is set then. Besides the node being split, the stack
    holds the histograms of pending right siblings, at most one per level.
    Nodes at max_depth get none. A node of at most B/2 rows (B the dense
    histogram's width) is small: its compact histogram, which has fewer
    columns, is built from its rows when it is searched. A larger node is
    searched from a dense histogram: the root's is built, and at a split the
    smaller child's is built and the larger one's is parent minus it.
    """
    small = int(binned.widths[features].max()) // 2 if features.size else 0
    nodes: list[list] = []  # [feature, threshold, left, right, weight, gain]
    LEFT, RIGHT = 2, 3  # positions of the child links in a node's row
    stack = [(rows, None, 0, -1, -1)]
    while stack:
        rows, hist, depth, parent, link = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][link] = node
        decision = None
        if depth < config.max_depth and rows.size >= 2:
            if hist is None:
                hist = build_histogram(rows, binned, g, h, features,
                                       compact=rows.size <= small)
            decision = find_best_split(hist, binned, features, config)
        if decision is None:
            G, H = float(g[rows].sum()), float(h[rows].sum())
            weight = leaf_weight(G, H, config.reg_lambda, config.reg_alpha)
            nodes.append([-1, 0.0, -1, -1, weight, 0.0])
            continue
        nodes.append([decision.feature, decision.threshold, -1, -1, 0.0, decision.gain])
        mask = binned.bins[rows, decision.feature] <= decision.bin_idx
        left, right = rows[mask], rows[~mask]
        left_hist = right_hist = None
        if depth + 1 < config.max_depth and max(left.size, right.size) > small:
            if left.size <= right.size:
                left_hist = build_histogram(left, binned, g, h, features)
                right_hist = hist - left_hist
            else:
                right_hist = build_histogram(right, binned, g, h, features)
                left_hist = hist - right_hist
            # a small child is searched from its own compact histogram instead
            if left.size <= small:
                left_hist = None
            if right.size <= small:
                right_hist = None
        stack.append((right, right_hist, depth + 1, node, RIGHT))
        stack.append((left, left_hist, depth + 1, node, LEFT))
    feature, threshold, left_of, right_of, weight, gain = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left_of, dtype=np.intp),
        right=np.array(right_of, dtype=np.intp),
        weight=np.array(weight, dtype=np.float64),
        gain=np.array(gain, dtype=np.float64),
    )


def _walk(forest: Forest, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Slot of the leaf reached by each (tree, row) pair of trees lo..hi-1, shape (trees, rows).

    Row r goes left at a node when values[r, feature] <= threshold.
    """
    n, d = values.shape
    slot = np.repeat(forest.roots[lo:hi, None], n, axis=1)
    steps = int(forest.depth[lo:hi].max()) if hi > lo else 0
    if steps:
        flat = values.reshape(-1)  # a copy in row order if values is not C-contiguous
        row_start = np.arange(0, n * d, d)
        for _ in range(steps):
            at = forest.feature[slot]
            if n > 1:  # a lone row starts at 0, and on tiny arrays the add costs a full gather
                at += row_start
            goes_left = flat[at] <= forest.threshold[slot]
            # an int + bool add takes numpy's slower mixed-type path; int + int does not
            slot = forest.children[slot + goes_left.astype(np.intp)]
    return slot


def _add_trees(
    forest: Forest,
    values: np.ndarray,
    raw,
    learning_rate: float,
) -> np.ndarray:
    """raw + lr*w_1 + lr*w_2 + ..., each tree's output added in tree order.

    `raw` is one score per row, or one score for every row. Trees are walked
    in blocks of at most tabular._BLOCK_CELLS (tree, row) pairs, but at least
    one tree; the running sum carries from block to block. np.add.accumulate
    adds strictly in sequence, so the result does not depend on the block
    boundaries.
    """
    n_trees = forest.roots.size
    if n_trees == 0:
        return np.full(values.shape[0], raw)
    per_block = max(1, tabular._BLOCK_CELLS // max(1, values.shape[0]))
    for lo in range(0, n_trees, per_block):
        hi = min(lo + per_block, n_trees)
        terms = learning_rate * forest.weight[_walk(forest, values, lo, hi)]
        terms[0] += raw  # lr*w_lo + raw is raw + lr*w_lo exactly: the sequence's first sum
        raw = np.add.accumulate(terms, axis=0)[-1]
    return raw


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
) -> Ensemble:
    """Fit the boosted ensemble; fully deterministic given config.seed.

    Row and feature subsampling for round t draw from a generator seeded by
    (seed, t), so each round's sample is independent of execution history.
    """
    y = np.asarray(y)
    n, d = X.values.shape
    if n == 0:
        raise DataError("cannot train on an empty matrix")
    if y.shape[0] != n:
        raise ValueError("feature matrix and target lengths differ")
    if np.unique(y).size < 2:
        raise DataError("boosting requires both classes in the target")

    binned = bin_features(X, config.max_bins)
    base_raw = float(np.log(config.base_score / (1.0 - config.base_score)))
    raw = np.full(n, base_raw)

    trees: list[Tree] = []
    for t in range(config.n_estimators):
        g, h = logistic_grad_hess(raw, y)
        rows, feats = _round_sample(config, t, n, d)
        feats = feats[binned.widths[feats] >= 2]  # a one-bin column has no boundary
        tree = _grow_tree(rows, binned, g, h, feats, config)
        trees.append(tree)
        raw = _add_trees(Forest.stack([tree]), X.values, raw, config.learning_rate)

    return Ensemble(
        trees=trees,
        base_raw=base_raw,
        learning_rate=config.learning_rate,
        feature_names=list(X.feature_names),
    )


def predict_raw(model: Ensemble, X: FeatureMatrix) -> np.ndarray:
    """Raw scores base + eta * sum of tree outputs."""
    if X.d != len(model.feature_names):
        raise ValueError(
            f"matrix width {X.d} does not match model width {len(model.feature_names)}"
        )
    return _add_trees(model.forest, X.values, model.base_raw, model.learning_rate)


def predict_proba(model: Ensemble, X: FeatureMatrix) -> np.ndarray:
    """Sigmoid of the raw scores, elementwise."""
    return sigmoid(predict_raw(model, X))
