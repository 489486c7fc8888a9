"""Tests for binning, split search, leaf weights, and boosting training."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from attnboost import gbdt, tabular
from attnboost.attention import sigmoid
from attnboost.errors import DataError
from attnboost.gbdt import (
    BinnedMatrix,
    BoostConfig,
    Ensemble,
    NodeHistogram,
    Tree,
    bin_features,
    build_histogram,
    find_best_split,
    leaf_weight,
    logistic_grad_hess,
    predict_proba,
    predict_raw,
    train_boosting,
    _add_trees,
    _round_sample,
)
from attnboost.metrics import auc
from attnboost.tabular import FeatureMatrix


def _fm(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or [f"f{i}" for i in range(values.shape[1])]
    return FeatureMatrix(values=values, feature_names=names)


GAIN_TIE_REL = 1e-10  # same tie window as the implementation under test


def make_tree(feature, left, right, threshold=None, weight=None, gain=None):
    """A Tree from per-node lists; unspecified float arrays are zero."""
    n = len(feature)

    def floats(v):
        return np.zeros(n) if v is None else np.array(v, dtype=np.float64)

    return Tree(feature=np.array(feature, dtype=np.intp),
                threshold=floats(threshold), left=np.array(left, dtype=np.intp),
                right=np.array(right, dtype=np.intp), weight=floats(weight), gain=floats(gain))


def reference_tree_output(tree: Tree, values):
    """Leaf weight each row reaches, by recursive descent over index sets from the root.

    A row goes left at node i when values[row, feature[i]] <= threshold[i].
    """
    out = np.empty(values.shape[0])

    def descend(i, idx):
        f = tree.feature[i]
        if f < 0:
            out[idx] = tree.weight[i]
            return
        mask = values[idx, f] <= tree.threshold[i]
        descend(tree.left[i], idx[mask])
        descend(tree.right[i], idx[~mask])

    descend(0, np.arange(values.shape[0]))
    return out


def reference_raw(model: Ensemble, values):
    """base + lr * (output of tree 1) + lr * (output of tree 2) + ..., one tree at a time."""
    raw = np.full(values.shape[0], model.base_raw)
    for tree in model.trees:
        raw += model.learning_rate * reference_tree_output(tree, values)
    return raw


def tree_nodes(tree: Tree):
    """(feature, threshold, weight, gain) of every node, in stored (pre-)order."""
    return list(zip(tree.feature.tolist(), tree.threshold.tolist(), tree.weight.tolist(),
                    tree.gain.tolist()))


def brute_force_split(rows, binned: BinnedMatrix, g, h, features, config: BoostConfig):
    """Exhaustive enumeration of every (feature, bin boundary) partition.

    Candidates are scanned feature-ascending then threshold-ascending; a later
    candidate replaces the incumbent only if its gain is larger by more than
    the relative tie window, which pins down the lexicographic tie-break under
    float summation noise.
    """
    lam = config.reg_lambda
    best = None
    for f in sorted(int(f) for f in features):
        cuts = binned.thresholds[f]
        for b in range(len(cuts)):
            left = rows[binned.bins[rows, f] <= b]
            right = rows[binned.bins[rows, f] > b]
            GL, HL = g[left].sum(), h[left].sum()
            GR, HR = g[right].sum(), h[right].sum()
            if HL < config.min_child_weight or HR < config.min_child_weight:
                continue
            gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                          - (GL + GR) ** 2 / (HL + HR + lam)) - config.gamma
            if gain <= 0.0:
                continue
            if best is None or gain > best[2] + GAIN_TIE_REL * max(1.0, abs(best[2])):
                best = (f, float(cuts[b]), gain)
    return best


def _loop_cuts(col, max_bins):
    """Cut points of one column with a Python loop over the quantile boundaries."""
    distinct = np.unique(col)
    if distinct.size <= max_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    n = col.size
    ordered = np.sort(col)
    candidates = []
    for i in range(1, max_bins):
        r = (n * i) // max_bins
        lo, hi = ordered[r - 1], ordered[r]
        if hi > lo:
            candidates.append(0.5 * (lo + hi))
    return np.unique(candidates)


def reference_bin_features(values, max_bins):
    """Binning that finds each column's distinct values with np.unique and, when
    there are more than max_bins of them, sorts the column a second time."""
    n, d = values.shape
    bins = np.zeros((n, d), dtype=np.min_scalar_type(max_bins - 1))
    thresholds = []
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
    return bins, thresholds


def minimize_leaf_objective(G, H, reg_lambda, reg_alpha):
    """Bisect the subgradient of the convex leaf objective
    G*w + (H+lam)*w^2/2 + alpha*|w| to find its minimizer."""

    def right_derivative(w):
        return G + (H + reg_lambda) * w + (reg_alpha if w >= 0 else -reg_alpha)

    lo, hi = -1e7, 1e7  # wide enough for any |G|/(H+lam) drawn below
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if right_derivative(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestBoostConfig:
    @pytest.mark.parametrize("kwargs", [{"n_estimators": -5}, {"max_depth": -1},
                                        {"min_child_weight": -1.0}])
    def test_negative_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            BoostConfig(**kwargs)

    def test_zero_rounds_and_zero_depth_allowed(self):
        X = _fm([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        assert train_boosting(X, y, BoostConfig(n_estimators=0)).trees == ()
        model = train_boosting(X, y, BoostConfig(n_estimators=3, max_depth=0))
        assert [t.feature.tolist() for t in model.trees] == [[-1]] * 3


class TestLogisticGradHess:
    def test_raw_zero_positive_label(self):
        g, h = logistic_grad_hess(np.array([0.0]), np.array([1]))
        assert g[0] == -0.5
        assert h[0] == 0.25

    def test_saturated(self):
        g, h = logistic_grad_hess(np.array([20.0]), np.array([1]))
        assert abs(g[0]) < 1e-8
        assert h[0] >= 1e-16

    def test_raw_zero_negative_label(self):
        g, h = logistic_grad_hess(np.array([0.0]), np.array([0]))
        assert g[0] == 0.5
        assert h[0] == 0.25


class TestBinFeatures:
    def test_distinct_value_thresholds(self):
        binned = bin_features(_fm([[1.0], [2.0], [5.0]]), max_bins=256)
        np.testing.assert_allclose(binned.thresholds[0], [1.5, 3.5])
        assert binned.bins[:, 0].tolist() == [0, 1, 2]

    def test_constant_feature_single_bin(self):
        binned = bin_features(_fm([[7.0], [7.0], [7.0]]), max_bins=256)
        assert binned.thresholds[0].size == 0
        assert binned.widths.tolist() == [1]

    def test_quantile_bins_balanced(self):
        rng = np.random.default_rng(0)
        binned = bin_features(_fm(rng.uniform(0, 1, (1000, 1))), max_bins=10)
        counts = np.bincount(binned.bins[:, 0], minlength=10)
        assert counts.size == 10
        assert (np.abs(counts - 100) <= 1).all()

    def test_value_to_bin_monotone(self):
        rng = np.random.default_rng(1)
        col = rng.normal(0, 3, 400)
        binned = bin_features(_fm(col.reshape(-1, 1)), max_bins=16)
        order = np.argsort(col)
        assert (np.diff(binned.bins[order, 0].astype(np.int64)) >= 0).all()

    @pytest.mark.parametrize("max_bins", [2, 16, 256])
    def test_cuts_equal_the_per_boundary_loop(self, max_bins):
        rng = np.random.default_rng(max_bins)
        n = 1001
        columns = [
            rng.normal(0, 1, n),  # continuous
            np.full(n, 3.25),  # constant
            rng.integers(0, 7, n).astype(float),  # few distinct values, heavy ties
            np.repeat(rng.normal(0, 1, 300), 4)[:n],  # 300 distinct values, each tied
            np.where(rng.uniform(size=n) < 0.7, 0.0, rng.exponential(1.0, n)),  # one mass point
        ]
        binned = bin_features(_fm(np.column_stack(columns)), max_bins=max_bins)
        for j, col in enumerate(columns):
            expected = _loop_cuts(col, max_bins)
            assert binned.thresholds[j].dtype == expected.dtype
            assert binned.thresholds[j].tobytes() == expected.tobytes(), f"column {j}"

    @pytest.mark.parametrize("max_bins", [2, 3, 16, 256])
    def test_bins_and_cuts_equal_the_two_sort_binning(self, max_bins):
        rng = np.random.default_rng(40 + max_bins)
        n = 900
        signed_zeros = rng.choice([-0.0, 0.0], n)
        columns = [
            rng.normal(0, 1, n),  # all distinct
            rng.integers(0, max_bins, n).astype(float),  # at most max_bins distinct
            rng.integers(0, max_bins + 1, n).astype(float),  # one more than max_bins
            np.repeat(rng.normal(0, 1, 300), 3),  # 300 distinct values, each tied
            np.where(rng.uniform(size=n) < 0.5, signed_zeros, rng.normal(0, 1, n)),
            np.where(rng.uniform(size=n) < 0.5, signed_zeros, rng.integers(-2, 3, n)),
            signed_zeros,  # -0.0 and 0.0 are one value
            np.full(n, 2.5),
        ]
        values = np.column_stack(columns)
        binned = bin_features(_fm(values), max_bins=max_bins)
        bins, thresholds = reference_bin_features(values, max_bins)
        assert binned.bins.dtype == bins.dtype
        assert binned.bins.tobytes() == bins.tobytes()
        for j, cuts in enumerate(thresholds):
            assert binned.thresholds[j].tobytes() == cuts.tobytes(), f"column {j}"

    def test_zero_rows(self):
        binned = bin_features(np.zeros((0, 2)), max_bins=4)
        assert binned.bins.shape == (0, 2) and binned.widths.tolist() == [1, 1]

    @pytest.mark.parametrize("max_bins,dtype", [(2, np.uint8), (256, np.uint8),
                                                (257, np.uint16)])
    def test_bins_use_smallest_unsigned_dtype(self, max_bins, dtype):
        col = np.arange(300, dtype=float).reshape(-1, 1)
        binned = bin_features(_fm(col), max_bins=max_bins)
        assert binned.bins.dtype == dtype
        assert int(binned.bins.max()) == binned.widths[0] - 1 == min(max_bins, 300) - 1

    @pytest.mark.parametrize("max_bins", [4, 16, 256])
    def test_bin_at_most_b_exactly_when_value_at_most_its_cut(self, max_bins):
        # Trees keep only a split's threshold, so walking raw values must send
        # every training row where its bin went: bins[:, j] <= b iff
        # values[:, j] <= thresholds[j][b], for every boundary b.
        rng = np.random.default_rng(max_bins)
        n = 1200

        def adjacent_floats(start, count):
            return start + np.arange(count) * np.spacing(start)

        columns = [
            rng.normal(0, 1, n),  # more distinct values than max_bins: quantile cuts
            rng.integers(0, 3, n).astype(float),  # fewer: midpoints of distinct values
            rng.choice(adjacent_floats(1.0, 4), n),  # cuts 1, 1+2e, 1+2e (e = spacing)
            rng.choice(adjacent_floats(3.0, 700), n),  # quantile cuts between neighbours
            np.round(rng.exponential(2.0, n), 1),  # ties at many values
        ]
        values = np.column_stack(columns)
        binned = bin_features(_fm(values), max_bins=max_bins)
        duplicate_cuts = 0
        for j in range(values.shape[1]):
            cuts = binned.thresholds[j]
            duplicate_cuts += int((np.diff(cuts) == 0).sum())
            for b, cut in enumerate(cuts):
                np.testing.assert_array_equal(binned.bins[:, j] <= b, values[:, j] <= cut,
                                              err_msg=f"column {j}, boundary {b}")
        # midpoints of adjacent floats round onto one of them, so some repeat
        assert duplicate_cuts > 0

    def test_repeated_values_share_bins(self):
        col = np.repeat([1.0, 2.0, 3.0, 4.0], 100)
        binned = bin_features(_fm(col.reshape(-1, 1)), max_bins=2)
        assert binned.widths[0] <= 2
        same = binned.bins[col == 2.0, 0]
        assert (same == same[0]).all()


class TestLeafWeight:
    def test_closed_form_example(self):
        assert leaf_weight(-2.0, 1.0, reg_lambda=1.0, reg_alpha=0.0) == 1.0

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 5.0, 2.0, 0.0) == 0.0

    def test_l1_dead_zone(self):
        assert leaf_weight(0.05, 1.0, 1.0, 0.1) == 0.0

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            G = float(rng.uniform(-10, 10))
            H = float(rng.uniform(0.0, 5.0))
            lam = float(rng.uniform(0.0, 3.0))
            alpha = float(rng.uniform(0.0, 1.0))
            if H + lam < 1e-3:
                continue
            closed = leaf_weight(G, H, lam, alpha)
            numeric = minimize_leaf_objective(G, H, lam, alpha)
            assert closed == pytest.approx(numeric, abs=1e-8)


class TestFindBestSplit:
    def _four_row_setup(self, gamma=0.0, min_child_weight=0.0):
        X = _fm([[1.0], [2.0], [3.0], [4.0]])
        binned = bin_features(X, 256)
        g = np.array([-0.5, -0.5, 0.5, 0.5])
        h = np.full(4, 0.25)
        config = BoostConfig(gamma=gamma, min_child_weight=min_child_weight,
                             reg_lambda=1.0, reg_alpha=0.0)
        return binned, g, h, config

    def test_hand_computed_gain(self):
        binned, g, h, config = self._four_row_setup()
        feats = np.array([0])
        hist = build_histogram(np.arange(4), binned, g, h, feats)
        dec = find_best_split(hist, binned, feats, config)
        assert dec is not None
        assert dec.feature == 0
        assert dec.threshold == 2.5
        assert dec.gain == pytest.approx(2.0 / 3.0, abs=1e-9)
        oracle = brute_force_split(np.arange(4), binned, g, h, [0], config)
        assert (oracle[0], oracle[1]) == (dec.feature, dec.threshold)
        assert oracle[2] == pytest.approx(dec.gain, abs=1e-12)

    def test_gamma_blocks_marginal_split(self):
        binned, g, h, config = self._four_row_setup(gamma=0.7)
        feats = np.array([0])
        hist = build_histogram(np.arange(4), binned, g, h, feats)
        assert find_best_split(hist, binned, feats, config) is None

    def test_min_child_weight_blocks_split(self):
        binned, g, h, config = self._four_row_setup(min_child_weight=1.0)
        feats = np.array([0])
        hist = build_histogram(np.arange(4), binned, g, h, feats)
        assert find_best_split(hist, binned, feats, config) is None

    def test_boundary_leaving_a_child_without_rows_is_never_chosen(self):
        # A subtracted histogram can keep rounding residue in bins that hold no
        # rows; here it would make the only boundary's gain positive.
        binned = bin_features(_fm([[1.0], [2.0]]), 256)
        hist = NodeHistogram(grad=np.array([[-1.0, 2.0**-30]]),
                             hess=np.array([[0.75, 2.0**-40]]),
                             count=np.array([[3, 0]]))
        config = BoostConfig(gamma=0.0, min_child_weight=0.0, reg_lambda=1.0)
        assert find_best_split(hist, binned, np.array([0]), config) is None

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(2, 31))
            d = int(rng.integers(1, 5))
            X = _fm(rng.normal(0, 1, (n, d)))
            binned = bin_features(X, max_bins=int(rng.integers(2, 12)))
            g = rng.normal(0, 1, n)
            h = rng.uniform(0.01, 1.0, n)
            config = BoostConfig(
                gamma=float(rng.choice([0.0, 0.1, 0.8])),
                min_child_weight=float(rng.choice([0.0, 0.5, 2.0])),
                reg_lambda=float(rng.choice([0.5, 1.0, 2.0])),
            )
            feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            hist = build_histogram(rows, binned, g, h, feats)
            dec = find_best_split(hist, binned, feats, config)
            oracle = brute_force_split(rows, binned, g, h, feats, config)
            if oracle is None:
                assert dec is None, f"trial {trial}"
            else:
                assert dec is not None, f"trial {trial}"
                assert (dec.feature, dec.threshold) == (oracle[0], oracle[1]), f"trial {trial}"
                assert dec.gain == pytest.approx(oracle[2], abs=1e-9)

    def test_zero_count_padding_is_never_chosen(self):
        # A narrow feature beside a 256-bin one pads its histogram row to 256
        # bins. Mass placed in its padding, where no row lies, would make a
        # padding boundary the only positive gain; the row counts alone keep it
        # out, since NL == N from a feature's last bin on.
        binned = bin_features(_fm(np.column_stack([np.tile([0.0, 1.0], 128),
                                                   np.arange(256.0)])), 256)
        assert binned.widths.tolist() == [2, 256]
        grad, hess = np.zeros((2, 256)), np.zeros((2, 256))
        count = np.zeros((2, 256), dtype=np.int64)
        # two rows; each feature's real boundaries split G = 1 into 0.5 | 0.5,
        # which has negative gain
        grad[0, [0, 1, 5]], hess[0, [0, 1]], count[0, [0, 1]] = [0.5, 1.5, -1.0], 0.25, 1
        grad[1, [0, -1]], hess[1, [0, -1]], count[1, [0, -1]] = 0.5, 0.25, 1
        hist = NodeHistogram(grad=grad, hess=hess, count=count)
        config = BoostConfig(gamma=0.0, min_child_weight=0.0, reg_lambda=1.0)
        assert find_best_split(hist, binned, np.array([0, 1]), config) is None

    def test_narrow_feature_beside_wide_one_matches_brute_force(self):
        # Subtracted histograms of random nodes over a 3-bin and a 256-bin
        # feature: every decision is the oracle's, at a real boundary.
        rng = np.random.default_rng(11)
        n = 600
        narrow = rng.integers(0, 3, n).astype(float)
        X = _fm(np.column_stack([rng.normal(0, 1, n), narrow]))
        binned = bin_features(X, 256)
        assert binned.widths.tolist() == [256, 3]
        feats = np.array([0, 1])
        seen = set()
        for trial in range(60):
            g = rng.normal(0, 1, n) + (narrow - 1.0) * rng.uniform(0, 3)
            h = rng.uniform(0.05, 1.0, n)
            parent = np.sort(rng.choice(n, size=int(rng.integers(20, n)), replace=False))
            inside = rng.uniform(size=parent.size) < rng.uniform(0.2, 0.8)
            child, sibling = parent[inside], parent[~inside]
            hist = (build_histogram(parent, binned, g, h, feats)
                    - build_histogram(child, binned, g, h, feats))
            config = BoostConfig(gamma=float(rng.choice([0.0, 0.5])),
                                 min_child_weight=float(rng.choice([0.0, 1.0])))
            dec = find_best_split(hist, binned, feats, config)
            oracle = brute_force_split(sibling, binned, g, h, feats, config)
            assert (dec is None) == (oracle is None), f"trial {trial}"
            if dec is not None:
                assert dec.bin_idx < binned.widths[dec.feature] - 1
                assert (dec.feature, dec.threshold) == oracle[:2], f"trial {trial}"
                seen.add(dec.feature)
        assert seen == {0, 1}


class TestCompactHistogram:
    """A compact histogram, whose columns are the node's rows in bin order,
    gives the dense histogram's split decision and gain bit for bit."""

    @staticmethod
    def _binned(rng, n=300):
        wide = rng.normal(0, 1, n)
        columns = [
            wide,  # 256 bins
            2.0 * wide + 1.0,  # the same bins, so its gains tie column 0's exactly
            rng.integers(0, 2, n).astype(float),  # 2, 3 and 5 distinct values
            rng.integers(0, 3, n).astype(float),
            rng.integers(0, 5, n).astype(float),
            np.arange(n) // 50 * 1.0,  # constant on 50-row blocks
            np.round(rng.exponential(1.0, n), 1),  # ties at many values
        ]
        binned = bin_features(_fm(np.column_stack(columns)), 256)
        assert binned.widths.tolist()[:6] == [256, 256, 2, 3, 5, n // 50]
        assert (binned.bins[:, 0] == binned.bins[:, 1]).all()
        return binned

    @staticmethod
    def _node(rng, n):
        """Sorted rows of a random node: 2-150 rows, a third of them inside one 50-row block."""
        size = int(rng.choice([2, 3, int(rng.integers(4, 20)), int(rng.integers(20, 151))]))
        if rng.uniform() < 1 / 3:
            start = 50 * int(rng.integers(n // 50))
            return np.sort(rng.choice(np.arange(start, start + 50), size=min(size, 50),
                                      replace=False))
        return np.sort(rng.choice(n, size=size, replace=False))

    def test_decisions_and_gains_equal_the_dense_scan_and_the_oracle(self):
        rng = np.random.default_rng(41)
        n = 300
        binned = self._binned(rng, n)
        d = binned.widths.size
        seen = {"split": 0, "none": 0, "tie": 0, "one_row_child": 0, "constant": 0,
                "gamma_blocked": 0, "narrow": 0, "mcw_edge": 0}
        for trial in range(150):
            rows = self._node(rng, n)
            feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            g = rng.normal(0, 1, n)
            quarter = rng.uniform() < 0.5  # hessians of 0.25, so sums hit min_child_weight exactly
            h = np.full(n, 0.25) if quarter else rng.uniform(0.01, 1.0, n)
            config = BoostConfig(
                gamma=float(rng.choice([0.0, 0.1, 0.8])),
                min_child_weight=float(rng.choice([0.0, 0.25, 0.5, 1.0] if quarter
                                                  else [0.0, 0.5, 2.0])),
                reg_lambda=float(rng.choice([0.5, 1.0, 2.0])),
            )
            dense = build_histogram(rows, binned, g, h, feats)
            compact = build_histogram(rows, binned, g, h, feats, compact=True)
            assert dense.bins is None and compact.bins.shape == (feats.size, rows.size)
            got = find_best_split(compact, binned, feats, config)
            want = find_best_split(dense, binned, feats, config)
            oracle = brute_force_split(rows, binned, g, h, feats, config)
            if want is None:
                assert got is None and oracle is None, f"trial {trial}"
                seen["none"] += 1
                continue
            fields = ("feature", "bin_idx", "threshold", "gain")
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], \
                f"trial {trial}"
            assert (got.feature, got.threshold) == oracle[:2], f"trial {trial}"
            assert got.gain == pytest.approx(oracle[2], abs=1e-9)
            seen["split"] += 1
            seen["tie"] += got.feature == 0 and 1 in feats
            seen["narrow"] += got.feature in (2, 3, 4)
            seen["constant"] += any(np.unique(binned.bins[rows, f]).size == 1 for f in feats)
            left = binned.bins[rows, got.feature] <= got.bin_idx
            seen["one_row_child"] += int(min(left.sum(), (~left).sum()) == 1)
            seen["mcw_edge"] += quarter and config.min_child_weight > 0 and bool(
                min(h[rows[left]].sum(), h[rows[~left]].sum()) == config.min_child_weight)

            # a gamma at the tie bar of the best gain before gamma blocks every
            # boundary: no other gain beat that bar, or it would have won
            ungated = find_best_split(dense, binned, feats, replace(config, gamma=0.0)).gain
            blocked = replace(config, gamma=ungated + GAIN_TIE_REL * max(1.0, ungated))
            assert find_best_split(compact, binned, feats, blocked) is None, f"trial {trial}"
            assert find_best_split(dense, binned, feats, blocked) is None, f"trial {trial}"
            seen["gamma_blocked"] += 1
        assert min(seen.values()) > 0, seen

    def test_two_row_nodes(self):
        binned = bin_features(_fm([[0.0, 5.0], [1.0, 5.0], [2.0, 6.0]]), 256)
        g, h = np.array([-1.0, 1.0, 1.0]), np.full(3, 0.5)
        config = BoostConfig(gamma=0.0, min_child_weight=0.0, reg_lambda=1.0)
        feats = np.array([0, 1])
        for rows, split_on in (([0, 1], 0), ([1, 2], None), ([0, 2], 0)):
            rows = np.array(rows)
            got = find_best_split(build_histogram(rows, binned, g, h, feats, compact=True),
                                  binned, feats, config)
            want = find_best_split(build_histogram(rows, binned, g, h, feats),
                                   binned, feats, config)
            assert got == want
            assert (got and got.feature) == split_on, rows

    def test_each_bin_sits_at_its_last_row(self):
        rng = np.random.default_rng(43)
        binned = self._binned(rng)
        g, h = rng.normal(0, 1, 300), rng.uniform(0.01, 1.0, 300)
        feats = np.array([0, 2, 4, 5, 6])
        rows = np.sort(rng.choice(300, size=90, replace=False))
        dense = build_histogram(rows, binned, g, h, feats)
        compact = build_histogram(rows, binned, g, h, feats, compact=True)
        assert compact.grad.shape == compact.count.shape == (feats.size, rows.size)
        for i, f in enumerate(feats):
            np.testing.assert_array_equal(compact.bins[i], np.sort(binned.bins[rows, f]))
            last = np.flatnonzero(np.append(np.diff(compact.bins[i]) != 0, True))
            occupied = compact.bins[i, last]
            for name in ("grad", "hess", "count"):
                got, want = getattr(compact, name)[i], getattr(dense, name)[i]
                assert got[last].tobytes() == want[occupied].tobytes(), (f, name)
                assert (np.delete(got, last) == 0).all() and (np.delete(want, occupied) == 0).all()

    def test_subtraction_needs_two_dense_histograms(self):
        rng = np.random.default_rng(44)
        binned = self._binned(rng)
        g, h = rng.normal(0, 1, 300), rng.uniform(0.01, 1.0, 300)
        feats, rows = np.arange(4), np.arange(0, 300, 7)
        dense = build_histogram(rows, binned, g, h, feats)
        compact = build_histogram(rows, binned, g, h, feats, compact=True)
        for a, b in ((dense, compact), (compact, dense), (compact, compact)):
            with pytest.raises(ValueError, match="dense"):
                a - b
        assert not (dense - dense).count.any()


class TestChunkedBuild:
    """A build takes features in chunks of at most tabular._BLOCK_CELLS // rows,
    with sums bitwise those of one chunk over every feature."""

    @pytest.mark.parametrize("compact", [False, True])
    def test_chunks_equal_one_chunk(self, compact, monkeypatch):
        rng = np.random.default_rng(47)
        binned = TestCompactHistogram._binned(rng)
        g, h = rng.normal(0, 1, 300), rng.uniform(0.01, 1.0, 300)
        feats = np.array([0, 1, 2, 4, 5, 6])
        for rows in (np.arange(300), np.sort(rng.choice(300, size=90, replace=False)),
                     np.array([7])):
            whole = build_histogram(rows, binned, g, h, feats, compact=compact)
            # chunks of one, two and four features (the last one short), then one chunk
            for cells in (1, 2 * rows.size, 4 * rows.size, 6 * rows.size):
                monkeypatch.setattr(tabular, "_BLOCK_CELLS", cells)
                chunked = build_histogram(rows, binned, g, h, feats, compact=compact)
                for name in ("grad", "hess", "count", "bins"):
                    got, want = getattr(chunked, name), getattr(whole, name)
                    assert (got is None) == (want is None) == (name == "bins" and not compact)
                    if want is not None:
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (rows.size, cells, name)
            assert build_histogram(rows, binned, g, h, feats[:0], compact).grad.shape[0] == 0

    def test_trees_equal_with_a_small_cap(self, monkeypatch):
        # one feature per chunk and one tree per walk block, against the default cap
        rng = np.random.default_rng(48)
        X = _fm(rng.normal(0, 1, (400, 6)))
        y = (X.values[:, 0] + rng.normal(0, 1, 400) > 0).astype(int)
        config = BoostConfig(n_estimators=6, max_depth=4, min_child_weight=1.0, gamma=0.0)
        want = train_boosting(X, y, config)
        monkeypatch.setattr(tabular, "_BLOCK_CELLS", 1)
        got = train_boosting(X, y, config)
        assert [tree_nodes(t) for t in got.trees] == [tree_nodes(t) for t in want.trees]
        assert predict_raw(got, X).tobytes() == predict_raw(want, X).tobytes()

    def test_root_build_peak_memory(self):
        # bench size: a 3200-row root over 128 of 138 columns of 256 bins; one
        # chunk held (rows x features) keys and two repeated weights, about 10 MB
        rng = np.random.default_rng(49)
        binned = bin_features(_fm(rng.normal(0, 1, (4000, 138))), 256)
        g, h = rng.normal(0, 1, 4000), rng.uniform(0.01, 1.0, 4000)
        rows = np.sort(rng.choice(4000, size=3200, replace=False))
        feats = np.sort(rng.choice(138, size=128, replace=False))
        tracemalloc.start()
        try:
            hist = build_histogram(rows, binned, g, h, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = 3 * 8 * tabular._BLOCK_CELLS  # a chunk's keys and its g and h weights
        gathered = rows.size * (binned.bins.shape[1] + 2 * 8)  # the node's bins, g and h
        histogram = 2 * 3 * hist.grad.nbytes  # the chunks' sums and their concatenation
        assert peak < chunk + gathered + histogram


class TestTrainBoosting:
    def test_constant_feature_keeps_predictions_half(self):
        X = _fm([[1.0]] * 4)
        y = np.array([1, 1, 0, 0])
        config = BoostConfig(n_estimators=5, subsample=1.0, colsample_bytree=1.0,
                             min_child_weight=0.0, gamma=0.0)
        model = train_boosting(X, y, config)
        for tree in model.trees:
            assert tree.feature.tolist() == [-1]
            assert tree.weight[0] == 0.0
        np.testing.assert_array_equal(predict_proba(model, X), np.full(4, 0.5))

    def test_separating_feature_reaches_perfect_training_auc(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.uniform(0, 1, 50), rng.uniform(2, 3, 50)])
        y = np.array([0] * 50 + [1] * 50)
        X = _fm(values.reshape(-1, 1))
        config = BoostConfig(n_estimators=50, gamma=0.0, min_child_weight=0.0)
        model = train_boosting(X, y, config)
        assert auc(predict_proba(model, X), y) == 1.0

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(5)
        X = _fm(rng.normal(0, 1, (80, 3)))
        y = (rng.uniform(size=80) < 0.5).astype(int)
        config = BoostConfig(n_estimators=20, max_depth=4, min_child_weight=0.5, gamma=0.1)
        a = train_boosting(X, y, config)
        b = train_boosting(X, y, config)
        np.testing.assert_array_equal(predict_raw(a, X), predict_raw(b, X))
        for ta, tb in zip(a.trees, b.trees):
            assert tree_nodes(ta) == tree_nodes(tb)

    def test_single_class_rejected(self):
        X = _fm([[1.0], [2.0]])
        with pytest.raises(DataError):
            train_boosting(X, np.array([1, 1]), BoostConfig(n_estimators=1))


class TestPredict:
    def test_empty_ensemble_is_base_score(self):
        model = Ensemble(trees=[], base_raw=0.0, learning_rate=0.1, feature_names=["f0"])
        X = _fm([[1.0], [5.0], [-3.0]])
        np.testing.assert_array_equal(predict_proba(model, X), np.full(3, 0.5))

    def test_single_stump_hand_traced(self):
        stump = make_tree(feature=[0, -1, -1], left=[1, -1, -1], right=[2, -1, -1],
                          threshold=[0.0, 0.0, 0.0], weight=[0.0, -1.0, 1.0])
        model = Ensemble(trees=[stump], base_raw=0.0, learning_rate=0.1,
                         feature_names=["f0"])
        proba = predict_proba(model, _fm([[-1.0], [1.0]]))
        assert proba[0] == pytest.approx(0.475021, abs=1e-6)
        assert proba[1] == pytest.approx(0.524979, abs=1e-6)

    def test_proba_strictly_increasing_in_raw(self):
        raw = np.linspace(-6, 6, 200)
        assert (np.diff(sigmoid(raw)) > 0).all()

    def test_width_mismatch_rejected(self):
        model = Ensemble(trees=[], base_raw=0.0, learning_rate=0.1, feature_names=["f0"])
        with pytest.raises(ValueError):
            predict_raw(model, _fm([[1.0, 2.0]]))


def random_tree(rng, cuts, max_depth):
    """A random pre-order tree over cuts.shape[0] features, at most max_depth deep.

    Each split takes a threshold cuts[feature, b] from the grid.
    """
    feature, threshold, left, right, weight = [], [], [], [], []

    def grow(depth):
        i = len(feature)
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                              (weight, 0.0)):
            column.append(blank)
        if depth < max_depth and rng.uniform() < 0.75:
            f, b = int(rng.integers(cuts.shape[0])), int(rng.integers(cuts.shape[1]))
            feature[i], threshold[i] = f, float(cuts[f, b])
            left[i] = grow(depth + 1)
            right[i] = grow(depth + 1)
        else:
            weight[i] = float(rng.normal())
        return i

    grow(0)
    return make_tree(feature, left, right, threshold=threshold, weight=weight)


class TestWalk:
    """predict_raw, whose walk training's per-round update also runs, equals
    reference_raw bitwise."""

    D, CUTS = 4, 5

    def _case(self, seed, n_trees, n_rows, depths=(0, 7)):
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.normal(0, 1, (self.D, self.CUTS)), axis=1)
        trees = [random_tree(rng, cuts, int(rng.integers(*depths))) for _ in range(n_trees)]
        model = Ensemble(trees=trees, base_raw=float(rng.normal()), learning_rate=0.3,
                         feature_names=[f"f{j}" for j in range(self.D)])
        # half the values sit exactly on a threshold of their column
        on_cut = cuts[np.arange(self.D), rng.integers(0, self.CUTS, (n_rows, self.D))]
        values = np.where(rng.uniform(size=(n_rows, self.D)) < 0.5, on_cut,
                          rng.normal(0, 1.5, (n_rows, self.D)))
        return model, values

    def _assert_walk_matches(self, model, values):
        scored = predict_raw(model, _fm(values, model.feature_names))
        assert scored.tobytes() == reference_raw(model, values).tobytes()
        return scored

    def test_empty_ensemble(self):
        model, values = self._case(0, n_trees=0, n_rows=7)
        scored = self._assert_walk_matches(model, values)
        assert (scored == model.base_raw).all()

    def test_root_only_leaves(self):
        model, values = self._case(1, n_trees=9, n_rows=20, depths=(0, 1))
        assert (model.forest.depth == 0).all()
        self._assert_walk_matches(model, values)

    def test_values_equal_to_a_threshold_go_left(self):
        stump = make_tree(feature=[0, -1, -1], left=[1, -1, -1], right=[2, -1, -1],
                          threshold=[0.5, 0.0, 0.0], weight=[0.0, -1.0, 1.0])
        model = Ensemble(trees=[stump], base_raw=0.0, learning_rate=1.0, feature_names=["f0"])
        values = np.array([[np.nextafter(0.5, 0.0)], [0.5], [np.nextafter(0.5, 1.0)]])
        assert self._assert_walk_matches(model, values).tolist() == [-1.0, -1.0, 1.0]

    @pytest.mark.parametrize("walk_cells", [None, 1, 22, 33])
    def test_nan_goes_right_and_infinities_compare_as_numbers(self, walk_cells, monkeypatch):
        # value <= threshold is false for a NaN, so a NaN row goes right at every node
        if walk_cells is not None:  # 11 rows: blocks of 1, 2 or 3 of the 4 trees
            monkeypatch.setattr(tabular, "_BLOCK_CELLS", walk_cells)
        deep = make_tree(feature=[0, 1, -1, -1, 1, -1, -1], left=[1, 2, -1, -1, 5, -1, -1],
                         right=[4, 3, -1, -1, 6, -1, -1],
                         threshold=[0.5, -1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
                         weight=[0.0, 0.0, -3.0, -1.0, 0.0, 1.0, 3.0])
        stump = make_tree(feature=[1, -1, -1], left=[1, -1, -1], right=[2, -1, -1],
                          threshold=[np.inf, 0.0, 0.0], weight=[0.0, 0.25, -0.25])
        leaf = make_tree(feature=[-1], left=[-1], right=[-1], weight=[0.5])
        model = Ensemble(trees=[deep, leaf, stump, deep], base_raw=0.125, learning_rate=0.5,
                         feature_names=["f0", "f1"])
        nan, inf = np.nan, np.inf
        values = np.array([[nan, nan], [nan, 0.0], [0.0, nan], [0.5, -1.0], [0.5, 2.0],
                           [-inf, -inf], [inf, inf], [-inf, inf], [inf, -inf], [inf, nan],
                           [np.nextafter(0.5, 1.0), 2.0]])
        scored = self._assert_walk_matches(model, values)
        # deep: NaN goes right twice (weight 3); stump: NaN goes right (-0.25)
        assert scored[0] == 0.125 + 0.5 * 3.0 + 0.5 * 0.5 + 0.5 * -0.25 + 0.5 * 3.0
        # inf <= inf: the stump sends an infinite value left
        assert scored[6] == 0.125 + 0.5 * 3.0 + 0.5 * 0.5 + 0.5 * 0.25 + 0.5 * 3.0

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_random_trees_of_unequal_depth(self, seed):
        model, values = self._case(seed, n_trees=40, n_rows=150)
        assert np.unique(model.forest.depth).size >= 3
        self._assert_walk_matches(model, values)

    def test_more_trees_than_one_block(self):
        n_rows = 300
        per_block = tabular._BLOCK_CELLS // n_rows
        model, values = self._case(5, n_trees=2 * per_block + 5, n_rows=n_rows)
        self._assert_walk_matches(model, values)

    def test_row_alone_equals_its_batch_row(self):
        model, values = self._case(6, n_trees=3 * (tabular._BLOCK_CELLS // 500), n_rows=500)
        batch = predict_raw(model, _fm(values, model.feature_names))
        for i in range(0, 500, 25):
            alone = predict_raw(model, _fm(values[i:i + 1], model.feature_names))
            assert alone.tobytes() == batch[i:i + 1].tobytes(), f"row {i}"

    def test_grown_trees_are_pre_order(self):
        rng = np.random.default_rng(7)
        X = _fm(rng.normal(0, 1, (200, 3)))
        y = (X.values[:, 0] + rng.normal(0, 1, 200) > 0).astype(int)
        model = train_boosting(X, y, BoostConfig(n_estimators=5, max_depth=5,
                                                 min_child_weight=0.0, gamma=0.0))

        def subtree_end(tree, i):
            """One past the last node of the subtree at i, by recursion."""
            if tree.feature[i] < 0:
                return i + 1
            assert tree.left[i] == i + 1
            assert tree.right[i] == subtree_end(tree, tree.left[i])
            return subtree_end(tree, tree.right[i])

        for tree in model.trees:
            assert subtree_end(tree, 0) == tree.feature.size > 1


def _total_bce(model, X, y, upto):
    prefix = Ensemble(trees=model.trees[:upto], base_raw=model.base_raw,
                      learning_rate=model.learning_rate, feature_names=model.feature_names)
    raw = predict_raw(prefix, X)
    p = np.clip(sigmoid(raw), 1e-12, 1 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).sum())


class TestLossMonotonicity:
    @pytest.mark.parametrize("seed,n,d", [(0, 60, 2), (1, 50, 1), (2, 80, 3)])
    def test_training_bce_never_increases(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X = _fm(rng.normal(0, 1, (n, d)))
        noise = rng.normal(0, 1, n)
        y = ((X.values[:, 0] + noise) > 0).astype(int)
        config = BoostConfig(n_estimators=50, max_depth=3, min_child_weight=0.0,
                             gamma=0.0, reg_alpha=0.0, subsample=1.0,
                             colsample_bytree=1.0, seed=seed)
        model = train_boosting(X, y, config)
        losses = [_total_bce(model, X, y, t) for t in range(51)]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-9


class TestGrownTreesMatchBruteForce:
    """Trees from train_boosting, whose non-root histograms are built or subtracted,
    agree with exhaustive enumeration over each node's rows at every node. Every
    search is seen, in order: a node of at most B/2 rows is searched from a
    compact histogram, a larger one from a dense histogram, and both occur."""

    @pytest.mark.parametrize("min_child_weight", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.8])
    def test_every_node_matches_oracle(self, min_child_weight, gamma, monkeypatch):
        self._check_growth(150, 16, min_child_weight, gamma, monkeypatch)

    @pytest.mark.parametrize("min_child_weight", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.8])
    def test_every_node_matches_oracle_on_more_rows(self, min_child_weight, gamma, monkeypatch):
        self._check_growth(400, 32, min_child_weight, gamma, monkeypatch)

    @staticmethod
    def _check_growth(n, max_bins, min_child_weight, gamma, monkeypatch):
        rng = np.random.default_rng(int(10 * min_child_weight + 100 * gamma) + n - 150)
        d = 5
        values = rng.normal(0, 1, (n, d))
        values[:, 3] = np.round(values[:, 3])  # a few distinct values with many ties
        y = ((values[:, 0] - values[:, 2] + rng.normal(0, 1, n)) > 0).astype(int)
        X = _fm(values)
        config = BoostConfig(n_estimators=8, max_depth=4, learning_rate=0.3,
                             min_child_weight=min_child_weight, gamma=gamma,
                             subsample=0.8, colsample_bytree=0.6, max_bins=max_bins,
                             reg_alpha=0.0)
        searched = []  # (compact layout, rows) of every search, in the order made

        def spy(hist, *args, _real=gbdt.find_best_split):
            searched.append((hist.bins is not None, int(hist.count[0].sum())))
            return _real(hist, *args)

        with monkeypatch.context() as patch:
            patch.setattr(gbdt, "find_best_split", spy)
            model = train_boosting(X, y, config)
        binned = bin_features(X, config.max_bins)
        seen = {"deep": 0, "early_leaf": 0}
        expected = []  # the same, from each searched node's rows, in pre-order

        def check(tree, i, rows, depth, g, h, feats):
            if depth < config.max_depth and rows.size >= 2:
                small = int(binned.widths[feats].max()) // 2
                expected.append((rows.size <= small, rows.size))
            oracle = brute_force_split(rows, binned, g, h, feats, config)
            if tree.feature[i] < 0:
                if depth < config.max_depth:
                    assert oracle is None
                    seen["early_leaf"] += 1
                return
            assert oracle is not None
            assert (tree.feature[i], tree.threshold[i]) == (oracle[0], oracle[1])
            assert tree.gain[i] == pytest.approx(oracle[2], abs=1e-9)
            seen["deep"] += depth > 0
            mask = values[rows, tree.feature[i]] <= tree.threshold[i]
            left, right = rows[mask], rows[~mask]
            parent = build_histogram(rows, binned, g, h, feats)
            derived = parent - build_histogram(left, binned, g, h, feats)
            direct = build_histogram(right, binned, g, h, feats)
            np.testing.assert_array_equal(derived.count, direct.count)
            for got, want, total in ((derived.grad, direct.grad, parent.grad),
                                     (derived.hess, direct.hess, parent.hess)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(total).sum()
            check(tree, tree.left[i], left, depth + 1, g, h, feats)
            check(tree, tree.right[i], right, depth + 1, g, h, feats)

        raw = np.full(n, model.base_raw)
        for t, tree in enumerate(model.trees):
            g, h = logistic_grad_hess(raw, y)
            rows, feats = _round_sample(config, t, n, d)
            assert rows.size < n and feats.size < d
            check(tree, 0, rows, 0, g, h, feats)
            raw += config.learning_rate * reference_tree_output(tree, values)
        assert seen["deep"] > 0 and seen["early_leaf"] > 0, seen
        assert searched == expected
        assert {compact for compact, _ in searched} == {False, True}


class TestOneBinColumns:
    """train_boosting grows trees over the round's sampled columns that have at
    least two bins; a one-bin column has no boundary, so the trees equal those
    grown over the unfiltered sample, array for array and bit for bit."""

    @staticmethod
    def _spy_features(monkeypatch):
        """Record (name, features, compact) of every build_histogram and
        find_best_split call; compact is the layout built or searched."""
        seen = []
        for name, position in (("build_histogram", 4), ("find_best_split", 2)):
            def spy(*args, _real=getattr(gbdt, name), _name=name, _position=position, **kwargs):
                compact = (kwargs.get("compact", False) if _name == "build_histogram"
                           else args[0].bins is not None)
                seen.append((_name, np.asarray(args[_position]).copy(), compact))
                return _real(*args, **kwargs)
            monkeypatch.setattr(gbdt, name, spy)
        return seen

    @staticmethod
    def _searched_nodes(tree, rows, values, max_depth, depth=0, i=0):
        """Number of nodes growth searched: those above max_depth with two rows or more."""
        searched = int(depth < max_depth and rows.size >= 2)
        if tree.feature[i] < 0:
            return searched
        mask = values[rows, tree.feature[i]] <= tree.threshold[i]
        return (searched
                + TestOneBinColumns._searched_nodes(tree, rows[mask], values, max_depth,
                                                    depth + 1, tree.left[i])
                + TestOneBinColumns._searched_nodes(tree, rows[~mask], values, max_depth,
                                                    depth + 1, tree.right[i]))

    def test_trees_equal_the_unfiltered_growth_and_skip_one_bin_columns(self, monkeypatch):
        rng = np.random.default_rng(21)
        n, d = 120, 8
        values = rng.normal(0, 1, (n, d))
        constant = [0, 3, 5, 7]  # the first and the last column among them
        values[:, constant] = [2.0, -1.0, 0.0, 7.5]
        values[:, 6] = np.round(values[:, 6])
        y = ((values[:, 1] + values[:, 4] + rng.normal(0, 1, n)) > 0).astype(int)
        X = _fm(values)
        config = BoostConfig(n_estimators=24, max_depth=4, learning_rate=0.3,
                             min_child_weight=0.5, gamma=0.0, subsample=0.8,
                             colsample_bytree=0.25, max_bins=32)
        binned = bin_features(X, config.max_bins)
        assert np.flatnonzero(binned.widths == 1).tolist() == constant

        with monkeypatch.context() as patch:
            seen = self._spy_features(patch)
            model = train_boosting(X, y, config)
        assert seen and all((binned.widths[f] >= 2).all() for _, f, _ in seen)
        # both layouts are built and searched, and the spy sees every search
        assert {(name, compact) for name, _, compact in seen} == {
            (name, compact) for name in ("build_histogram", "find_best_split")
            for compact in (False, True)}
        searches = sum(name == "find_best_split" for name, _, _ in seen)
        assert searches == sum(
            self._searched_nodes(tree, _round_sample(config, t, n, d)[0], values,
                                 config.max_depth)
            for t, tree in enumerate(model.trees))

        raw = np.full(n, model.base_raw)
        only_constant = splits = 0
        for t, tree in enumerate(model.trees):
            g, h = logistic_grad_hess(raw, y)
            rows, feats = _round_sample(config, t, n, d)
            expected = gbdt._grow_tree(rows, binned, g, h, feats, config)
            for name in ("feature", "threshold", "left", "right", "weight", "gain"):
                got, want = getattr(tree, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (t, name)
            only_constant += bool(np.isin(feats, constant).all())
            splits += int((tree.feature >= 0).sum())
            raw = _add_trees(gbdt.Forest.stack([tree]), values, raw, config.learning_rate)
        assert only_constant > 0 and splits > 0, (only_constant, splits)
        np.testing.assert_array_equal(predict_raw(model, X), raw)

    def test_all_constant_matrix_grows_single_leaves(self):
        n = 50
        X = _fm(np.tile([3.0, -2.0, 0.0], (n, 1)))
        y = (np.arange(n) % 5 == 0).astype(int)  # 10 positives, 40 negatives
        config = BoostConfig(n_estimators=6, learning_rate=0.5, subsample=0.6,
                             min_child_weight=0.0, gamma=0.0, reg_alpha=0.1, reg_lambda=1.0)
        model = train_boosting(X, y, config)

        # every row has the same raw score, so a round's leaf sums are counts times p
        raw = model.base_raw
        for t, tree in enumerate(model.trees):
            assert tree.feature.tolist() == [-1] and tree.gain.tolist() == [0.0]
            rows, _ = _round_sample(config, t, n, X.d)
            positives = int(y[rows].sum())
            p = 1.0 / (1.0 + np.exp(-raw))
            G = rows.size * p - positives
            H = rows.size * p * (1.0 - p)
            w = -np.sign(G) * max(abs(G) - config.reg_alpha, 0.0) / (H + config.reg_lambda)
            assert tree.weight[0] == pytest.approx(w, rel=1e-12, abs=1e-15)
            raw += config.learning_rate * tree.weight[0]
        assert abs(model.trees[0].weight[0]) > 0.1
        scores = predict_raw(model, X)
        np.testing.assert_array_equal(scores, np.full(n, raw))


class TestSplitsRespectConstraints:
    def test_accepted_splits_have_positive_gain_and_hessian_mass(self):
        rng = np.random.default_rng(9)
        X = _fm(rng.normal(0, 1, (200, 4)))
        y = (X.values[:, 1] > 0.2).astype(int)
        config = BoostConfig(n_estimators=10, max_depth=4, min_child_weight=0.3,
                             gamma=0.05, subsample=1.0, colsample_bytree=1.0)
        model = train_boosting(X, y, config)

        def check(tree, i, rows, g, h):
            if tree.feature[i] < 0:
                return
            assert tree.gain[i] > 0.0
            mask = X.values[rows, tree.feature[i]] <= tree.threshold[i]
            left, right = rows[mask], rows[~mask]
            assert h[left].sum() >= config.min_child_weight
            assert h[right].sum() >= config.min_child_weight
            check(tree, tree.left[i], left, g, h)
            check(tree, tree.right[i], right, g, h)

        raw = np.full(200, model.base_raw)
        for tree in model.trees:
            g, h = logistic_grad_hess(raw, y)
            check(tree, 0, np.arange(200), g, h)
            raw += config.learning_rate * reference_tree_output(tree, X.values)
