"""Tests for gain-based importance extraction and ranking reports."""

import numpy as np
import pytest

from attnboost.errors import ConfigError
from attnboost.gbdt import BoostConfig, Ensemble, train_boosting
from attnboost.importance import (
    collapse_attention_block,
    gain_importance,
    rank_report,
)
from attnboost.tabular import FeatureMatrix
from test_gbdt import make_tree, right_child


def _stump(feature, gain, weight=0.5):
    return make_tree(feature=[feature, -1, -1], value=[0.0, -weight, weight],
                     gain=[gain, 0.0, 0.0])


def _ensemble(trees, names):
    return Ensemble.from_trees(trees, feature_names=names)


class TestGainImportance:
    def test_single_split_takes_full_share(self):
        model = _ensemble([_stump(3, 0.6667)], [f"f{i}" for i in range(5)])
        table = gain_importance(model)
        by_name = {e.feature: e for e in table.entries}
        assert by_name["f3"].share == 1.0
        assert by_name["f3"].splits == 1
        assert all(by_name[f"f{i}"].share == 0.0 for i in (0, 1, 2, 4))

    def test_empty_ensemble_all_zero(self):
        table = gain_importance(_ensemble([], ["a", "attn_0"]))
        assert all(e.share == 0.0 for e in table.entries)
        by_name = {e.feature: e for e in collapse_attention_block(table).entries}
        assert by_name["attention_block"].share == 0.0

    def test_total_gain_matches_recorded_split_gains(self):
        rng = np.random.default_rng(0)
        X = FeatureMatrix(values=rng.normal(0, 1, (150, 4)),
                          feature_names=["a", "b", "c", "d"])
        y = (X.values[:, 2] + 0.3 * rng.normal(0, 1, 150) > 0).astype(int)
        config = BoostConfig(n_estimators=15, max_depth=4, min_child_weight=0.2,
                             gamma=0.0, seed=1)
        model = train_boosting(X, y, config)
        table = gain_importance(model)

        def walk_sum(tree, i=0):
            if tree.feature[i] < 0:
                return 0.0
            return (tree.gain[i] + walk_sum(tree, i + 1)
                    + walk_sum(tree, right_child(tree, i)))

        recorded = sum(walk_sum(t) for t in model.trees)
        assert sum(e.gain for e in table.entries) == pytest.approx(recorded, abs=1e-9)
        assert sum(e.share for e in table.entries) == pytest.approx(1.0, abs=1e-9)

    def test_feature_totals_are_sequential_sums_in_tree_then_node_order(self):
        rng = np.random.default_rng(3)
        X = FeatureMatrix(values=rng.normal(0, 1, (200, 3)), feature_names=["a", "b", "c"])
        y = (X.values[:, 0] - X.values[:, 1] + rng.normal(0, 1, 200) > 0).astype(int)
        model = train_boosting(X, y, BoostConfig(n_estimators=12, max_depth=5,
                                                 min_child_weight=0.2, gamma=0.0))
        gains = {name: 0.0 for name in X.feature_names}
        for tree in model.trees:
            for f, gain in zip(tree.feature.tolist(), tree.gain.tolist()):
                if f >= 0:
                    gains[X.feature_names[f]] += gain
        assert {e.feature: e.gain for e in gain_importance(model).entries} == gains

    def test_entries_sorted_descending(self):
        model = _ensemble([_stump(0, 1.0), _stump(1, 3.0), _stump(2, 2.0)], ["a", "b", "c"])
        table = gain_importance(model)
        gains = [e.gain for e in table.entries]
        assert gains == sorted(gains, reverse=True)


class TestCollapseAttentionBlock:
    def test_merges_attn_rows(self):
        names = ["x", "attn_0", "attn_5"]
        model = _ensemble([_stump(0, 0.7), _stump(1, 0.1), _stump(2, 0.2)], names)
        table = collapse_attention_block(gain_importance(model))
        by_name = {e.feature: e for e in table.entries}
        assert "attn_0" not in by_name and "attn_5" not in by_name
        assert by_name["attention_block"].share == pytest.approx(0.3)
        assert by_name["attention_block"].splits == 2
        assert by_name["attention_block"].gain == pytest.approx(0.3)

    def test_identity_without_attn_rows(self):
        model = _ensemble([_stump(0, 0.7)], ["x", "y"])
        table = gain_importance(model)
        assert collapse_attention_block(table) is table

    def test_shares_still_sum_to_one(self):
        names = ["x", "y", "attn_0", "attn_1"]
        model = _ensemble([_stump(i, g) for i, g in enumerate((1.0, 2.0, 0.5, 1.5))], names)
        table = collapse_attention_block(gain_importance(model))
        assert sum(e.share for e in table.entries) == pytest.approx(1.0, abs=1e-12)


class TestRankReport:
    def test_equal_gains_break_alphabetically(self):
        model = _ensemble([_stump(0, 1.0), _stump(1, 1.0)], ["zeta", "alpha"])
        text, csv_text = rank_report(gain_importance(model))
        lines = csv_text.splitlines()
        assert lines[0] == "rank,feature,gain,share,splits"
        assert lines[1].split(",")[1] == "alpha"
        assert lines[2].split(",")[1] == "zeta"

    def test_top_n_selects_max_gain(self):
        model = _ensemble([_stump(0, 1.0), _stump(1, 5.0)], ["low", "high"])
        _, csv_text = rank_report(gain_importance(model), top_n=1)
        lines = csv_text.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "high"

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_rejected(self, top_n):
        model = _ensemble([_stump(0, 1.0), _stump(1, 5.0)], ["low", "high"])
        with pytest.raises(ConfigError, match="at least 1"):
            rank_report(gain_importance(model), top_n=top_n)

    def test_planted_feature_ranks_first(self):
        rng = np.random.default_rng(7)
        X = FeatureMatrix(values=rng.normal(0, 1, (400, 3)),
                          feature_names=["noise_a", "planted", "noise_b"])
        y = (X.values[:, 1] > 0).astype(int)
        config = BoostConfig(n_estimators=20, max_depth=3, min_child_weight=0.2,
                             gamma=0.0, seed=2)
        model = train_boosting(X, y, config)
        text, csv_text = rank_report(gain_importance(model))
        assert csv_text.splitlines()[1].split(",")[1] == "planted"
        assert text.splitlines()[1].split()[1] == "planted"
