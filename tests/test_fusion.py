"""Tests for the composite model and its ablation variants."""

import numpy as np
import pytest

from attnboost import gbdt
from attnboost.attention import TrainConfig, init_params, train
from attnboost.errors import DataError
from attnboost.experiments import SyntheticSpec, desk_scale_boost_config, generate_synthetic
from attnboost.fusion import (
    VARIANT_KINDS,
    AttnBoostModel,
    apply_manual_weights,
    fit_attnboost,
    fit_variant,
    predict,
    predict_matrix,
)
from attnboost.gbdt import BoostConfig, Ensemble, bin_features
from attnboost.tabular import (
    FeatureMatrix,
    apply_preprocessor,
    fit_preprocessor,
    stratified_split,
)

ATTN_FIELDS = ("W1", "b1", "W_attn", "b_attn", "w2", "b2")


def _small_boost(seed=42):
    return BoostConfig(n_estimators=12, max_depth=3, min_child_weight=0.5,
                       gamma=0.0, seed=seed)


def _toy_matrix(n=240, d=6, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, (n, d))
    y = ((values[:, 0] + 0.5 * values[:, 1] + 0.3 * rng.normal(0, 1, n)) > 0).astype(int)
    return FeatureMatrix(values=values, feature_names=[f"f{i}" for i in range(d)]), y


@pytest.fixture(scope="module")
def planted_split():
    table = generate_synthetic(SyntheticSpec(n_rows=2000, seed=42))
    state = fit_preprocessor(table, [])
    X, y = apply_preprocessor(state, table)
    return state, stratified_split(X, y, 0.8, 42), table


class TestFitAttnBoost:
    def test_ensemble_width_is_d_plus_k(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=5, epochs=2, seed=0)
        model = fit_attnboost(X, y, acfg, _small_boost())
        assert len(model.ensemble.feature_names) == X.d + 5
        assert model.ensemble.feature_names[X.d:] == [f"attn_{i}" for i in range(5)]

    def test_planted_data_reaches_f1(self, planted_split):
        state, split, _ = planted_split
        acfg = TrainConfig(k=32, epochs=10, seed=0)
        model = fit_attnboost(split.X_train, split.y_train, acfg,
                              desk_scale_boost_config(), preprocessor=state)
        proba, labels = predict_matrix(model, split.X_test)
        from attnboost.metrics import evaluate_scores

        report = evaluate_scores(proba, split.y_test)
        assert report.f1 >= 0.80
        # training rows are fit well at desk scale
        train_proba, _ = predict_matrix(model, split.X_train)
        train_report = evaluate_scores(train_proba, split.y_train)
        assert train_report.f1 >= 0.95

    def test_predict_round_trips_width(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=4, epochs=1, seed=0)
        model = fit_attnboost(X, y, acfg, _small_boost())
        proba, labels = predict_matrix(model, X)
        assert proba.shape == (X.n_rows,)
        assert set(np.unique(labels)) <= {0, 1}


class TestFitVariant:
    def test_no_attention_trains_on_raw_width(self):
        X, y = _toy_matrix()
        model = fit_variant("no_attention", X, y, TrainConfig(k=4, epochs=1),
                            _small_boost())
        assert model.augment_mode == "none"
        assert model.attention is None
        assert len(model.ensemble.feature_names) == X.d

    def test_no_attention_bit_identical_to_direct_gbdt(self):
        X, y = _toy_matrix()
        config = _small_boost(seed=7)
        model = fit_variant("no_attention", X, y, TrainConfig(k=4, epochs=1), config)
        direct = gbdt.train_boosting(X, y, config)
        np.testing.assert_array_equal(gbdt.predict_raw(model.ensemble, X),
                                      gbdt.predict_raw(direct, X))

    def test_equal_weight_matches_no_attention(self):
        X, y = _toy_matrix()
        a = fit_variant("equal_weight", X, y, TrainConfig(k=4, epochs=1), _small_boost())
        b = fit_variant("no_attention", X, y, TrainConfig(k=4, epochs=1), _small_boost())
        np.testing.assert_array_equal(gbdt.predict_raw(a.ensemble, X),
                                      gbdt.predict_raw(b.ensemble, X))

    def test_random_attention_columns_deterministic(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=6, epochs=1, seed=11)
        a = fit_variant("random_attention", X, y, acfg, _small_boost())
        b = fit_variant("random_attention", X, y, acfg, _small_boost())
        pa, _ = predict_matrix(a, X)
        pb, _ = predict_matrix(b, X)
        np.testing.assert_array_equal(pa, pb)
        assert a.random_k == 6
        assert len(a.ensemble.feature_names) == X.d + 6
        assert list(a.ensemble.feature_names[X.d:]) == [f"attn_{i}" for i in range(6)]

    def test_frozen_attention_is_initialization(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=5, epochs=9, seed=3)
        model = fit_variant("frozen_attention", X, y, acfg, _small_boost())
        ref = init_params(X.d, 5, seed=3)
        for name in ATTN_FIELDS:
            assert np.array_equal(np.asarray(getattr(model.attention, name)),
                                  np.asarray(getattr(ref, name)))

    def test_shallow_attention_uses_shallow_width(self):
        X, y = _toy_matrix()
        model = fit_variant("shallow_attention", X, y, TrainConfig(k=64, epochs=1),
                            _small_boost(), shallow_k=8)
        assert model.attention.k == 8

    def test_shallow_attention_keeps_other_settings(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=64, epochs=2, batch_size=7, learning_rate=0.01, seed=5,
                           optimizer="plain-sgd", prob_clamp=1e-6)
        model = fit_variant("shallow_attention", X, y, acfg, _small_boost(), shallow_k=8)
        ref, _ = train(X, y, TrainConfig(k=8, epochs=2, batch_size=7, learning_rate=0.01,
                                         seed=5, optimizer="plain-sgd", prob_clamp=1e-6))
        for name in ATTN_FIELDS:
            assert np.array_equal(np.asarray(getattr(model.attention, name)),
                                  np.asarray(getattr(ref, name)))
        assert len(model.ensemble.feature_names) == X.d + 8

    def test_manual_weights_requires_map(self):
        X, y = _toy_matrix()
        with pytest.raises(ValueError, match="weight map"):
            fit_variant("manual_weights", X, y, TrainConfig(k=2, epochs=1), _small_boost())

    def test_unknown_kind_rejected(self):
        X, y = _toy_matrix()
        with pytest.raises(ValueError, match="unknown variant"):
            fit_variant("mystery", X, y, TrainConfig(k=2, epochs=1), _small_boost())

    def test_variant_enumeration_complete(self):
        assert VARIANT_KINDS == ("full", "no_attention", "manual_weights",
                                 "random_attention", "frozen_attention",
                                 "shallow_attention", "equal_weight")


class TestApplyManualWeights:
    def _matrix(self):
        values = np.arange(12, dtype=float).reshape(4, 3)
        return FeatureMatrix(values=values, feature_names=["Discount", "Sales", "Profit"])

    def test_doubles_named_column_only(self):
        X = self._matrix()
        out = apply_manual_weights(X, {"Discount": 2.0})
        np.testing.assert_array_equal(out.values[:, 0], X.values[:, 0] * 2.0)
        np.testing.assert_array_equal(out.values[:, 1:], X.values[:, 1:])

    def test_reference_weighted_feature_set(self):
        # the five features given elevated manual weights in the weighted condition
        from attnboost.experiments import MANUAL_WEIGHT_FEATURES

        assert MANUAL_WEIGHT_FEATURES == ["Discount", "Sales", "Profit",
                                          "Ship Mode", "Region"]

    def test_empty_map_is_identity(self):
        X = self._matrix()
        out = apply_manual_weights(X, {})
        np.testing.assert_array_equal(out.values, X.values)

    def test_all_ones_is_identity(self):
        X = self._matrix()
        out = apply_manual_weights(X, {n: 1.0 for n in X.feature_names})
        np.testing.assert_array_equal(out.values, X.values)

    def test_unknown_feature_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            apply_manual_weights(self._matrix(), {"Quantity": 2.0})

    def test_non_positive_factor_rejected(self):
        with pytest.raises(DataError, match="positive"):
            apply_manual_weights(self._matrix(), {"Sales": -1.0})


class TestPredict:
    def test_empty_ensemble_scores_half_label_one(self, planted_split):
        state, split, table = planted_split
        model = AttnBoostModel(
            preprocessor=state,
            attention=None,
            augment_mode="none",
            ensemble=Ensemble(trees=[], base_raw=0.0, learning_rate=0.1,
                              feature_names=list(state.feature_names)),
            variant="no_attention",
            attention_seed=0,
            boost_seed=0,
        )
        proba, labels = predict(model, table)
        assert (proba == 0.5).all()
        assert (labels == 1).all()  # threshold rule is >= 0.5

    def test_same_rows_twice_identical(self, planted_split):
        state, split, table = planted_split
        model = fit_variant("no_attention", split.X_train, split.y_train,
                            TrainConfig(k=4, epochs=1), _small_boost(),
                            preprocessor=state)
        p1, l1 = predict(model, table)
        p2, l2 = predict(model, table)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(l1, l2)

    def test_requires_preprocessor(self):
        X, y = _toy_matrix()
        model = fit_variant("no_attention", X, y, TrainConfig(k=2, epochs=1),
                            _small_boost())
        with pytest.raises(ValueError, match="preprocessor"):
            predict(model, None)


class TestRescalingBins:
    def test_positive_column_rescale_keeps_bin_indices(self):
        rng = np.random.default_rng(17)
        values = rng.normal(0, 2, (300, 4))
        X = FeatureMatrix(values=values, feature_names=list("abcd"))
        scales = np.array([2.0, 0.5, 4.0, 8.0])  # exact powers of two
        scaled = FeatureMatrix(values=values * scales, feature_names=list("abcd"))
        a = bin_features(X, 32)
        b = bin_features(scaled, 32)
        np.testing.assert_array_equal(a.bins, b.bins)
