"""Tests for the composite model and its ablation variants."""

import numpy as np
import pytest

from attention_reference import BLOCK_FIELDS, reference_augment, reference_train
from attnboost import attention, gbdt
from attnboost.attention import TrainConfig, init_params, train
from attnboost.errors import DataError
from attnboost.experiments import SyntheticSpec, desk_scale_boost_config, generate_synthetic
from attnboost.fusion import (
    NETWORK_VARIANTS,
    SHALLOW_K,
    VARIANT_KINDS,
    AttnBoostModel,
    RandomBlock,
    _widen,
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
        model = fit_variant("full", X, y, acfg, _small_boost())
        assert len(model.ensemble.feature_names) == X.d + 5
        assert model.ensemble.feature_names[X.d:] == [f"attn_{i}" for i in range(5)]

    def test_planted_data_reaches_f1(self, planted_split):
        state, split, _ = planted_split
        acfg = TrainConfig(k=32, epochs=10, seed=0)
        model = fit_variant("full", split.X_train, split.y_train, acfg,
                            desk_scale_boost_config(), preprocessor=state)
        proba, labels = predict_matrix(model, split.X_test)
        from attnboost.metrics import evaluate_scores

        report = evaluate_scores(proba, split.y_test)
        assert report.f1 >= 0.80
        # training rows are fit well at desk scale
        train_proba, _ = predict_matrix(model, split.X_train)
        train_report = evaluate_scores(train_proba, split.y_train)
        assert train_report.f1 >= 0.95

    def test_live_unit_training_keeps_test_probabilities(self, planted_split, monkeypatch):
        """The network trained on its live units only gives the trees what a fit of
        every unit gives them: test probabilities are bitwise equal."""
        _, split, _ = planted_split
        acfg = TrainConfig(k=128, epochs=3, seed=0)
        boost = BoostConfig(n_estimators=12, max_depth=6, min_child_weight=1.0, gamma=0.0)
        init, _ = init_params(split.X_train.d, 128, seed=0)
        pre = split.X_train.values @ init.W1.T + init.b1
        assert 0 < (pre > 0.0).any(axis=0).sum() < 128  # the raw year leaves units dead
        model = fit_variant("full", split.X_train, split.y_train, acfg, boost)
        def train_every_unit(X, y, config):
            network, history = reference_train(X, y, config)
            return network.block, history

        monkeypatch.setattr(attention, "train", train_every_unit)
        every_unit = fit_variant("full", split.X_train, split.y_train, acfg, boost)
        proba, _ = predict_matrix(model, split.X_test)
        expected, _ = predict_matrix(every_unit, split.X_test)
        assert proba.tobytes() == expected.tobytes()

    def test_predict_round_trips_width(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=4, epochs=1, seed=0)
        model = fit_variant("full", X, y, acfg, _small_boost())
        proba, labels = predict_matrix(model, X)
        assert proba.shape == (X.n_rows,)
        assert set(np.unique(labels)) <= {0, 1}


class TestFitVariant:
    def test_no_attention_trains_on_raw_width(self):
        X, y = _toy_matrix()
        model = fit_variant("no_attention", X, y, TrainConfig(k=4, epochs=1),
                            _small_boost())
        assert model.attention is None
        assert len(model.ensemble.feature_names) == X.d

    def test_no_attention_bit_identical_to_direct_gbdt(self):
        X, y = _toy_matrix()
        config = _small_boost(seed=7)
        model = fit_variant("no_attention", X, y, TrainConfig(k=4, epochs=1), config)
        direct = gbdt.train_boosting(X, y, config)
        np.testing.assert_array_equal(gbdt.predict_raw(model.ensemble, X),
                                      gbdt.predict_raw(direct, X))

    def test_random_attention_columns_deterministic(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=6, epochs=1, seed=11)
        a = fit_variant("random_attention", X, y, acfg, _small_boost())
        b = fit_variant("random_attention", X, y, acfg, _small_boost())
        pa, _ = predict_matrix(a, X)
        pb, _ = predict_matrix(b, X)
        np.testing.assert_array_equal(pa, pb)
        assert a.attention == RandomBlock(k=6, seed=11)
        assert len(a.ensemble.feature_names) == X.d + 6
        assert list(a.ensemble.feature_names[X.d:]) == [f"attn_{i}" for i in range(6)]

    def test_frozen_attention_is_initialization(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=5, epochs=9, seed=3)
        model = fit_variant("frozen_attention", X, y, acfg, _small_boost())
        ref, _ = init_params(X.d, 5, seed=3)
        for name in BLOCK_FIELDS:
            assert np.array_equal(np.asarray(getattr(model.attention, name)),
                                  np.asarray(getattr(ref, name)))

    def test_shallow_attention_uses_shallow_width(self):
        X, y = _toy_matrix()
        model = fit_variant("shallow_attention", X, y, TrainConfig(k=64, epochs=1),
                            _small_boost())
        assert model.attention.k == SHALLOW_K == 16

    def test_shallow_attention_keeps_other_settings(self):
        X, y = _toy_matrix()
        acfg = TrainConfig(k=64, epochs=2, batch_size=7, learning_rate=0.01, seed=5)
        model = fit_variant("shallow_attention", X, y, acfg, _small_boost())
        ref, _ = train(X, y, TrainConfig(k=SHALLOW_K, epochs=2, batch_size=7,
                                         learning_rate=0.01, seed=5))
        for name in BLOCK_FIELDS:
            assert np.array_equal(np.asarray(getattr(model.attention, name)),
                                  np.asarray(getattr(ref, name)))
        assert len(model.ensemble.feature_names) == X.d + SHALLOW_K

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_block_is_gated_hidden_layer_exactly_when_there_is_a_network(self, kind):
        X, y = _toy_matrix()
        model = fit_variant(kind, X, y, TrainConfig(k=4, epochs=1), _small_boost())
        inputs = _widen(model.attention, X)
        if kind in NETWORK_VARIANTS:
            assert np.array_equal(inputs.values, reference_augment(model.attention, X).values)
        else:  # the block is random_attention's width and seed, or nothing
            assert model.attention == {"no_attention": None,
                                       "random_attention": RandomBlock(k=4, seed=0)}[kind]
            assert inputs.d == X.d + (4 if model.attention else 0)
        assert model.ensemble.feature_names == inputs.feature_names

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_labels_other_than_zero_and_one_rejected(self, kind):
        # boosting checks its labels itself, so a variant without a network checks them too
        X, y = _toy_matrix()
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            fit_variant(kind, X, 2 * y, TrainConfig(k=4, epochs=1), _small_boost())

    def test_unknown_kind_rejected(self):
        X, y = _toy_matrix()
        with pytest.raises(ValueError, match="unknown variant"):
            fit_variant("mystery", X, y, TrainConfig(k=2, epochs=1), _small_boost())

    def test_variant_enumeration_complete(self):
        assert VARIANT_KINDS == ("full", "no_attention", "random_attention",
                                 "frozen_attention", "shallow_attention")
        assert NETWORK_VARIANTS == ("full", "frozen_attention", "shallow_attention")

    def test_no_two_variants_alias(self, planted_split):
        # a variant whose test probabilities equal another's bit for bit refits it
        state, split, _ = planted_split
        seen = {}
        for kind in VARIANT_KINDS:
            model = fit_variant(kind, split.X_train, split.y_train, TrainConfig(k=8, epochs=2),
                                _small_boost(), preprocessor=state)
            proba, _ = predict_matrix(model, split.X_test)
            assert proba.tobytes() not in seen, (kind, seen.get(proba.tobytes()))
            seen[proba.tobytes()] = kind


class TestPredict:
    def test_empty_ensemble_scores_half_label_one(self, planted_split):
        state, split, table = planted_split
        model = AttnBoostModel(
            preprocessor=state,
            attention=None,
            ensemble=Ensemble.from_trees([], feature_names=list(state.feature_names)),
            variant="no_attention",
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


class TestBatchInvariance:
    """A row's score is a function of the row alone, whatever it is scored with."""

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_row_alone_equals_row_in_batch(self, planted_split, kind):
        state, split, _ = planted_split
        model = fit_variant(kind, split.X_train, split.y_train, TrainConfig(k=8, epochs=2),
                            _small_boost(), preprocessor=state)
        X = split.X_test
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(5):
            batch = rng.choice(X.n_rows, size=int(rng.integers(2, 60)), replace=True)
            together, _ = predict_matrix(model, FeatureMatrix(X.values[batch], X.feature_names))
            for pos, row in enumerate(batch.tolist()):
                alone, _ = predict_matrix(model, FeatureMatrix(X.values[row:row + 1],
                                                               X.feature_names))
                assert alone.tobytes() == together[pos:pos + 1].tobytes(), (pos, row)

    def test_random_block_follows_row_content(self):
        X, y = _toy_matrix()
        model = fit_variant("random_attention", X, y, TrainConfig(k=5, epochs=1),
                            _small_boost())
        block = _widen(model.attention, X).values[:, X.d:]
        assert block.shape == (X.n_rows, 5)
        assert ((block >= 0.0) & (block < 1.0)).all()
        assert np.unique(block[:, 0]).size == X.n_rows  # distinct rows, distinct draws
        swapped = FeatureMatrix(X.values[::-1], X.feature_names)
        np.testing.assert_array_equal(_widen(model.attention, swapped).values[:, X.d:],
                                      block[::-1])
        reseeded = RandomBlock(k=5, seed=model.attention.seed + 1)
        assert not np.array_equal(_widen(reseeded, X).values[:, X.d:], block)


class TestRescalingBins:
    """Positive column scaling leaves quantile bins, and so every tree, unchanged."""

    def test_positive_column_rescale_keeps_bin_indices(self):
        rng = np.random.default_rng(17)
        values = rng.normal(0, 2, (300, 4))
        X = FeatureMatrix(values=values, feature_names=list("abcd"))
        scales = np.array([2.0, 0.5, 4.0, 8.0])  # exact powers of two
        scaled = FeatureMatrix(values=values * scales, feature_names=list("abcd"))
        a = bin_features(X, 32)
        b = bin_features(scaled, 32)
        np.testing.assert_array_equal(a.bins, b.bins)
