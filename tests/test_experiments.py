"""Tests for the synthetic generator, ablation harness, and baselines."""

import datetime as dt

import numpy as np
import pytest

from attention_reference import reference_sigmoid
from attnboost.attention import TrainConfig
from attnboost.errors import DataError
from attnboost.experiments import (
    DATE_RANGE,
    REGIONS,
    SEGMENTS,
    SHIP_MODES,
    LogisticConfig,
    SyntheticSpec,
    baseline_logistic,
    baseline_stump,
    generate_synthetic,
    result_from_csv,
    result_to_csv,
    run_ablation,
    run_feature_removal,
)
from attnboost.gbdt import BoostConfig
from attnboost.metrics import auc
from attnboost.tabular import (
    FeatureMatrix,
    apply_preprocessor,
    fit_preprocessor,
    stratified_split,
)

FAST_ATTN = TrainConfig(k=8, epochs=3, batch_size=64, seed=0)
FAST_BOOST = BoostConfig(n_estimators=25, max_depth=3, min_child_weight=0.5,
                         gamma=0.0, seed=42)


def _per_cell_synthetic_rows(spec):
    """The generator's draws, with each row built cell by cell from numpy scalars."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    day_span = (DATE_RANGE[1] - DATE_RANGE[0]).days
    dates = [DATE_RANGE[0] + dt.timedelta(days=int(o)) for o in rng.integers(0, day_span + 1, n)]
    ship_idx = rng.integers(0, len(SHIP_MODES), n)
    seg_idx = rng.integers(0, len(SEGMENTS), n)
    region_idx = rng.integers(0, len(REGIONS), n)
    sales = rng.lognormal(4.0, 1.0, n)
    quantity = rng.integers(1, 15, n)
    discount = rng.uniform(0.0, 0.8, n)
    profit = rng.normal(25.0, 50.0, n)
    numeric = {"Sales": sales, "Quantity": quantity.astype(float),
               "Discount": discount, "Profit": profit}
    cat_idx = {"Ship Mode": ship_idx, "Segment": seg_idx, "Region": region_idx}
    levels = {"Ship Mode": SHIP_MODES, "Segment": SEGMENTS, "Region": REGIONS}
    logit = np.full(n, spec.intercept)
    for name, coef in spec.coefficients.items():
        if coef == 0.0:
            continue
        if name in numeric:
            col = numeric[name]
            logit += coef * (col - col.mean()) / max(float(col.std()), 1e-12)
        else:
            logit += coef * (-1.0 + 2.0 * cat_idx[name] / (len(levels[name]) - 1))
    if spec.noise_sd > 0:
        logit += rng.normal(0.0, spec.noise_sd, n)
    labels = rng.uniform(size=n) < reference_sigmoid(logit)
    return [[dates[i], SHIP_MODES[ship_idx[i]], SEGMENTS[seg_idx[i]], REGIONS[region_idx[i]],
             "Yes" if labels[i] else "Not", float(sales[i]), int(quantity[i]),
             float(discount[i]), float(profit[i])] for i in range(n)]


class TestGenerateSynthetic:
    def test_discount_only_signal_is_recoverable(self):
        spec = SyntheticSpec(n_rows=2000, seed=5, noise_sd=0.0,
                             coefficients={"Discount": 3.0})
        table = generate_synthetic(spec)
        j = table.column_index("Discount")
        target = table.column_index("Returned")
        discount = np.array([row[j] for row in table.rows])
        y = np.array([1 if row[target] != "Not" else 0 for row in table.rows])
        assert auc(discount, y) > 0.9

    def test_deterministic(self):
        spec = SyntheticSpec(n_rows=120, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.rows == b.rows

    def test_no_signal_base_rate_is_half(self):
        spec = SyntheticSpec(n_rows=2000, seed=3, noise_sd=0.0,
                             coefficients={}, intercept=0.0)
        table = generate_synthetic(spec)
        target = table.column_index("Returned")
        rate = np.mean([1 if row[target] != "Not" else 0 for row in table.rows])
        assert abs(rate - 0.5) <= 0.05

    @pytest.mark.parametrize("seed", [11, 501])
    def test_rows_match_per_cell_reference(self, seed):
        spec = SyntheticSpec(n_rows=700, seed=seed, coefficients={"Discount": 2.0, "Region": 0.5})
        rows = generate_synthetic(spec).rows
        expected = _per_cell_synthetic_rows(spec)
        assert rows == expected
        assert [[type(cell) for cell in row] for row in rows] == \
            [[type(cell) for cell in row] for row in expected]

    def test_unknown_coefficient_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SyntheticSpec(coefficients={"Postal Code": 1.0})

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_rows=5)

    def test_table_survives_preprocessing(self):
        table = generate_synthetic(SyntheticSpec(n_rows=100, seed=1))
        state = fit_preprocessor(table, [])
        X, y = apply_preprocessor(state, table)
        assert X.n_rows == 100
        assert np.isfinite(X.values).all()
        assert set(np.unique(y)) == {0, 1}


@pytest.fixture(scope="module")
def ablation_result():
    return run_ablation(
        SyntheticSpec(n_rows=1200, seed=42),
        attention_config=FAST_ATTN,
        boost_config=FAST_BOOST,
    )


class TestRunAblation:
    def test_exactly_seven_conditions(self, ablation_result):
        names = [name for name, _ in ablation_result.rows]
        assert names == ["full", "no_attention", "manual_weights", "random_attention",
                         "frozen_attention", "shallow_attention", "equal_weight"]

    def test_all_conditions_share_one_split(self, ablation_result):
        table = generate_synthetic(SyntheticSpec(n_rows=1200, seed=42))
        state = fit_preprocessor(table, [])
        X, y = apply_preprocessor(state, table)
        split = stratified_split(X, y, 0.8, 42)
        np.testing.assert_array_equal(ablation_result.test_indices, split.test_indices)

    def test_rerun_reproduces_metrics_bit_exactly(self, ablation_result):
        again = run_ablation(
            SyntheticSpec(n_rows=1200, seed=42),
            attention_config=FAST_ATTN,
            boost_config=FAST_BOOST,
        )
        assert again.fingerprint == ablation_result.fingerprint
        assert result_to_csv(again) == result_to_csv(ablation_result)
        for (_, a), (_, b) in zip(again.rows, ablation_result.rows):
            assert a.precision == b.precision
            assert a.auc == b.auc

    def test_csv_round_trip(self, ablation_result):
        text = result_to_csv(ablation_result)
        parsed = result_from_csv(text)
        assert result_to_csv(parsed) == text
        assert parsed.fingerprint == ablation_result.fingerprint
        assert parsed.seeds == ablation_result.seeds

    def test_seeds_recorded(self, ablation_result):
        assert ablation_result.seeds == {"attention": 0, "boost": 42, "split": 42}


class TestRandomAttentionImportance:
    def test_no_single_random_column_matters(self):
        from attnboost.fusion import fit_variant
        from attnboost.importance import gain_importance

        table = generate_synthetic(SyntheticSpec(n_rows=2000, seed=42))
        state = fit_preprocessor(table, [])
        X, y = apply_preprocessor(state, table)
        split = stratified_split(X, y, 0.8, 42)
        from attnboost.experiments import desk_scale_boost_config

        model = fit_variant("random_attention", split.X_train, split.y_train,
                            TrainConfig(k=32, epochs=1, seed=0),
                            desk_scale_boost_config())
        table_imp = gain_importance(model.ensemble)
        shares = {e.feature: e.share for e in table_imp.entries}
        random_shares = [s for name, s in shares.items() if name.startswith("attn_")]
        # each injected noise column stays marginal and far below the planted signal
        assert max(random_shares) < 0.05
        assert shares["Discount"] > max(random_shares)


class TestRunFeatureRemoval:
    def test_rows_and_full_model_baseline(self):
        result = run_feature_removal(
            ["Discount", "Quantity"],
            SyntheticSpec(n_rows=600, seed=7),
            attention_config=FAST_ATTN,
            boost_config=FAST_BOOST,
        )
        names = [name for name, _ in result.rows]
        assert names == ["Discount Removed", "Quantity Removed", "None (Full Model)"]

    def test_default_removal_features(self):
        from attnboost.experiments import REMOVAL_FEATURES

        assert REMOVAL_FEATURES == ["Discount", "Sales", "Profit"]

    def test_unknown_feature_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            run_feature_removal(["Nope"], SyntheticSpec(n_rows=100, seed=1),
                                attention_config=FAST_ATTN, boost_config=FAST_BOOST)


def _separable(n=300, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    values = np.vstack([
        rng.normal([-2.0, 1.0], 0.4, (half, 2)),
        rng.normal([2.0, -1.0], 0.4, (n - half, 2)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    X = FeatureMatrix(values=values, feature_names=["a", "b"])
    split = stratified_split(X, y, 0.8, seed=1)
    return split


class TestBaselineLogistic:
    def test_separable_data_high_accuracy(self):
        split = _separable()
        report = baseline_logistic(split.X_train, split.y_train,
                                   split.X_test, split.y_test)
        assert report.accuracy >= 0.99

    def test_deterministic(self):
        split = _separable(seed=3)
        a = baseline_logistic(split.X_train, split.y_train, split.X_test, split.y_test)
        b = baseline_logistic(split.X_train, split.y_train, split.X_test, split.y_test)
        assert a.precision == b.precision
        assert a.auc == b.auc

    def test_zero_iterations_predicts_half(self):
        split = _separable(seed=4)
        report = baseline_logistic(split.X_train, split.y_train,
                                   split.X_test, split.y_test,
                                   LogisticConfig(iterations=0))
        # all scores exactly 0.5 -> every row predicted positive at >= 0.5
        assert report.counts.tp + report.counts.fp == split.y_test.shape[0]
        assert report.auc == 0.5

    def test_single_class_rejected(self):
        split = _separable(seed=5)
        with pytest.raises(DataError):
            baseline_logistic(split.X_train, np.zeros_like(split.y_train),
                              split.X_test, split.y_test)


class TestBaselineStump:
    def test_perfect_feature_training_accuracy(self):
        rng = np.random.default_rng(6)
        values = np.concatenate([rng.uniform(0, 1, 40), rng.uniform(2, 3, 40)])
        y = np.array([0] * 40 + [1] * 40)
        X = FeatureMatrix(values=values.reshape(-1, 1), feature_names=["f"])
        report = baseline_stump(X, y, X, y)
        assert report.accuracy == 1.0

    def test_constant_features_predict_majority(self):
        X = FeatureMatrix(values=np.ones((50, 2)), feature_names=["a", "b"])
        y = np.array([1] * 30 + [0] * 20)
        report = baseline_stump(X, y, X, y)
        assert report.accuracy == pytest.approx(0.6)
        assert report.counts.tp == 30 and report.counts.fp == 20

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = FeatureMatrix(values=rng.normal(0, 1, (60, 2)), feature_names=["a", "b"])
        y = (X.values[:, 0] > 0).astype(int)
        a = baseline_stump(X, y, X, y)
        b = baseline_stump(X, y, X, y)
        assert a.f1 == b.f1 and a.auc == b.auc
