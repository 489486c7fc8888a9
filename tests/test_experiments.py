"""Tests for the synthetic generator, the ablation and the feature removal."""

import datetime as dt
from collections import Counter

import numpy as np
import pytest

from attention_reference import reference_sigmoid
from attnboost import experiments, fusion
from attnboost.attention import TrainConfig
from attnboost.errors import DataError
from attnboost.experiments import (
    DATE_RANGE,
    REGIONS,
    SEGMENTS,
    SHIP_MODES,
    SyntheticSpec,
    generate_synthetic,
    result_to_csv,
    run_ablation,
    run_feature_removal,
)
from attnboost.gbdt import BoostConfig
from attnboost.metrics import auc
from attnboost.tabular import (
    ColumnSchema,
    RawTable,
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
        generate_synthetic(SyntheticSpec(n_rows=1200, seed=42)),
        attention_config=FAST_ATTN,
        boost_config=FAST_BOOST,
    )


class TestRunAblation:
    def test_exactly_five_conditions(self, ablation_result):
        names = [name for name, _ in ablation_result.rows]
        assert names == ["full", "no_attention", "random_attention", "frozen_attention",
                         "shallow_attention"]

    def test_all_conditions_share_one_split(self, ablation_result):
        table = generate_synthetic(SyntheticSpec(n_rows=1200, seed=42))
        state = fit_preprocessor(table, [])
        X, y = apply_preprocessor(state, table)
        split = stratified_split(X, y, 0.8, 42)
        np.testing.assert_array_equal(ablation_result.test_indices, split.test_indices)

    def test_rerun_reproduces_metrics_bit_exactly(self, ablation_result):
        again = run_ablation(
            generate_synthetic(SyntheticSpec(n_rows=1200, seed=42)),
            attention_config=FAST_ATTN,
            boost_config=FAST_BOOST,
        )
        assert again.fingerprint == ablation_result.fingerprint
        assert result_to_csv(again) == result_to_csv(ablation_result)
        for (_, a), (_, b) in zip(again.rows, ablation_result.rows):
            assert a.precision == b.precision
            assert a.auc == b.auc

    def test_seeds_recorded(self, ablation_result):
        assert ablation_result.seeds == {"attention": 0, "boost": 42, "split": 42}

    def test_fingerprint_is_pinned(self, ablation_result):
        # a changed, added or dropped fingerprint key changes every CSV's header
        assert ablation_result.fingerprint == \
            "07725ded47a85e5d30e610ff6e3d31a050734b224ab519f319c1572764554b5d"


class TestFingerprintIdentifiesTheRun:
    """Runs on different data, or with different dropped columns, never share a
    fingerprint. Fitting and scoring are stubbed out: the fingerprint reads neither."""

    @pytest.fixture(autouse=True)
    def _no_fits(self, monkeypatch):
        monkeypatch.setattr("attnboost.fusion.fit_variant", lambda *a, **k: None)
        monkeypatch.setattr("attnboost.fusion.predict_matrix", lambda *a, **k: (None, None))
        monkeypatch.setattr("attnboost.experiments.evaluate_scores", lambda *a, **k: None)

    @staticmethod
    def _ablation(rows, **kwargs):
        return run_ablation(generate_synthetic(SyntheticSpec(n_rows=rows, seed=3)),
                            attention_config=FAST_ATTN, boost_config=FAST_BOOST,
                            **kwargs).fingerprint

    @staticmethod
    def _removal(rows, **kwargs):
        return run_feature_removal(["Discount"],
                                   generate_synthetic(SyntheticSpec(n_rows=rows, seed=3)),
                                   attention_config=FAST_ATTN, boost_config=FAST_BOOST,
                                   **kwargs).fingerprint

    def test_table_size_changes_both_fingerprints(self):
        assert self._ablation(300) != self._ablation(600)
        assert self._removal(300) != self._removal(600)

    def test_same_table_gives_the_same_fingerprint(self):
        assert self._ablation(300) == self._ablation(300)
        assert self._removal(300) == self._removal(300)

    def test_dropped_columns_change_the_removal_fingerprint(self):
        assert self._removal(300) != self._removal(300, drop=["Region"])
        assert self._ablation(300) != self._ablation(300, drop=["Region"])


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


@pytest.fixture(scope="module")
def removal_result():
    return run_feature_removal(
        ["Discount", "Quantity"],
        generate_synthetic(SyntheticSpec(n_rows=600, seed=7)),
        attention_config=FAST_ATTN,
        boost_config=FAST_BOOST,
    )


class TestRunFeatureRemoval:
    def test_rows_and_full_model_baseline(self, removal_result):
        names = [name for name, _ in removal_result.rows]
        assert names == ["Discount Removed", "Quantity Removed", "None (Full Model)"]

    def test_fingerprint_and_seeds_are_pinned(self, removal_result):
        assert removal_result.fingerprint == \
            "46514a5059fb21f61b70b1a2a9abd015f91b517c1d6db294fd83b7301afadb5b"
        assert removal_result.seeds == {"attention": 0, "boost": 42, "split": 42}

    def test_full_model_row_uses_the_intact_split(self, removal_result):
        table = generate_synthetic(SyntheticSpec(n_rows=600, seed=7))
        X, y = apply_preprocessor(fit_preprocessor(table, []), table)
        split = stratified_split(X, y, 0.8, 42)
        np.testing.assert_array_equal(removal_result.test_indices, split.test_indices)

    def test_removed_row_equals_the_intact_run_of_the_table_built_without_it(self,
                                                                            removal_result):
        # the preprocessor's drop list removes the column, as if the table never had it
        table = generate_synthetic(SyntheticSpec(n_rows=600, seed=7))
        j = table.column_index("Quantity")
        without = RawTable(schema=table.schema[:j] + table.schema[j + 1:],
                           rows=[row[:j] + row[j + 1:] for row in table.rows])
        (_, report), = run_feature_removal([], without, attention_config=FAST_ATTN,
                                           boost_config=FAST_BOOST).rows
        assert removal_result.rows[1] == ("Quantity Removed", report)

    def test_default_removal_features(self):
        from attnboost.experiments import REMOVAL_FEATURES

        assert REMOVAL_FEATURES == ["Discount", "Sales", "Profit"]

    def test_unknown_feature_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            run_feature_removal(["Nope"], generate_synthetic(SyntheticSpec(n_rows=100, seed=1)),
                                attention_config=FAST_ATTN, boost_config=FAST_BOOST)

    @pytest.mark.parametrize("drop", [["Discount"], ["Region", "Discount"]])
    def test_removed_feature_in_the_drop_list_rejected_before_any_fit(self, drop,
                                                                      monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the drop list was checked")

        monkeypatch.setattr("attnboost.fusion.fit_variant", no_fit)
        with pytest.raises(DataError, match="feature 'Discount' is also in the drop list"):
            run_feature_removal(["Sales", "Discount"],
                                generate_synthetic(SyntheticSpec(n_rows=100, seed=1)),
                                attention_config=FAST_ATTN, boost_config=FAST_BOOST, drop=drop)

    def test_removing_an_identifier_the_default_drop_list_drops_rejected(self, monkeypatch):
        # drop=None drops the table's identifier columns, so removing one would refit
        # the intact table under another label
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the drop list was checked")

        monkeypatch.setattr("attnboost.fusion.fit_variant", no_fit)
        table = generate_synthetic(SyntheticSpec(n_rows=100, seed=1))
        with_ids = RawTable(schema=[ColumnSchema("Row ID", "integer"), *table.schema],
                            rows=[[i + 1, *row] for i, row in enumerate(table.rows)])
        with pytest.raises(DataError, match="feature 'Row ID' is also in the drop list"):
            run_feature_removal(["Row ID"], with_ids, attention_config=FAST_ATTN,
                                boost_config=FAST_BOOST)

    @pytest.mark.parametrize("features, message", [
        (["Returned"], "cannot remove the target column 'Returned'"),
        (["Sales", "Discount", "Sales"], "feature 'Sales' is named more than once"),
    ])
    def test_target_or_repeated_feature_rejected_before_any_fit(self, features, message,
                                                                monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the feature list was checked")

        monkeypatch.setattr("attnboost.fusion.fit_variant", no_fit)
        with pytest.raises(DataError, match=message):
            run_feature_removal(features, generate_synthetic(SyntheticSpec(n_rows=100, seed=1)),
                                attention_config=FAST_ATTN, boost_config=FAST_BOOST)


def _count_calls(monkeypatch, module, name: str, counts: Counter) -> None:
    """Wrap `module.name` so that each call adds one to counts[name]."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestEachConditionIsFittedOnce:
    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = Counter()
        _count_calls(monkeypatch, fusion, "fit_variant", counts)
        _count_calls(monkeypatch, experiments, "fit_preprocessor", counts)
        return counts

    def test_ablation_prepares_the_table_once_and_fits_each_variant(self, calls):
        run_ablation(generate_synthetic(SyntheticSpec(n_rows=200, seed=4)),
                     attention_config=FAST_ATTN, boost_config=FAST_BOOST)
        assert calls == {"fit_variant": 5, "fit_preprocessor": 1}

    def test_removal_prepares_and_fits_each_table_once(self, calls):
        run_feature_removal(["Discount", "Quantity"],
                            generate_synthetic(SyntheticSpec(n_rows=200, seed=4)),
                            attention_config=FAST_ATTN, boost_config=FAST_BOOST)
        assert calls == {"fit_variant": 3, "fit_preprocessor": 3}
