"""Tests for CSV loading, preprocessing, date decomposition, and splitting."""

import datetime as dt

import numpy as np
import pytest
from tabular_reference import reference_apply

from attnboost.errors import DataError
from attnboost.experiments import SyntheticSpec, generate_synthetic
from attnboost.tabular import (
    RETAIL_IDENTIFIER_COLUMNS,
    ColumnSchema,
    FeatureMatrix,
    RawTable,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    retail_schema,
    stratified_split,
)

RETAIL_HEADER = ",".join(f'"{c.name}"' for c in retail_schema())

SAMPLE_ROW = (
    '2430,CA-2017-100748,2017-05-13,2017-05-20,Standard Class,RB-19795,Ross Baird,'
    'Home Office,United States,San Francisco,California,94122,West,Anna Andreadi,'
    'OFF-LA-10000240,Office Supplies,Labels,'
    '"Self-Adhesive Address Labels for Typewriters by Universal",Not,58.48,8,0.0,27.4856'
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def sakamoto_weekday(year: int, month: int, day: int) -> int:
    """Independent day-of-week oracle (Sakamoto), shifted so Monday=0."""
    offsets = [0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4]
    if month < 3:
        year -= 1
    sunday_based = (year + year // 4 - year // 100 + year // 400
                    + offsets[month - 1] + day) % 7
    return (sunday_based + 6) % 7


class TestLoadCsv:
    def test_sample_row_parses_typed(self, tmp_path):
        table = load_csv(_write(tmp_path, RETAIL_HEADER + "\n" + SAMPLE_ROW + "\n"),
                         retail_schema())
        assert table.row_count == 1
        row = table.rows[0]
        names = [c.name for c in table.schema]
        assert row[names.index("Order ID")] == "CA-2017-100748"
        assert row[names.index("Order Date")] == dt.date(2017, 5, 13)
        assert row[names.index("Sales")] == 58.48
        assert row[names.index("Quantity")] == 8
        assert row[names.index("Discount")] == 0.0
        assert row[names.index("Profit")] == 27.4856
        assert row[names.index("Returned")] == "Not"

    def test_header_only_file_gives_zero_rows(self, tmp_path):
        table = load_csv(_write(tmp_path, RETAIL_HEADER + "\n"), retail_schema())
        assert table.row_count == 0

    def test_short_row_names_the_row(self, tmp_path):
        short = SAMPLE_ROW.rsplit(",", 1)[0]  # 22 cells
        text = RETAIL_HEADER + "\n" + SAMPLE_ROW + "\n" + short + "\n"
        with pytest.raises(DataError, match="row 2"):
            load_csv(_write(tmp_path, text), retail_schema())

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            load_csv("/no/such/file.csv", retail_schema())

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_csv(_write(tmp_path, "a,b,c\n1,2,3\n"), retail_schema())

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        bad = SAMPLE_ROW.replace("58.48", "not-a-number")
        with pytest.raises(DataError, match=r"row 1.*Sales"):
            load_csv(_write(tmp_path, RETAIL_HEADER + "\n" + bad + "\n"), retail_schema())

    def test_integer_too_large_for_a_float_names_row_and_column(self, tmp_path):
        bad = SAMPLE_ROW.replace(",58.48,8,", ",58.48," + "9" * 400 + ",")
        text = RETAIL_HEADER + "\n" + SAMPLE_ROW + "\n" + bad + "\n"
        with pytest.raises(DataError, match=r"row 2, column 'Quantity': .* too large"):
            load_csv(_write(tmp_path, text), retail_schema())

    def test_header_in_any_order(self, tmp_path):
        schema = [
            ColumnSchema("A", "float"),
            ColumnSchema("B", "category"),
            ColumnSchema("Y", "binary-target"),
        ]
        table = load_csv(_write(tmp_path, "B,Y,A\nx,Not,1.5\n"), schema)
        assert table.rows[0] == [1.5, "x", "Not"]

    def test_subset_header_keeps_schema_order(self, tmp_path):
        table = load_csv(_write(tmp_path, "Profit,Region,Returned\n1.5,West,Not\n"),
                         retail_schema())
        assert [c.name for c in table.schema] == ["Region", "Returned", "Profit"]
        assert table.rows == [["West", "Not", 1.5]]

    def test_column_outside_schema_is_named(self, tmp_path):
        with pytest.raises(DataError, match="'Colour' is not in the schema"):
            load_csv(_write(tmp_path, "Region,Colour\nWest,red\n"), retail_schema())

    def test_duplicated_header_name_is_named(self, tmp_path):
        with pytest.raises(DataError, match="'Region' appears twice"):
            load_csv(_write(tmp_path, "Region,Sales,Region\nWest,1.0,East\n"), retail_schema())


def _toy_table():
    schema = [
        ColumnSchema("Region", "category"),
        ColumnSchema("Value", "float"),
        ColumnSchema("When", "date"),
        ColumnSchema("Label", "binary-target"),
    ]
    rows = [
        ["West", 1.0, dt.date(2017, 5, 13), "Not"],
        ["East", 2.0, dt.date(1970, 1, 1), "Yes"],
        ["West", 3.0, dt.date(2020, 2, 29), "Not"],
    ]
    return RawTable(schema=schema, rows=rows)


class TestFitPreprocessor:
    def test_lexicographic_category_codes(self):
        state = fit_preprocessor(_toy_table(), [])
        assert state.category_maps["Region"] == {"East": 0, "West": 1}

    def test_numeric_population_stats(self):
        state = fit_preprocessor(_toy_table(), [])
        mean, std = state.numeric_stats["Value"]
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(0.816497, abs=1e-6)

    def test_identifier_drop_excluded_from_features(self, tmp_path):
        table = load_csv(_write(tmp_path, RETAIL_HEADER + "\n" + SAMPLE_ROW + "\n"),
                         retail_schema())
        state = fit_preprocessor(table, RETAIL_IDENTIFIER_COLUMNS)
        for name in RETAIL_IDENTIFIER_COLUMNS:
            assert name not in state.feature_names
        assert state.dropped_columns == RETAIL_IDENTIFIER_COLUMNS

    def test_drop_target_rejected(self):
        with pytest.raises(DataError, match="target"):
            fit_preprocessor(_toy_table(), ["Label"])

    @pytest.mark.parametrize("values", [[1.7e308, 1.7e308, 0.0],  # the mean overflows
                                        [1e200, -1e200, 0.0]])  # the deviation does
    def test_numeric_column_with_non_finite_stats_is_named(self, values):
        table = _toy_table()
        for row, value in zip(table.rows, values):
            row[1] = value
        with pytest.raises(DataError, match="numeric column 'Value'.* not finite"):
            fit_preprocessor(table, [])

    def test_unknown_drop_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            fit_preprocessor(_toy_table(), ["Nope"])

    def test_integer_too_large_for_a_float_names_row_and_column(self):
        table = _toy_table()
        table.rows[0][1] = None  # a skipped null still counts as a row
        table.rows[1][1] = 10**400
        with pytest.raises(DataError, match=r"row 2, column 'Value': integer value is too "
                                            r"large for a float"):
            fit_preprocessor(table, [])


class TestApplyPreprocessor:
    def test_z_score_value(self):
        state = fit_preprocessor(_toy_table(), [])
        X, y = apply_preprocessor(state, _toy_table())
        value_col = X.values[:, X.feature_names.index("Value")]
        assert value_col[0] == pytest.approx(-1.224745, abs=1e-6)
        assert y.tolist() == [0, 1, 0]

    def test_unseen_category_gets_reserved_code(self):
        state = fit_preprocessor(_toy_table(), [])
        other = _toy_table()
        other.rows[0][0] = "Central-NEW"
        X, _ = apply_preprocessor(state, other)
        region = X.values[:, X.feature_names.index("Region")]
        assert region[0] == len(state.category_maps["Region"]) == 2

    def test_retail_width_is_19(self, tmp_path):
        # 23 columns - 7 identifiers - 1 target - 2 raw dates + 6 derived = 19
        rows = "\n".join(SAMPLE_ROW for _ in range(5))
        table = load_csv(_write(tmp_path, RETAIL_HEADER + "\n" + rows + "\n"),
                         retail_schema())
        state = fit_preprocessor(table, RETAIL_IDENTIFIER_COLUMNS)
        X, y = apply_preprocessor(state, table)
        expected = len(retail_schema()) - len(RETAIL_IDENTIFIER_COLUMNS) - 1 - 2 + 6
        assert expected == 19
        assert X.d == 19
        assert len(X.feature_names) == 19
        assert y.shape == (5,)

    def test_date_columns_become_raw_integer_triples(self):
        state = fit_preprocessor(_toy_table(), [])
        X, _ = apply_preprocessor(state, _toy_table())
        year = X.values[:, X.feature_names.index("When_year")]
        month = X.values[:, X.feature_names.index("When_month")]
        weekday = X.values[:, X.feature_names.index("When_weekday")]
        assert year.tolist() == [2017.0, 1970.0, 2020.0]
        assert month.tolist() == [5.0, 1.0, 2.0]
        assert weekday.tolist() == [5.0, 3.0, 5.0]

    def test_target_outside_vocabulary_rejected(self):
        state = fit_preprocessor(_toy_table(), [])
        other = _toy_table()
        other.rows[2][3] = "Maybe"
        with pytest.raises(DataError, match="vocabulary"):
            apply_preprocessor(state, other)

    @pytest.mark.parametrize("cell,message", [
        ((0, 3, "Maybe"), r"row 1, column 'Label': target value 'Maybe' outside vocabulary"),
        ((1, 3, None), r"row 2, column 'Label': null target"),
        ((2, 1, None), r"row 3, column 'Value': null in numeric column"),
        ((0, 2, None), r"row 1, column 'When': null in date column"),
        ((1, 0, None), r"row 2, column 'Region': null in non-nullable column"),
        ((1, 1, 10**400), r"row 2, column 'Value': integer value is too large for a float"),
        ((0, 1, "abc"), r"row 1, column 'Value': 'abc' is not a number"),
        ((2, 2, "2017-13-01"), r"row 3, column 'When': '2017-13-01' is not a valid calendar"),
    ])
    def test_errors_name_row_from_one_and_column(self, cell, message):
        state = fit_preprocessor(_toy_table(), [])
        other = _toy_table()
        i, j, value = cell
        other.rows[i][j] = value
        with pytest.raises(DataError, match=message):
            apply_preprocessor(state, other)

    def test_non_finite_transformed_value_names_row_and_feature(self):
        state = fit_preprocessor(_toy_table(), [])
        other = _toy_table()
        other.rows[1][1] = -1.7e308  # finite, but (v - mean) / std is not
        with pytest.raises(DataError, match=r"row 2, feature 'Value': .* not finite"):
            apply_preprocessor(state, other)

    def test_schema_mismatch_rejected(self):
        state = fit_preprocessor(_toy_table(), [])
        other = _toy_table()
        other.schema = list(reversed(other.schema))
        other.rows = [list(reversed(r)) for r in other.rows]
        with pytest.raises(DataError, match="schema"):
            apply_preprocessor(state, other)

    def test_null_in_non_nullable_rejected(self):
        state = fit_preprocessor(_toy_table(), [])
        other = _toy_table()
        other.rows[1][0] = None
        with pytest.raises(DataError, match="null"):
            apply_preprocessor(state, other)

    def test_fit_table_round_trip_standardizes(self):
        rng = np.random.default_rng(7)
        schema = [ColumnSchema("V", "float"), ColumnSchema("Y", "binary-target")]
        rows = [[float(v), "Yes" if i % 2 else "Not"]
                for i, v in enumerate(rng.normal(10, 3, 500))]
        table = RawTable(schema=schema, rows=rows)
        state = fit_preprocessor(table, [])
        X, _ = apply_preprocessor(state, table)
        col = X.values[:, 0]
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9

    def test_no_nan_inf_in_output(self):
        # constant column exercises the epsilon std floor
        schema = [ColumnSchema("C", "float"), ColumnSchema("Y", "binary-target")]
        rows = [[5.0, "Not"], [5.0, "Yes"], [5.0, "Not"]]
        table = RawTable(schema=schema, rows=rows)
        state = fit_preprocessor(table, [])
        X, _ = apply_preprocessor(state, table)
        assert np.isfinite(X.values).all()

    def test_category_codes_bijective(self):
        rng = np.random.default_rng(11)
        values = [f"cat{int(v)}" for v in rng.integers(0, 30, 200)]
        schema = [ColumnSchema("C", "category"), ColumnSchema("Y", "binary-target")]
        rows = [[v, "Not" if i % 2 else "Yes"] for i, v in enumerate(values)]
        state = fit_preprocessor(RawTable(schema=schema, rows=rows), [])
        cmap = state.category_maps["C"]
        codes = sorted(cmap.values())
        assert codes == list(range(len(cmap)))
        decoded = {code: value for value, code in cmap.items()}
        assert all(cmap[decoded[c]] == c for c in codes)


def _outcome(apply, state, table):
    """What `apply` returns, as comparable bytes, or the type and message it raises."""
    try:
        X, y = apply(state, table)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return ("raised", type(exc), str(exc))
    return (X.values.shape, X.values.dtype, X.values.tobytes(), X.feature_names,
            None if y is None else (y.dtype, y.tobytes()))


def _without(table, name):
    """The table's schema and rows without the named column."""
    j = table.column_index(name)
    return RawTable(schema=table.schema[:j] + table.schema[j + 1:],
                    rows=[row[:j] + row[j + 1:] for row in table.rows])


def assert_matches_reference(state, table):
    got = _outcome(apply_preprocessor, state, table)
    assert got == _outcome(reference_apply, state, table)
    return got


def _mixed_table():
    """Every column kind, a nullable category, ISO-string and datetime dates, bool numerics."""
    schema = [
        ColumnSchema("Mode", "category", nullable=True),
        ColumnSchema("Code", "string"),
        ColumnSchema("Qty", "integer"),
        ColumnSchema("When", "date"),
        ColumnSchema("Label", "binary-target"),
        ColumnSchema("Price", "float"),
    ]
    rows = [
        ["Air", "c1", 3, dt.date(2016, 12, 31), "Not", 2.5],
        [None, "c2", True, "2017-01-01", "Yes", 7],
        ["Sea", "c3", False, dt.datetime(2015, 6, 30, 23, 59), "Not", -1.25],
        ["Air", "c1", 12, "2020-02-29", "Yes", 0.0],
        ["Rail", "c4", -4, dt.date(1999, 12, 31), "Not", 1e-3],
    ]
    return RawTable(schema=schema, rows=rows)


class TestColumnwiseEncoderMatchesReference:
    """apply_preprocessor against the per-cell encoder of tests/tabular_reference.py."""

    @pytest.mark.parametrize("fit_seed, apply_seed", [(1, 1), (1, 2), (3, 4)])
    def test_synthetic_tables_with_and_without_target(self, fit_seed, apply_seed):
        state = fit_preprocessor(generate_synthetic(SyntheticSpec(n_rows=300, seed=fit_seed)), [])
        table = generate_synthetic(SyntheticSpec(n_rows=250, seed=apply_seed))
        for drop in ([], ["Region"]):
            dropped_state = fit_preprocessor(
                generate_synthetic(SyntheticSpec(n_rows=300, seed=fit_seed)), drop)
            assert assert_matches_reference(dropped_state, table)[0] != "raised"
        unlabeled = _without(table, "Returned")
        outcome = assert_matches_reference(state, unlabeled)
        assert outcome[0] == (250, 10) and outcome[-1] is None

    def test_hand_made_table_with_nulls_unseen_values_and_year_boundaries(self):
        table = _mixed_table()
        state = fit_preprocessor(table, [])
        assert assert_matches_reference(state, table)[0] == (5, 7)
        other = _mixed_table()
        other.rows[0][0] = "Truck"  # unseen category
        other.rows[2][1] = 17  # unseen, and not a str
        other.rows[1][3] = "2018-12-31"
        other.rows[3][3] = dt.date(2019, 1, 1)
        other.rows[4][5] = np.float64(3.75)
        outcome = assert_matches_reference(state, other)
        assert outcome[0] == (5, 7)
        matrix = np.frombuffer(outcome[2]).reshape(5, 7)
        assert matrix[0, 0] == len(state.category_maps["Mode"])
        assert matrix[1, 0] == state.category_maps["Mode"]["<NULL>"]

    def test_zero_rows(self):
        state = fit_preprocessor(_mixed_table(), [])
        empty = RawTable(schema=_mixed_table().schema, rows=[])
        outcome = assert_matches_reference(state, empty)
        assert outcome[0] == (0, 7) and outcome[-1][1] == b""

    def test_dropped_columns_and_the_result_is_c_ordered(self):
        state = fit_preprocessor(_mixed_table(), ["Code", "When"])
        assert assert_matches_reference(state, _mixed_table())[0] == (5, 3)
        X, _ = apply_preprocessor(state, _mixed_table())
        assert X.values.flags.c_contiguous

    @pytest.mark.parametrize("cells", [
        [(1, 4, None)],  # null target
        [(3, 4, "Maybe")],  # target outside the vocabulary
        [(2, 1, None)],  # null in a non-nullable string column
        [(0, 2, None)],  # null numeric
        [(4, 5, "abc")],  # not a number
        [(1, 2, 10**400)],  # too large for a float
        [(2, 2, [1])],  # not a number at all
        [(3, 3, None)],  # null date
        [(0, 3, "2017-13-01")],  # not a calendar date
        [(0, 3, "13/01/2017")],  # not YYYY-MM-DD
        [(2, 5, float("nan"))],  # a transformed value that is not finite
        [(4, 5, float("-inf"))],
        [(1, 5, "inf")],  # float() reads it
        [(3, 2, "abc"), (1, 2, None)],  # first bad row of a column wins
        [(1, 2, 10**400), (3, 2, None)],
        [(4, 1, None), (0, 2, None)],  # first bad column wins over an earlier row
        [(4, 3, None), (0, 4, "Maybe")],
        [(3, 4, None), (1, 4, "Maybe")],
        [(2, 5, "x"), (4, 3, "2017-02-30")],
    ])
    def test_bad_cells_raise_the_same_first_error(self, cells):
        state = fit_preprocessor(_mixed_table(), [])
        other = _mixed_table()
        for i, j, value in cells:
            other.rows[i][j] = value
        outcome = assert_matches_reference(state, other)
        assert outcome[0] == "raised" and outcome[1] is DataError

    def test_schema_mismatches_raise_the_same_error(self):
        state = fit_preprocessor(_mixed_table(), [])
        for table in (_without(_mixed_table(), "Qty"),
                      RawTable(schema=list(reversed(_mixed_table().schema)), rows=[])):
            outcome = assert_matches_reference(state, table)
            assert outcome[0] == "raised" and "schema" in outcome[2]

    def test_a_short_row_is_an_error_not_a_dropped_column(self):
        # columns are read with zip(*rows), which stops at the shortest row
        state = fit_preprocessor(_mixed_table(), [])
        short = _mixed_table()
        short.rows[3] = short.rows[3][:4]
        with pytest.raises(ValueError, match="shorter"):
            fit_preprocessor(short, [])
        with pytest.raises(ValueError, match="shorter"):
            apply_preprocessor(state, short)


def date_parts(cells) -> list[tuple[int, int, int]]:
    """apply_preprocessor's (year, month, weekday) columns for a table of date cells."""
    schema = [ColumnSchema("Order Date", "date"), ColumnSchema("Returned", "binary-target")]
    fitted = fit_preprocessor(RawTable(schema, [[dt.date(2017, 1, 1), "Not"]]), [])
    X, _ = apply_preprocessor(fitted, RawTable(schema, [[cell, "Not"] for cell in cells]))
    assert X.feature_names == ["Order Date_year", "Order Date_month", "Order Date_weekday"]
    return [tuple(int(v) for v in row) for row in X.values]


class TestDateColumns:
    def test_against_independent_calendar_oracle(self):
        rng = np.random.default_rng(5)
        base = dt.date(1953, 1, 1)
        days = [base + dt.timedelta(days=int(o)) for o in rng.integers(0, 60000, size=300)]
        # date cells as loaded, and as ISO text in a table built in code
        for cells in (days, [day.isoformat() for day in days]):
            for day, (year, month, weekday) in zip(days, date_parts(cells), strict=True):
                assert (year, month) == (day.year, day.month)
                assert weekday == sakamoto_weekday(day.year, day.month, day.day)

    def test_known_anchors(self):
        # a Saturday, and the epoch's Thursday
        assert date_parts(["2017-05-13", "1970-01-01"]) == [(2017, 5, 5), (1970, 1, 3)]

    def test_invalid_month_rejected(self):
        with pytest.raises(DataError, match="row 2, column 'Order Date': '2017-13-01' is not a "
                                            "valid calendar date"):
            date_parts(["2017-05-13", "2017-13-01"])

    def test_invalid_day_combination_rejected(self):
        with pytest.raises(DataError, match="row 1, column 'Order Date': '2021-02-29' is not a "
                                            "valid calendar date"):
            date_parts(["2021-02-29"])


class TestStratifiedSplit:
    def _matrix(self, y):
        values = np.arange(len(y), dtype=float).reshape(-1, 1)
        return FeatureMatrix(values=values, feature_names=["f"])

    def test_forced_proportions(self):
        y = np.array([1] * 5 + [0] * 5)
        split = stratified_split(self._matrix(y), y, 0.8, seed=0)
        assert split.y_train.shape[0] == 8
        assert split.y_test.shape[0] == 2
        assert split.y_train.sum() == 4
        assert split.y_test.sum() == 1

    def test_deterministic(self):
        y = np.array([0, 1] * 20)
        X = self._matrix(y)
        a = stratified_split(X, y, 0.75, seed=9)
        b = stratified_split(X, y, 0.75, seed=9)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_fraction_one_rejected(self):
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            stratified_split(self._matrix(y), y, 1.0, seed=0)

    def test_partition_properties_random(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(10, 200))
            y = rng.integers(0, 2, n)
            if min((y == 0).sum(), (y == 1).sum()) < 2:
                continue
            fraction = float(rng.uniform(0.2, 0.9))
            split = stratified_split(self._matrix(y), y, fraction, seed=trial)
            union = np.sort(np.concatenate([split.train_indices, split.test_indices]))
            assert np.array_equal(union, np.arange(n))
            assert np.intersect1d(split.train_indices, split.test_indices).size == 0
            for cls in (0, 1):
                expected = int(fraction * (y == cls).sum())
                got = int((split.y_train == cls).sum())
                assert abs(got - expected) <= 1

    def test_a_class_with_no_training_row_is_rejected(self):
        y = np.array([0] * 8 + [1] * 2)
        with pytest.raises(DataError, match=r"class 1 has 2 rows, so a train fraction of "
                                            r"0\.3 puts none of them in training"):
            stratified_split(self._matrix(y), y, 0.3, seed=0)

    def test_single_class_rejected(self):
        y = np.ones(6, dtype=int)
        with pytest.raises(DataError):
            stratified_split(self._matrix(y), y, 0.5, seed=0)
