"""CSV ingestion and the fit/apply preprocessing pipeline for retail tables.

`load_csv` is the one reader of CSV headers. A header names a subset of a
schema's columns, each once, and the loaded table keeps them in schema order,
so one file gives one table whichever command reads it.

Categorical columns are label-encoded in lexicographic order, and a value not
seen at fit time gets the next code, the size of the column's map. Numeric
columns are z-scored with the population standard deviation; fitting rejects
a column whose mean or deviation overflows. Date columns are expanded into
raw integer (year, month, weekday) triples. Targets are binary: the literal
value "Not" maps to 0 and the single other observed value to 1. The fitted
state holds only what applying it reads.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

EPSILON_STD = 1e-12
NULL_CATEGORY = "<NULL>"
TARGET_NEGATIVE = "Not"

COLUMN_KINDS = ("integer", "float", "string", "category", "date", "binary-target")

_ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    nullable: bool = False

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r} for column {self.name!r}")


@dataclass
class RawTable:
    """Typed rows matching a schema by position; cells may be None if nullable."""

    schema: list[ColumnSchema]
    rows: list[list]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.schema):
            if col.name == name:
                return i
        raise KeyError(name)

    def drop_column(self, name: str) -> "RawTable":
        """Return a copy of the table without the named column."""
        idx = self.column_index(name)
        schema = [c for i, c in enumerate(self.schema) if i != idx]
        rows = [[cell for i, cell in enumerate(row) if i != idx] for row in self.rows]
        return RawTable(schema=schema, rows=rows)


@dataclass
class FeatureMatrix:
    """Dense float64 matrix whose column order matches feature_names."""

    values: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError(
                f"matrix has {self.values.shape[1]} columns but "
                f"{len(self.feature_names)} feature names"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class PreprocessorState:
    """Everything learned at fit time, sufficient to transform new tables."""

    schema: list[ColumnSchema]
    category_maps: dict[str, dict[str, int]]  # a value outside a map gets code len(map)
    numeric_stats: dict[str, tuple[float, float]]
    dropped_columns: list[str]
    feature_names: list[str]
    target_name: str
    target_positive: str | None


def retail_schema() -> list[ColumnSchema]:
    """The 23-column retail transaction schema."""
    return [
        ColumnSchema("Row ID", "integer"),
        ColumnSchema("Order ID", "string"),
        ColumnSchema("Order Date", "date"),
        ColumnSchema("Ship Date", "date"),
        ColumnSchema("Ship Mode", "category"),
        ColumnSchema("Customer ID", "string"),
        ColumnSchema("Customer Name", "string"),
        ColumnSchema("Segment", "category"),
        ColumnSchema("Country", "category"),
        ColumnSchema("City", "category"),
        ColumnSchema("State", "category"),
        ColumnSchema("Postal Code", "integer"),
        ColumnSchema("Region", "category"),
        ColumnSchema("Retail Sales People", "string"),
        ColumnSchema("Product ID", "string"),
        ColumnSchema("Category", "category"),
        ColumnSchema("Sub-Category", "category"),
        ColumnSchema("Product Name", "string"),
        ColumnSchema("Returned", "binary-target"),
        ColumnSchema("Sales", "float"),
        ColumnSchema("Quantity", "integer"),
        ColumnSchema("Discount", "float"),
        ColumnSchema("Profit", "float"),
    ]


RETAIL_IDENTIFIER_COLUMNS = [
    "Row ID",
    "Order ID",
    "Customer ID",
    "Customer Name",
    "Product ID",
    "Product Name",
    "Retail Sales People",
]


def decompose_date(value) -> tuple[int, int, int]:
    """Split a date into (year, month, weekday) with Monday=0 .. Sunday=6."""
    if isinstance(value, dt.date):
        d = value
    else:
        d = _parse_date(str(value), where="date value")
    return d.year, d.month, d.weekday()


def _parse_date(text: str, where: str) -> dt.date:
    if not _ISO_DATE_RE.match(text):
        raise DataError(f"{where}: {text!r} is not a YYYY-MM-DD date")
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: {text!r} is not a valid calendar date") from exc


def _parse_cell(text: str, col: ColumnSchema, row_idx: int):
    where = f"row {row_idx}, column {col.name!r}"
    if text == "":
        if col.nullable:
            return None
        raise DataError(f"{where}: empty cell in non-nullable column")
    if col.kind == "integer":
        try:
            value = int(text)
            float(value)  # preprocessing standardizes it as a float
        except ValueError as exc:
            raise DataError(f"{where}: {text!r} is not an integer") from exc
        except OverflowError as exc:
            raise DataError(f"{where}: {text!r} is too large for a float") from exc
        return value
    if col.kind == "float":
        try:
            value = float(text)
        except ValueError as exc:
            raise DataError(f"{where}: {text!r} is not a number") from exc
        if not math.isfinite(value):
            raise DataError(f"{where}: {text!r} is not finite")
        return value
    if col.kind == "date":
        return _parse_date(text, where)
    # string, category, binary-target
    return text


def load_csv(path: str, schema: list[ColumnSchema]) -> RawTable:
    """Read a UTF-8 comma-separated file into typed rows.

    The header names any subset of the schema's columns, in any order, each
    once; the table keeps the named columns in schema order. A header name
    outside the schema or repeated is an error that names it. A target column
    is optional here; fitting requires one, and applying a fitted
    preprocessor requires every fit-time feature column.
    """
    _validate_schema(schema, require_target=False)
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, header row required") from None
        known = {c.name for c in schema}
        for i, name in enumerate(header):
            if name not in known:
                raise DataError(f"{path}: header column {name!r} is not in the schema")
            if name in header[:i]:
                raise DataError(f"{path}: header column {name!r} appears twice")
        kept = [c for c in schema if c.name in header]
        positions = [header.index(c.name) for c in kept]
        rows = []
        for row_idx, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: row {row_idx} has {len(raw)} cells, expected {len(header)}"
                )
            rows.append(
                [_parse_cell(raw[pos], col, row_idx) for pos, col in zip(positions, kept)]
            )
    return RawTable(schema=kept, rows=rows)


def _validate_schema(schema: list[ColumnSchema], require_target: bool = True) -> None:
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise DataError("schema column names are not unique")
    targets = [c.name for c in schema if c.kind == "binary-target"]
    if len(targets) > 1 or (require_target and not targets):
        raise DataError(f"schema must have exactly one binary-target column, found {targets}")


def fit_preprocessor(table: RawTable, drop: list[str]) -> PreprocessorState:
    """Learn category maps, numeric stats, and date derivations from a table."""
    _validate_schema(table.schema)
    names = {c.name for c in table.schema}
    unknown = sorted(set(drop) - names)
    if unknown:
        raise DataError(f"drop list names unknown columns: {unknown}")
    target_col = next(c for c in table.schema if c.kind == "binary-target")
    if target_col.name in drop:
        raise DataError(f"cannot drop the target column {target_col.name!r}")

    dropped = set(drop)
    category_maps: dict[str, dict[str, int]] = {}
    numeric_stats: dict[str, tuple[float, float]] = {}
    feature_names: list[str] = []
    target_values: set[str] = set()

    for j, col in enumerate(table.schema):
        if col.name in dropped:
            continue
        cells = [row[j] for row in table.rows]
        if col.kind == "binary-target":
            target_values.update(str(v) for v in cells if v is not None)
            continue
        if col.kind in ("category", "string"):
            seen = sorted({NULL_CATEGORY if v is None else str(v) for v in cells})
            category_maps[col.name] = {value: code for code, value in enumerate(seen)}
            feature_names.append(col.name)
        elif col.kind in ("integer", "float"):
            values = np.array([float(v) for v in cells if v is not None], dtype=np.float64)
            if values.size == 0:
                raise DataError(f"numeric column {col.name!r} has no non-null values")
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                mean, std = float(values.mean()), float(values.std())
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise DataError(f"numeric column {col.name!r}: mean {mean} or standard "
                                f"deviation {std} is not finite; its values are too large")
            numeric_stats[col.name] = (mean, max(std, EPSILON_STD))
            feature_names.append(col.name)
        elif col.kind == "date":
            feature_names.extend(f"{col.name}_{part}" for part in ("year", "month", "weekday"))

    positives = target_values - {TARGET_NEGATIVE}
    if len(positives) > 1:
        raise DataError(
            f"target column {target_col.name!r} has more than two values: "
            f"{sorted(target_values)}"
        )
    return PreprocessorState(
        schema=list(table.schema),
        category_maps=category_maps,
        numeric_stats=numeric_stats,
        dropped_columns=list(drop),
        feature_names=feature_names,
        target_name=target_col.name,
        target_positive=next(iter(positives)) if positives else None,
    )


def apply_preprocessor(
    state: PreprocessorState, table: RawTable
) -> tuple[FeatureMatrix, np.ndarray | None]:
    """Transform a table into a dense feature matrix and 0/1 target vector.

    The table's schema must match the fit-time schema; the target column may
    be absent (prediction on unlabeled rows), in which case the target is None.
    Errors name the row, counting data rows from 1 as load_csv does, and the
    column.
    """
    fit_cols = {c.name: c for c in state.schema}
    table_names = [c.name for c in table.schema]
    has_target = state.target_name in table_names
    expected = [c for c in state.schema if has_target or c.name != state.target_name]
    got = [(c.name, c.kind) for c in table.schema]
    want = [(c.name, c.kind) for c in expected]
    if got != want:
        missing = [c.name for c in expected if c.name not in table_names]
        raise DataError(f"table schema does not match fit-time schema (missing {missing}):"
                        f" got {got}, expected {want}")

    n = table.row_count
    columns: list[np.ndarray] = []
    target: np.ndarray | None = np.zeros(n, dtype=np.int64) if has_target else None
    dropped = set(state.dropped_columns)

    for j, col in enumerate(table.schema):
        cells = [row[j] for row in table.rows]
        if col.kind == "binary-target":
            for i, v in enumerate(cells):
                target[i] = _encode_target(state, v, i + 1, col.name)
            continue
        if col.name in dropped:
            continue
        if col.kind in ("category", "string"):
            cmap = state.category_maps[col.name]
            unseen = len(cmap)
            out = np.empty(n, dtype=np.float64)
            for i, v in enumerate(cells):
                key = NULL_CATEGORY if v is None else str(v)
                if v is None and not fit_cols[col.name].nullable:
                    raise DataError(f"row {i + 1}, column {col.name!r}: null in "
                                    "non-nullable column")
                out[i] = cmap.get(key, unseen)
            columns.append(out)
        elif col.kind in ("integer", "float"):
            mean, std = state.numeric_stats[col.name]
            out = np.empty(n, dtype=np.float64)
            for i, v in enumerate(cells):
                if v is None:
                    raise DataError(f"row {i + 1}, column {col.name!r}: null in numeric column")
                out[i] = (float(v) - mean) / std
            columns.append(out)
        elif col.kind == "date":
            years = np.empty(n, dtype=np.float64)
            months = np.empty(n, dtype=np.float64)
            weekdays = np.empty(n, dtype=np.float64)
            for i, v in enumerate(cells):
                if v is None:
                    raise DataError(f"row {i + 1}, column {col.name!r}: null in date column")
                years[i], months[i], weekdays[i] = decompose_date(v)
            columns.extend([years, months, weekdays])

    values = np.column_stack(columns) if columns else np.zeros((n, 0))
    if values.size and not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"row {i + 1}, feature {state.feature_names[j]!r}: transformed value "
                        f"{values[i, j]} is not finite")
    return FeatureMatrix(values=values, feature_names=list(state.feature_names)), target


def _encode_target(state: PreprocessorState, value, row: int, column: str) -> int:
    if value is None:
        raise DataError(f"row {row}, column {column!r}: null target value")
    text = str(value)
    if text == TARGET_NEGATIVE:
        return 0
    if state.target_positive is not None and text == state.target_positive:
        return 1
    vocab = [TARGET_NEGATIVE] + ([state.target_positive] if state.target_positive else [])
    raise DataError(f"row {row}, column {column!r}: target value {text!r} outside "
                    f"vocabulary {vocab}")


@dataclass
class SplitResult:
    X_train: FeatureMatrix
    y_train: np.ndarray
    X_test: FeatureMatrix
    y_test: np.ndarray
    train_indices: np.ndarray = field(repr=False, default=None)
    test_indices: np.ndarray = field(repr=False, default=None)


def stratified_split(
    X: FeatureMatrix, y: np.ndarray, train_fraction: float, seed: int
) -> SplitResult:
    """Deterministic per-class split preserving class proportions within one row."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    y = np.asarray(y)
    if y.shape[0] != X.n_rows:
        raise ValueError("feature matrix and target lengths differ")
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("stratified split requires both classes present")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        if idx.size < 2:
            raise DataError(f"class {cls} has fewer than 2 rows")
        shuffled = idx[rng.permutation(idx.size)]
        n_train = int(train_fraction * idx.size)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return SplitResult(
        X_train=FeatureMatrix(X.values[train_idx], list(X.feature_names)),
        y_train=y[train_idx],
        X_test=FeatureMatrix(X.values[test_idx], list(X.feature_names)),
        y_test=y[test_idx],
        train_indices=train_idx,
        test_indices=test_idx,
    )
