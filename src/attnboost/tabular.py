"""CSV ingestion and the fit/apply preprocessing pipeline for retail tables.

`load_csv` is the one reader of CSV headers. A header names a subset of a
schema's columns, each once, and the loaded table keeps them in schema order,
so one file gives one table whichever command reads it.

Categorical columns are label-encoded in lexicographic order, and a value not
seen at fit time gets the next code, the size of the column's map. Numeric
columns are z-scored with the population standard deviation; fitting rejects
a column whose mean or deviation overflows. Date columns are expanded into
raw integer (year, month, weekday) triples, Monday=0. Targets are binary:
the literal value "Not" maps to 0 and the single other observed value to 1.
The fitted state holds only what applying it reads. Both read the rows once
into columns, and apply encodes a column at a time into one (rows x features)
matrix; a bad cell raises the error a cell-by-cell pass would, first by
column, then by row.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataError

EPSILON_STD = 1e-12
NULL_CATEGORY = "<NULL>"
TARGET_NEGATIVE = "Not"

COLUMN_KINDS = ("integer", "float", "string", "category", "date", "binary-target")

_ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# Most cells one block of a rows x columns pass holds: the tree walk's (tree,
# row) pairs, augment's gate and a histogram build's (row, feature) keys.
# Temporaries then stay the same size whatever the row count, so a fit's peak
# memory does not grow with rows x width, and the blocks are reused from the
# heap instead of being fresh pages each call.
_BLOCK_CELLS = 1 << 16


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

    def columns(self) -> list[tuple]:
        """The cells one column at a time, in schema order, read in one pass."""
        return list(zip(*self.rows)) or [()] * len(self.schema)

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


def _parse_date(value, where: str) -> dt.date:
    """A date cell as a date: a date as it is, text as YYYY-MM-DD; a null raises."""
    if isinstance(value, dt.date):
        return value
    if value is None:
        raise DataError(f"{where}: null in date column")
    text = str(value)
    if not _ISO_DATE_RE.match(text):
        raise DataError(f"{where}: {text!r} is not a YYYY-MM-DD date")
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: {text!r} is not a valid calendar date") from exc


def _standardized(cells, column: str, mean: float = 0.0, std: float = 1.0,
                  nulls_allowed: bool = False) -> list[float]:
    """(float(v) - mean) / std of each cell (each non-null one if `nulls_allowed`),
    float(v) exactly with the defaults. The first cell that fails, a null
    included unless allowed, raises an error naming its row."""
    try:
        return [(float(v) - mean) / std for v in cells if v is not None or not nulls_allowed]
    except (OverflowError, TypeError, ValueError):
        for row, v in enumerate(cells, start=1):
            where = f"row {row}, column {column!r}"
            if v is None:
                if nulls_allowed:
                    continue
                raise DataError(f"{where}: null in numeric column") from None
            try:
                float(v)
            except OverflowError as exc:
                raise DataError(f"{where}: integer value is too large for a float") from exc
            except (TypeError, ValueError) as exc:
                raise DataError(f"{where}: {v!r} is not a number") from exc
        raise


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

    for col, cells in zip(table.schema, table.columns(), strict=True):
        if col.name in dropped:
            continue
        if col.kind == "binary-target":
            target_values.update(str(v) for v in cells if v is not None)
            continue
        if col.kind in ("category", "string"):
            seen = sorted({NULL_CATEGORY if v is None else str(v) for v in cells})
            category_maps[col.name] = {value: code for code, value in enumerate(seen)}
            feature_names.append(col.name)
        elif col.kind in ("integer", "float"):
            values = np.array(_standardized(cells, col.name, nulls_allowed=True))
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
    expected = state.schema  # the fit-time entry of each table column, in order
    got = [(c.name, c.kind) for c in table.schema]
    if got != [(c.name, c.kind) for c in expected]:  # unlabeled rows, or a mismatch
        expected = [c for c in state.schema if c.name != state.target_name or c.name in dict(got)]
        want = [(c.name, c.kind) for c in expected]
        if got != want:
            missing = [name for name, _ in want if name not in {name for name, _ in got}]
            raise DataError(f"table schema does not match fit-time schema (missing "
                            f"{missing}): got {got}, expected {want}")

    encoded: list = []  # one sequence of numbers per feature, in feature order
    target: np.ndarray | None = None
    for col, cells in zip(expected, table.columns(), strict=True):
        if col.kind == "binary-target":
            target = _encode_targets(state, cells, col.name)
            continue
        if col.name in state.dropped_columns:
            continue
        if col.kind in ("category", "string"):
            if None in cells and not col.nullable:
                raise DataError(f"row {cells.index(None) + 1}, column {col.name!r}: null in "
                                "non-nullable column")
            keys = [NULL_CATEGORY if v is None else v for v in cells] if None in cells else cells
            cmap = state.category_maps[col.name]
            encoded.append(list(map(cmap.get, map(str, keys), repeat(len(cmap)))))
        elif col.kind in ("integer", "float"):
            mean, std = state.numeric_stats[col.name]
            encoded.append(_standardized(cells, col.name, mean, std))
        elif col.kind == "date":
            if not all(isinstance(v, dt.date) for v in cells):
                cells = [_parse_date(v, f"row {i + 1}, column {col.name!r}")
                         for i, v in enumerate(cells)]
            encoded += ([d.year for d in cells], [d.month for d in cells],
                        [d.weekday() for d in cells])

    values = np.empty((table.row_count, len(encoded)))
    if encoded:
        values.T[...] = encoded
    if values.size and not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"row {i + 1}, feature {state.feature_names[j]!r}: transformed value "
                        f"{values[i, j]} is not finite")
    return FeatureMatrix(values=values, feature_names=list(state.feature_names)), target


def _encode_targets(state: PreprocessorState, cells, column: str) -> np.ndarray:
    """0/1 codes of a target column; the first null or unknown value raises."""
    codes = {TARGET_NEGATIVE: 0, state.target_positive: 1}  # a None key matches no str
    encoded = [None if v is None else codes.get(str(v)) for v in cells]
    if None in encoded:
        row = encoded.index(None) + 1
        if cells[row - 1] is None:
            raise DataError(f"row {row}, column {column!r}: null target value")
        vocab = [TARGET_NEGATIVE] + ([state.target_positive] if state.target_positive else [])
        raise DataError(f"row {row}, column {column!r}: target value {str(cells[row - 1])!r} "
                        f"outside vocabulary {vocab}")
    return np.array(encoded, dtype=np.int64)


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
        if n_train == 0:
            raise DataError(f"class {cls} has {idx.size} rows, so a train fraction of "
                            f"{train_fraction} puts none of them in training")
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
