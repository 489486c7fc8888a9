"""CSV ingestion and the fit/apply preprocessing pipeline for retail tables.

`load_csv` is the one reader of CSV headers. A header names a subset of a
schema's columns, each once, and the loaded table keeps them in schema order,
so one file gives one table whichever command reads it.

Categorical columns are label-encoded in lexicographic order, and a value not
seen at fit time gets the next code, the size of the column's map. Numeric
columns are z-scored with the population standard deviation; fitting rejects
a column whose mean or deviation overflows. Date columns are expanded into
raw integer (year, month, weekday) triples, Monday=0. Targets are binary:
the literal value "Not" maps to 0 and the first other value seen to 1, and
fitting refuses a target column with no other value or with a third one.
The fitted state holds only what applying it reads: the kept columns and the
target, each with its map or statistics. Applying reads those columns from a
table by name and ignores its others. Both read the rows once into columns,
and apply encodes a column at a time into one (rows x features) matrix; a bad
cell raises the error a cell-by-cell pass would, first by column in fit-time
order, then by row.
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
_ECHO_CHARS = 40  # most characters of a cell an error quotes

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
    """Everything learned at fit time that applying it reads. The schema holds the
    kept columns and the target, in the fitted table's order, and the feature and
    target names follow from it."""

    schema: list[ColumnSchema]
    category_maps: dict[str, dict[str, int]]  # a value outside a map gets code len(map)
    numeric_stats: dict[str, tuple[float, float]]
    target_positive: str  # the target value other than TARGET_NEGATIVE
    feature_names: list[str] = field(init=False)
    target_name: str = field(init=False)

    def __post_init__(self):  # a date column gives three features; the schema has one target
        self.feature_names = [
            name for c in self.schema if c.kind != "binary-target"
            for name in ([f"{c.name}_{part}" for part in ("year", "month", "weekday")]
                         if c.kind == "date" else [c.name])]
        (self.target_name,) = [c.name for c in self.schema if c.kind == "binary-target"]


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


def _echo(text: str) -> str:
    """A cell's text quoted for an error, cut to its first _ECHO_CHARS characters."""
    return repr(text) if len(text) <= _ECHO_CHARS else f"{text[:_ECHO_CHARS]!r}..."


def _parse_date(value, where: str) -> dt.date:
    """A date cell as a date: a date as it is, text as YYYY-MM-DD; a null raises."""
    if isinstance(value, dt.date):
        return value
    if value is None:
        raise DataError(f"{where}: null in date column")
    text = str(value)
    if not _ISO_DATE_RE.match(text):
        raise DataError(f"{where}: {_echo(text)} is not a YYYY-MM-DD date")
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: {_echo(text)} is not a valid calendar date") from exc


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
            raise DataError(f"{where}: {_echo(text)} is not an integer") from exc
        except OverflowError as exc:
            raise DataError(f"{where}: {_echo(text)} is too large for a float") from exc
        return value
    if col.kind == "float":
        try:
            value = float(text)
        except ValueError as exc:
            raise DataError(f"{where}: {_echo(text)} is not a number") from exc
        if not math.isfinite(value):
            raise DataError(f"{where}: {_echo(text)} is not finite")
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
    preprocessor requires each feature column it kept and ignores the rest.
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
    """Learn category maps, numeric stats and the target's positive value from a table."""
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

    for col, cells in zip(table.schema, table.columns(), strict=True):
        if col.name in dropped:
            continue
        if col.kind == "binary-target":
            positive = next((str(v) for v in cells
                             if v is not None and str(v) != TARGET_NEGATIVE), None)
            if positive is None:
                raise DataError(f"target column {col.name!r} has no value other than "
                                f"{TARGET_NEGATIVE!r}")
            _encode_targets(positive, cells, col.name)  # the first null or third value raises
            continue
        if col.kind in ("category", "string"):
            seen = sorted({NULL_CATEGORY if v is None else str(v) for v in cells})
            category_maps[col.name] = {value: code for code, value in enumerate(seen)}
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

    return PreprocessorState(
        schema=[c for c in table.schema if c.name not in dropped],
        category_maps=category_maps,
        numeric_stats=numeric_stats,
        target_positive=positive,
    )


def apply_preprocessor(
    state: PreprocessorState, table: RawTable
) -> tuple[FeatureMatrix, np.ndarray | None]:
    """Transform a table into a dense feature matrix and 0/1 target vector.

    Each fit-time column is read from the table by name, whatever the table's
    order, and the table's other columns are ignored. A missing feature column,
    or one of another kind than at fit time, is an error that names it, met
    in fit-time order as a bad cell is; the target column may be absent
    (prediction on unlabeled rows), in which case the target is None. Errors
    name the row, counting data rows from 1 as load_csv does, and the column.
    """
    cells_of = {c.name: (c.kind, cells)
                for c, cells in zip(table.schema, table.columns(), strict=True)}
    encoded: list = []  # one sequence of numbers per feature, in feature order
    target: np.ndarray | None = None
    for col in state.schema:
        kind, cells = cells_of.get(col.name, (None, None))
        if kind != col.kind:
            if kind is not None:
                raise DataError(f"column {col.name!r} is of kind {kind!r}, but was fitted as "
                                f"{col.kind!r}")
            if col.kind != "binary-target":
                missing = [c.name for c in state.schema
                           if c.name not in cells_of and c.kind != "binary-target"]
                raise DataError(f"table lacks columns the model reads (missing {missing})")
            continue  # unlabeled rows
        if col.kind == "binary-target":
            target = _encode_targets(state.target_positive, cells, col.name)
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


def _encode_targets(positive: str, cells, column: str) -> np.ndarray:
    """0/1 codes of a target column; the first null or unknown value raises."""
    codes = {TARGET_NEGATIVE: 0, positive: 1}
    encoded = [None if v is None else codes.get(str(v)) for v in cells]
    if None in encoded:
        row = encoded.index(None) + 1
        if cells[row - 1] is None:
            raise DataError(f"row {row}, column {column!r}: null target value")
        raise DataError(f"row {row}, column {column!r}: target value {_echo(str(cells[row - 1]))} "
                        f"outside vocabulary [{TARGET_NEGATIVE!r}, {_echo(positive)}]")
    return np.array(encoded, dtype=np.int64)


@dataclass
class SplitResult:
    X_train: FeatureMatrix
    y_train: np.ndarray
    X_test: FeatureMatrix
    y_test: np.ndarray
    train_indices: np.ndarray = field(repr=False)
    test_indices: np.ndarray = field(repr=False)


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
