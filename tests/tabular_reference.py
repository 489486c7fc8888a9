"""The per-cell preprocessing encoder, kept as an oracle for the tests.

`reference_apply` walks a table one cell at a time, stores each encoded cell
into its column's array and stacks the columns at the end. The column-wise
`tabular.apply_preprocessor` must return bitwise the same matrix and target
and raise the same error, with the same message, at the same first bad cell.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from attnboost.errors import DataError
from attnboost.tabular import (
    NULL_CATEGORY,
    TARGET_NEGATIVE,
    FeatureMatrix,
    PreprocessorState,
    RawTable,
    _parse_date,
)


def _float_error(value, row: int, column: str, exc: Exception) -> DataError:
    if isinstance(exc, OverflowError):
        return DataError(f"row {row}, column {column!r}: integer value is too large for a float")
    return DataError(f"row {row}, column {column!r}: {value!r} is not a number")


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


def reference_apply(state: PreprocessorState, table: RawTable):
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
    target = np.zeros(n, dtype=np.int64) if has_target else None
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
                try:
                    out[i] = (float(v) - mean) / std
                except (OverflowError, TypeError, ValueError) as exc:
                    raise _float_error(v, i + 1, col.name, exc) from exc
            columns.append(out)
        elif col.kind == "date":
            years = np.empty(n, dtype=np.float64)
            months = np.empty(n, dtype=np.float64)
            weekdays = np.empty(n, dtype=np.float64)
            for i, v in enumerate(cells):
                if v is None:
                    raise DataError(f"row {i + 1}, column {col.name!r}: null in date column")
                if not isinstance(v, dt.date):
                    v = _parse_date(str(v), f"row {i + 1}, column {col.name!r}")
                years[i], months[i], weekdays[i] = v.year, v.month, v.weekday()
            columns.extend([years, months, weekdays])

    values = np.column_stack(columns) if columns else np.zeros((n, 0))
    if values.size and not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"row {i + 1}, feature {state.feature_names[j]!r}: transformed value "
                        f"{values[i, j]} is not finite")
    return FeatureMatrix(values=values, feature_names=list(state.feature_names)), target
