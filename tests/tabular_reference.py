"""The per-cell preprocessing encoder, kept as an oracle for the tests.

`reference_apply` looks up each fit-time column in the table by name, walks
it one cell at a time, stores each encoded cell into its column's array and
stacks the columns at the end. The column-wise
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
    _echo,
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
    if text == state.target_positive:
        return 1
    raise DataError(f"row {row}, column {column!r}: target value {_echo(text)} outside "
                    f"vocabulary [{TARGET_NEGATIVE!r}, {_echo(state.target_positive)}]")


def reference_apply(state: PreprocessorState, table: RawTable):
    position = {c.name: j for j, c in enumerate(table.schema)}
    has_target = state.target_name in position
    missing = [c.name for c in state.schema
               if c.name != state.target_name and c.name not in position]

    n = table.row_count
    columns: list[np.ndarray] = []
    target = np.zeros(n, dtype=np.int64) if has_target else None

    for col in state.schema:  # a column-level error is met in fit-time order, as a cell's
        if col.name not in position:
            if col.name == state.target_name:
                continue
            raise DataError(f"table lacks columns the model reads (missing {missing})")
        kind = table.schema[position[col.name]].kind
        if kind != col.kind:
            raise DataError(f"column {col.name!r} is of kind {kind!r}, but was fitted as "
                            f"{col.kind!r}")
        cells = [row[position[col.name]] for row in table.rows]
        if col.kind == "binary-target":
            for i, v in enumerate(cells):
                target[i] = _encode_target(state, v, i + 1, col.name)
            continue
        if col.kind in ("category", "string"):
            cmap = state.category_maps[col.name]
            unseen = len(cmap)
            out = np.empty(n, dtype=np.float64)
            for i, v in enumerate(cells):
                key = NULL_CATEGORY if v is None else str(v)
                if v is None and not col.nullable:
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
