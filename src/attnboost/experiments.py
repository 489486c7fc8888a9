"""Desk-scale experiment harness: planted synthetic data, the ablation and feature removal.

The generator plants a known label rule (logit linear in standardized feature
values plus Gaussian noise) over a retail-shaped table, so ablation tests can
assert which features must matter. Both experiments are condition lists for
one runner, `run_conditions`, which fits each variant on the intact table,
prepared once so that its stratified split is shared and recorded, or on the
table without one feature. Every result embeds its seeds and a fingerprint of
its settings and recorded split's data (`run_fingerprint`, which `attnboost
train` also writes into its model).
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fusion, gbdt
from .attention import MAX_SEED, TrainConfig, sigmoid
from .errors import DataError
from .metrics import (
    CSV_HEADER,
    MetricsReport,
    evaluate_scores,
    metrics_csv_row,
)
from .tabular import (
    RETAIL_IDENTIFIER_COLUMNS,
    ColumnSchema,
    PreprocessorState,
    RawTable,
    SplitResult,
    apply_preprocessor,
    fit_preprocessor,
    stratified_split,
)

SHIP_MODES = ["First Class", "Same Day", "Second Class", "Standard Class"]
SEGMENTS = ["Consumer", "Corporate", "Home Office"]
REGIONS = ["Central", "East", "South", "West"]
DATE_RANGE = (dt.date(2015, 1, 1), dt.date(2018, 12, 31))

REMOVAL_FEATURES = ["Discount", "Sales", "Profit"]

DEFAULT_COEFFICIENTS = {"Discount": 3.0, "Sales": 1.0, "Profit": -1.0, "Region": 0.75}

_NUMERIC_FEATURES = ("Sales", "Quantity", "Discount", "Profit")
_CATEGORICAL_LEVELS = {"Ship Mode": SHIP_MODES, "Segment": SEGMENTS, "Region": REGIONS}


def synthetic_schema() -> list[ColumnSchema]:
    """Retail-shaped subset produced by the synthetic generator."""
    return [
        ColumnSchema("Order Date", "date"),
        ColumnSchema("Ship Mode", "category"),
        ColumnSchema("Segment", "category"),
        ColumnSchema("Region", "category"),
        ColumnSchema("Returned", "binary-target"),
        ColumnSchema("Sales", "float"),
        ColumnSchema("Quantity", "integer"),
        ColumnSchema("Discount", "float"),
        ColumnSchema("Profit", "float"),
    ]


@dataclass
class SyntheticSpec:
    n_rows: int = 2000
    seed: int = 42
    noise_sd: float = 0.25
    coefficients: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_COEFFICIENTS))
    intercept: float = 0.0

    def __post_init__(self):
        # each range is written so that NaN fails it; a rejection names the field first
        for name, ok, rule in (
            ("n_rows", self.n_rows >= 10, "must be at least 10"),
            ("seed", 0 <= self.seed <= MAX_SEED, f"must be from 0 to {MAX_SEED}"),
            ("noise_sd", 0.0 <= self.noise_sd < math.inf, "must be finite and non-negative"),
            ("intercept", math.isfinite(self.intercept), "must be finite"),
            ("coefficients", all(map(math.isfinite, self.coefficients.values())),
             "must be finite"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")
        allowed = set(_NUMERIC_FEATURES) | set(_CATEGORICAL_LEVELS)
        unknown = sorted(set(self.coefficients) - allowed)
        if unknown:
            raise ValueError(f"coefficients name unknown features: {unknown}")
        # all-zero coefficients are allowed: labels are then pure noise around
        # sigmoid(intercept), which the symmetry tests rely on


def _level_value(index: np.ndarray, n_levels: int) -> np.ndarray:
    """Map level index 0..c-1 to equally spaced values in [-1, 1]."""
    return -1.0 + 2.0 * index / (n_levels - 1)


def generate_synthetic(spec: SyntheticSpec) -> RawTable:
    """Seeded table whose label follows Bernoulli(sigmoid(planted logit)).

    Coefficients multiply z-scored numeric columns or categorical level values
    spaced evenly in [-1, 1], so a coefficient's magnitude is comparable
    across features regardless of raw scale.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    day_span = (DATE_RANGE[1] - DATE_RANGE[0]).days
    calendar = [DATE_RANGE[0] + dt.timedelta(days=o) for o in range(day_span + 1)]
    dates = [calendar[o] for o in rng.integers(0, day_span + 1, n).tolist()]
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
    logit = np.full(n, spec.intercept)
    for name, coef in spec.coefficients.items():
        if coef == 0.0:
            continue
        if name in numeric:
            col = numeric[name]
            std = max(float(col.std()), 1e-12)
            logit += coef * (col - col.mean()) / std
        else:
            levels = _CATEGORICAL_LEVELS[name]
            logit += coef * _level_value(cat_idx[name], len(levels))
    if spec.noise_sd > 0:
        logit += rng.normal(0.0, spec.noise_sd, n)
    labels = rng.uniform(size=n) < sigmoid(logit)

    columns = (
        dates,
        [SHIP_MODES[i] for i in ship_idx.tolist()],
        [SEGMENTS[i] for i in seg_idx.tolist()],
        [REGIONS[i] for i in region_idx.tolist()],
        ["Yes" if flag else "Not" for flag in labels.tolist()],
        sales.tolist(),
        quantity.tolist(),
        discount.tolist(),
        profit.tolist(),
    )
    return RawTable(schema=synthetic_schema(), rows=[list(row) for row in zip(*columns)])


def desk_scale_boost_config(seed: int = 42) -> gbdt.BoostConfig:
    """Reduced boosting budget used by the experiment harness."""
    return gbdt.BoostConfig(
        n_estimators=200, max_depth=6, min_child_weight=1.0, gamma=0.0, seed=seed
    )


@dataclass
class ExperimentResult:
    rows: list[tuple[str, MetricsReport]]
    fingerprint: str
    seeds: dict[str, int]
    test_indices: np.ndarray = field(repr=False)

    def report(self, condition: str) -> MetricsReport:
        for name, r in self.rows:
            if name == condition:
                return r
        raise KeyError(condition)


def result_to_csv(result: ExperimentResult) -> str:
    lines = [f"# fingerprint={result.fingerprint}"]
    for key in sorted(result.seeds):
        lines.append(f"# seed.{key}={result.seeds[key]}")
    lines.append(CSV_HEADER)
    lines.extend(metrics_csv_row(name, r) for name, r in result.rows)
    return "\n".join(lines) + "\n"


def _resolve_drop(table: RawTable, drop: list[str] | None) -> list[str]:
    """`drop`, or for None the retail identifier columns the table has."""
    names = {c.name for c in table.schema}
    return drop if drop is not None else [c for c in RETAIL_IDENTIFIER_COLUMNS if c in names]


def prepare(table: RawTable, drop: list[str] | None, split_fraction: float,
            split_seed: int) -> tuple[PreprocessorState, SplitResult]:
    """Fit the preprocessor, apply it and split: the one data path of every run.

    `drop=None` drops the retail identifier columns the table has.
    """
    state = fit_preprocessor(table, _resolve_drop(table, drop))
    X, y = apply_preprocessor(state, table)
    return state, stratified_split(X, y, split_fraction, split_seed)


def _split_digest(split: SplitResult) -> str:
    """SHA-256 over a split's train and test matrices and labels, with their shapes."""
    digest = hashlib.sha256()
    for part in (split.X_train.values, split.y_train, split.X_test.values, split.y_test):
        digest.update(f"{part.dtype.str}{part.shape}".encode())
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def run_fingerprint(split: SplitResult, attention_config: TrainConfig,
                    boost_config: gbdt.BoostConfig, split_fraction: float, split_seed: int,
                    **parts) -> str:
    """SHA-256 of a run's settings plus `parts` and its split's data, as canonical JSON.

    Hashing the split's data means runs on different tables never share one,
    and a setting that shaped neither the data nor the fit leaves it unchanged.
    """
    canonical = json.dumps({
        "attention": asdict(attention_config),
        "boost": asdict(boost_config),
        "split": {"fraction": split_fraction, "seed": split_seed},
        "data": _split_digest(split),
        **parts,
    }, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_conditions(
    table: RawTable,
    conditions: list[tuple[str, str, str | None]],
    attention_config: TrainConfig | None = None,
    boost_config: gbdt.BoostConfig | None = None,
    split_fraction: float = 0.8,
    split_seed: int = 42,
    drop: list[str] | None = None,
    parts: dict | None = None,
) -> ExperimentResult:
    """Fit and score each (label, variant, removed feature or None) condition, in order.

    The intact table is prepared once, shared by every condition that removes
    nothing, and its split is the one recorded; a removed feature's table is
    prepared with the feature added to the resolved drop list, which must not
    already name it. `parts` go into the fingerprint beside the dropped columns.
    """
    attention_config = attention_config or TrainConfig()
    boost_config = boost_config or desk_scale_boost_config()
    drop = _resolve_drop(table, drop)
    removed = [(kind, name) for _, kind, name in conditions if name is not None]
    unknown = sorted({name for _, name in removed} - {c.name for c in table.schema})
    if unknown:
        raise DataError(f"cannot remove unknown features: {unknown}")
    for kind, name in removed:
        if table.schema[table.column_index(name)].kind == "binary-target":
            raise DataError(f"cannot remove the target column {name!r}")
        if removed.count((kind, name)) > 1:
            raise DataError(f"feature {name!r} is named more than once")
        if name in drop:
            raise DataError(f"feature {name!r} is also in the drop list")

    intact = prepare(table, drop, split_fraction, split_seed)
    rows = []
    for label, kind, name in conditions:
        state, split = intact if name is None else prepare(table, [*drop, name],
                                                            split_fraction, split_seed)
        model = fusion.fit_variant(kind, split.X_train, split.y_train, attention_config,
                                   boost_config, preprocessor=state)
        proba, _ = fusion.predict_matrix(model, split.X_test)
        rows.append((label, evaluate_scores(proba, split.y_test)))
    state, split = intact
    fingerprint = run_fingerprint(split, attention_config, boost_config, split_fraction,
                                  split_seed, drop=sorted(state.dropped_columns), **(parts or {}))
    seeds = {"attention": attention_config.seed, "boost": boost_config.seed, "split": split_seed}
    return ExperimentResult(rows, fingerprint, seeds, split.test_indices)


def run_ablation(
    table: RawTable,
    attention_config: TrainConfig | None = None,
    boost_config: gbdt.BoostConfig | None = None,
    split_fraction: float = 0.8,
    split_seed: int = 42,
    drop: list[str] | None = None,
) -> ExperimentResult:
    """Train and evaluate every fusion.VARIANT_KINDS entry on one shared stratified split."""
    return run_conditions(table, [(kind, kind, None) for kind in fusion.VARIANT_KINDS],
                          attention_config, boost_config, split_fraction, split_seed, drop,
                          {"experiment": "ablation"})


def run_feature_removal(
    features: list[str],
    table: RawTable,
    attention_config: TrainConfig | None = None,
    boost_config: gbdt.BoostConfig | None = None,
    split_fraction: float = 0.8,
    split_seed: int = 42,
    drop: list[str] | None = None,
) -> ExperimentResult:
    """Retrain the full model once per removed feature, then once on the intact table;
    the preprocessor drops each removed feature beside `drop`, which must not name it."""
    conditions = [(f"{name} Removed", "full", name) for name in features]
    return run_conditions(table, [*conditions, ("None (Full Model)", "full", None)],
                          attention_config, boost_config, split_fraction, split_seed, drop,
                          parts={"experiment": "feature_removal", "features": list(features)})
