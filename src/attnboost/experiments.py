"""Desk-scale experiment harness: planted synthetic data, ablations, baselines.

The generator plants a known label rule (logit linear in standardized feature
values plus Gaussian noise) over a retail-shaped table, so ablation tests can
assert which features must matter. All runs embed a config fingerprint and
their seeds, and every condition inside a run shares one stratified split.
"""

from __future__ import annotations

import csv as csv_mod
import datetime as dt
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fusion, gbdt
from .attention import TrainConfig, sigmoid
from .errors import DataError
from .metrics import (
    CSV_HEADER,
    ConfusionMatrix,
    MetricsReport,
    evaluate_scores,
    metrics_csv_row,
)
from .tabular import (
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

SHIP_MODES = ["First Class", "Same Day", "Second Class", "Standard Class"]
SEGMENTS = ["Consumer", "Corporate", "Home Office"]
REGIONS = ["Central", "East", "South", "West"]
DATE_RANGE = (dt.date(2015, 1, 1), dt.date(2018, 12, 31))

MANUAL_WEIGHT_FEATURES = ["Discount", "Sales", "Profit", "Ship Mode", "Region"]
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
        if self.n_rows < 10:
            raise ValueError("n_rows must be at least 10")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
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
    test_indices: np.ndarray | None = field(default=None, repr=False)

    def report(self, condition: str) -> MetricsReport:
        for name, r in self.rows:
            if name == condition:
                return r
        raise KeyError(condition)


def fingerprint_of(parts: dict) -> str:
    """Stable hash of a nested dict of primitives."""
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_to_csv(result: ExperimentResult) -> str:
    lines = [f"# fingerprint={result.fingerprint}"]
    for key in sorted(result.seeds):
        lines.append(f"# seed.{key}={result.seeds[key]}")
    lines.append(CSV_HEADER)
    lines.extend(metrics_csv_row(name, r) for name, r in result.rows)
    return "\n".join(lines) + "\n"


def result_from_csv(text: str) -> ExperimentResult:
    """Parse a result CSV back into rows (metric values as printed)."""
    fingerprint = ""
    seeds: dict[str, int] = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# fingerprint="):
            fingerprint = line.split("=", 1)[1]
        elif line.startswith("# seed."):
            key, value = line[len("# seed."):].split("=", 1)
            seeds[key] = int(value)
        elif line and not line.startswith("#"):
            data_lines.append(line)
    if not data_lines or data_lines[0] != CSV_HEADER:
        raise DataError("result CSV is missing its header row")
    rows = []
    for record in csv_mod.reader(io.StringIO("\n".join(data_lines[1:]))):
        name, p, r, acc, f1, auc_v, tp, tn, fp, fn = record
        rows.append((name, MetricsReport(
            precision=float(p), recall=float(r), accuracy=float(acc),
            f1=float(f1), auc=float(auc_v),
            counts=ConfusionMatrix(tp=int(tp), tn=int(tn), fp=int(fp), fn=int(fn)),
        )))
    return ExperimentResult(rows=rows, fingerprint=fingerprint, seeds=seeds)


def _resolve_table(source, schema=None) -> RawTable:
    if isinstance(source, RawTable):
        return source
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    if isinstance(source, str):
        return load_csv(source, schema or retail_schema())
    raise TypeError(f"unsupported data source {type(source).__name__}")


def _prepare(table: RawTable, drop, split_fraction, split_seed):
    if drop is None:
        names = {c.name for c in table.schema}
        drop = [c for c in RETAIL_IDENTIFIER_COLUMNS if c in names]
    state = fit_preprocessor(table, drop)
    X, y = apply_preprocessor(state, table)
    if y is None:
        raise DataError("experiment data must include the target column")
    split = stratified_split(X, y, split_fraction, split_seed)
    return state, split


def run_ablation(
    source,
    attention_config: TrainConfig | None = None,
    boost_config: gbdt.BoostConfig | None = None,
    split_fraction: float = 0.8,
    split_seed: int = 42,
    drop: list[str] | None = None,
    manual_weights: dict[str, float] | None = None,
    shallow_k: int = fusion.DEFAULT_SHALLOW_K,
    augment_mode: str = "weighted-hidden",
    schema: list[ColumnSchema] | None = None,
) -> ExperimentResult:
    """Train and evaluate all seven variants on one shared stratified split."""
    attention_config = attention_config or TrainConfig()
    boost_config = boost_config or desk_scale_boost_config()
    table = _resolve_table(source, schema)
    state, split = _prepare(table, drop, split_fraction, split_seed)
    if manual_weights is None:
        manual_weights = {
            name: fusion.DEFAULT_MANUAL_FACTOR
            for name in MANUAL_WEIGHT_FEATURES
            if name in state.feature_names
        }

    rows = []
    for kind in fusion.VARIANT_KINDS:
        model = fusion.fit_variant(
            kind,
            split.X_train,
            split.y_train,
            attention_config,
            boost_config,
            augment_mode=augment_mode,
            manual_weights=manual_weights,
            shallow_k=shallow_k,
            preprocessor=state,
        )
        proba, _ = fusion.predict_matrix(model, split.X_test)
        rows.append((kind, evaluate_scores(proba, split.y_test)))

    fingerprint = fingerprint_of({
        "experiment": "ablation",
        "attention": asdict(attention_config),
        "boost": asdict(boost_config),
        "split": {"fraction": split_fraction, "seed": split_seed},
        "manual_weights": manual_weights,
        "shallow_k": shallow_k,
        "augment_mode": augment_mode,
        "drop": sorted(state.dropped_columns),
    })
    seeds = {
        "attention": attention_config.seed,
        "boost": boost_config.seed,
        "split": split_seed,
    }
    return ExperimentResult(rows=rows, fingerprint=fingerprint, seeds=seeds,
                            test_indices=split.test_indices)


def run_feature_removal(
    features: list[str],
    source,
    attention_config: TrainConfig | None = None,
    boost_config: gbdt.BoostConfig | None = None,
    split_fraction: float = 0.8,
    split_seed: int = 42,
    drop: list[str] | None = None,
    augment_mode: str = "weighted-hidden",
    schema: list[ColumnSchema] | None = None,
) -> ExperimentResult:
    """Retrain the full pipeline once per removed feature, plus an intact run."""
    attention_config = attention_config or TrainConfig()
    boost_config = boost_config or desk_scale_boost_config()
    table = _resolve_table(source, schema)
    schema_names = {c.name for c in table.schema}
    unknown = sorted(set(features) - schema_names)
    if unknown:
        raise DataError(f"cannot remove unknown features: {unknown}")

    def fit_and_eval(tbl: RawTable) -> tuple[MetricsReport, np.ndarray]:
        state, split = _prepare(tbl, drop, split_fraction, split_seed)
        model = fusion.fit_attnboost(
            split.X_train, split.y_train, attention_config, boost_config,
            augment_mode=augment_mode, preprocessor=state,
        )
        proba, _ = fusion.predict_matrix(model, split.X_test)
        return evaluate_scores(proba, split.y_test), split.test_indices

    rows = []
    for name in features:
        report, _ = fit_and_eval(table.drop_column(name))
        rows.append((f"{name} Removed", report))
    full_report, test_idx = fit_and_eval(table)
    rows.append(("None (Full Model)", full_report))

    fingerprint = fingerprint_of({
        "experiment": "feature_removal",
        "features": list(features),
        "attention": asdict(attention_config),
        "boost": asdict(boost_config),
        "split": {"fraction": split_fraction, "seed": split_seed},
        "augment_mode": augment_mode,
    })
    seeds = {
        "attention": attention_config.seed,
        "boost": boost_config.seed,
        "split": split_seed,
    }
    return ExperimentResult(rows=rows, fingerprint=fingerprint, seeds=seeds,
                            test_indices=test_idx)


@dataclass
class LogisticConfig:
    learning_rate: float = 0.1
    iterations: int = 500
    reg_lambda: float = 1e-3
    seed: int = 0


def baseline_logistic(
    X_train: FeatureMatrix,
    y_train: np.ndarray,
    X_test: FeatureMatrix,
    y_test: np.ndarray,
    config: LogisticConfig | None = None,
) -> MetricsReport:
    """L2-regularized logistic regression by full-batch gradient descent.

    Inputs are re-standardized internally (date-derived columns arrive as raw
    integers), weights start at zero, and the fit is deterministic.
    """
    config = config or LogisticConfig()
    y_train = np.asarray(y_train)
    if np.unique(y_train).size < 2:
        raise DataError("logistic baseline requires both classes in the target")
    mean = X_train.values.mean(axis=0)
    std = np.maximum(X_train.values.std(axis=0), 1e-12)
    Xtr = (X_train.values - mean) / std
    Xte = (X_test.values - mean) / std
    n, d = Xtr.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(config.iterations):
        p = sigmoid(Xtr @ w + b)
        err = p - y_train
        w -= config.learning_rate * (Xtr.T @ err / n + config.reg_lambda * w)
        b -= config.learning_rate * float(err.mean())
    scores = sigmoid(Xte @ w + b)
    return evaluate_scores(scores, np.asarray(y_test))


def baseline_stump(
    X_train: FeatureMatrix,
    y_train: np.ndarray,
    X_test: FeatureMatrix,
    y_test: np.ndarray,
    max_depth: int = 3,
    seed: int = 42,
) -> MetricsReport:
    """One unshrunk tree grown with the boosting split machinery."""
    config = gbdt.BoostConfig(
        n_estimators=1,
        learning_rate=1.0,
        max_depth=max_depth,
        min_child_weight=0.0,
        gamma=0.0,
        subsample=1.0,
        colsample_bytree=1.0,
        reg_alpha=0.0,
        seed=seed,
    )
    model = gbdt.train_boosting(X_train, np.asarray(y_train), config)
    scores = gbdt.predict_proba(model, X_test)
    return evaluate_scores(scores, np.asarray(y_test))
