"""Composite model: preprocessing, attention features, and boosted trees.

The full pipeline trains the gated network on the training split, freezes it,
appends its features to the input matrix, then trains the tree ensemble on
the widened matrix. Ablation variants swap or bypass the network stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import attention as attn
from . import gbdt
from .errors import DataError
from .tabular import FeatureMatrix, PreprocessorState, RawTable, apply_preprocessor

VARIANT_KINDS = (
    "full",
    "no_attention",
    "manual_weights",
    "random_attention",
    "frozen_attention",
    "shallow_attention",
    "equal_weight",
)

DEFAULT_MANUAL_FACTOR = 2.0
DEFAULT_SHALLOW_K = 16


@dataclass
class AttnBoostModel:
    preprocessor: PreprocessorState | None
    attention: attn.AttentionParams | None
    augment_mode: str  # weighted-hidden | attention-vector | none
    ensemble: gbdt.Ensemble
    variant: str
    attention_seed: int
    boost_seed: int
    manual_weights: dict[str, float] = field(default_factory=dict)
    random_k: int = 0
    random_seed: int = 0


def apply_manual_weights(X: FeatureMatrix, weights: dict[str, float]) -> FeatureMatrix:
    """Multiply the named columns by their positive factors; others untouched."""
    unknown = sorted(set(weights) - set(X.feature_names))
    if unknown:
        raise DataError(f"manual weights name unknown features: {unknown}")
    bad = {name: f for name, f in weights.items() if f <= 0}
    if bad:
        raise DataError(f"manual weight factors must be positive: {bad}")
    values = X.values.copy()
    for name, factor in weights.items():
        values[:, X.feature_names.index(name)] *= factor
    return FeatureMatrix(values=values, feature_names=list(X.feature_names))


def _model_inputs(model: AttnBoostModel, X: FeatureMatrix) -> FeatureMatrix:
    """The matrix the ensemble actually sees for this model's variant."""
    if model.manual_weights:
        X = apply_manual_weights(X, model.manual_weights)
    if model.variant == "random_attention":
        rng = np.random.default_rng(model.random_seed)
        block = rng.uniform(0.0, 1.0, size=(X.n_rows, model.random_k))
        return FeatureMatrix(values=np.hstack([X.values, block]),
                             feature_names=[*X.feature_names, *attn.attention_names(model.random_k)])
    if model.augment_mode == "none":
        return X
    return attn.augment(model.attention, X, model.augment_mode)


def fit_attnboost(
    X: FeatureMatrix,
    y: np.ndarray,
    attention_config: attn.TrainConfig,
    boost_config: gbdt.BoostConfig,
    augment_mode: str = "weighted-hidden",
    preprocessor: PreprocessorState | None = None,
) -> AttnBoostModel:
    """Train the network on the given split, freeze it, and boost on the widened matrix."""
    params, _ = attn.train(X, y, attention_config)
    model = AttnBoostModel(
        preprocessor=preprocessor,
        attention=params,
        augment_mode=augment_mode,
        ensemble=None,
        variant="full",
        attention_seed=attention_config.seed,
        boost_seed=boost_config.seed,
    )
    model.ensemble = gbdt.train_boosting(_model_inputs(model, X), y, boost_config)
    return model


def fit_variant(
    kind: str,
    X: FeatureMatrix,
    y: np.ndarray,
    attention_config: attn.TrainConfig,
    boost_config: gbdt.BoostConfig,
    augment_mode: str = "weighted-hidden",
    manual_weights: dict[str, float] | None = None,
    shallow_k: int = DEFAULT_SHALLOW_K,
    preprocessor: PreprocessorState | None = None,
) -> AttnBoostModel:
    """Fit one ablation condition; see VARIANT_KINDS for the closed set."""
    if kind not in VARIANT_KINDS:
        raise ValueError(f"unknown variant {kind!r}; expected one of {VARIANT_KINDS}")

    if kind == "full":
        return fit_attnboost(X, y, attention_config, boost_config, augment_mode, preprocessor)

    model = AttnBoostModel(
        preprocessor=preprocessor,
        attention=None,
        augment_mode="none",
        ensemble=None,
        variant=kind,
        attention_seed=attention_config.seed,
        boost_seed=boost_config.seed,
    )
    if kind == "manual_weights":
        if manual_weights is None:
            raise ValueError("variant manual_weights requires a weight map")
        model.manual_weights = dict(manual_weights)
    elif kind == "random_attention":
        model.random_k = attention_config.k
        model.random_seed = attention_config.seed
    elif kind == "frozen_attention":
        model.attention = attn.init_params(X.d, attention_config.k, attention_config.seed)
        model.augment_mode = augment_mode
    elif kind == "shallow_attention":
        model.attention, _ = attn.train(X, y, replace(attention_config, k=shallow_k))
        model.augment_mode = augment_mode
    # no_attention and equal_weight train on the raw matrix as-is

    model.ensemble = gbdt.train_boosting(_model_inputs(model, X), y, boost_config)
    return model


def predict_matrix(model: AttnBoostModel, X: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, labels at >= 0.5) for an already-preprocessed matrix."""
    proba = gbdt.predict_proba(model.ensemble, _model_inputs(model, X))
    return proba, (proba >= 0.5).astype(np.int64)


def predict(model: AttnBoostModel, table: RawTable) -> tuple[np.ndarray, np.ndarray]:
    """Preprocess raw rows with the model's fitted state, then score them."""
    if model.preprocessor is None:
        raise ValueError("model has no fitted preprocessor; use predict_matrix")
    X, _ = apply_preprocessor(model.preprocessor, table)
    return predict_matrix(model, X)
