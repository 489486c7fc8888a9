"""AttnBoost: attention-augmented gradient boosting for tabular binary classification."""

from .attention import AttentionParams, TrainConfig, augment, init_params
from .attention import train as train_attention
from .errors import AttnBoostError, ConfigError, DataError, ModelFormatError
from .fusion import AttnBoostModel, VARIANT_KINDS, apply_manual_weights, fit_attnboost, fit_variant, predict, predict_matrix
from .gbdt import BoostConfig, Ensemble, bin_features, build_histogram, find_best_split, leaf_weight, logistic_grad_hess, predict_proba, predict_raw, train_boosting
from .importance import ImportanceTable, collapse_attention_block, gain_importance, rank_report
from .metrics import ConfusionMatrix, MetricsReport, auc, compute_metrics, confusion_matrix, evaluate_scores
from .model_io import load_model, save_model
from .experiments import (
    ExperimentResult,
    SyntheticSpec,
    baseline_logistic,
    baseline_stump,
    generate_synthetic,
    run_ablation,
    run_feature_removal,
)
from .tabular import (
    ColumnSchema,
    FeatureMatrix,
    PreprocessorState,
    RawTable,
    apply_preprocessor,
    decompose_date,
    fit_preprocessor,
    load_csv,
    retail_schema,
    stratified_split,
)

__version__ = "0.1.0"
