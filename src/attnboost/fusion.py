"""Composite model: preprocessing, attention features, and boosted trees.

The full pipeline trains the gated network on the training split, freezes it,
appends its features to the input matrix, then trains the tree ensemble on
the widened matrix. The other four ablation variants change or bypass the
network stage: `frozen_attention` is `full` fitted for zero epochs,
`shallow_attention` is `full` at width SHALLOW_K, `no_attention` boosts on
the input matrix alone, and `random_attention` widens it with uniforms drawn
from each row's own values, so a row's score never depends on the rows scored
with it. A network's features are always its gated hidden layer h * alpha.
A model is its preprocessor, its block and its trees; the block's type alone
decides how a matrix is widened: a network, a RandomBlock or None.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import attention as attn
from . import gbdt
from .tabular import FeatureMatrix, PreprocessorState, RawTable, apply_preprocessor

VARIANT_KINDS = (
    "full",
    "no_attention",
    "random_attention",
    "frozen_attention",
    "shallow_attention",
)
# the variants that widen the matrix with a network; the others have none
NETWORK_VARIANTS = ("full", "frozen_attention", "shallow_attention")

SHALLOW_K = 16


@dataclass(frozen=True)
class RandomBlock:
    """random_attention's block: k uniforms in [0, 1) per row, a pure function of (seed,
    the row's float64 bytes).

    A blake2b of each row keyed by the seed gives a 64-bit key, and SplitMix64
    over (key, column) counters spreads it into the row's k draws, so a row's
    block does not depend on the rows scored with it.
    """

    k: int
    seed: int

    def draw(self, values: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(values, dtype=np.float64)
        key = str(self.seed).encode()
        digests = b"".join(hashlib.blake2b(row.tobytes(), digest_size=8, key=key).digest()
                           for row in rows)
        z = np.frombuffer(digests, dtype="<u8").astype(np.uint64)[:, None]
        z = z + np.arange(1, self.k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)) * 2.0**-53


# what widens the input matrix: a network, random uniforms, or nothing
Block = attn.AttentionParams | RandomBlock | None


@dataclass
class AttnBoostModel:
    """A fitted variant, its ensemble over column_names(attention, input names). `attention`,
    named like the file section that holds it, is the block: a NETWORK_VARIANTS model's
    network, random_attention's RandomBlock, or None. `preprocessor` is None only for a
    model fitted in memory on a matrix, which save_model refuses."""

    preprocessor: PreprocessorState | None
    attention: Block
    ensemble: gbdt.Ensemble
    variant: str


def column_names(block: Block, inputs: list[str]) -> list[str]:
    """The ensemble's columns: the inputs, then attn_<i> for each of the block's k columns."""
    return [*inputs, *attn.attention_names(0 if block is None else block.k)]


def _widen(block: Block, X: FeatureMatrix) -> FeatureMatrix:
    """The matrix the ensemble sees: X followed by the block's columns."""
    if block is None:
        return X
    if isinstance(block, RandomBlock):
        return FeatureMatrix(values=np.hstack([X.values, block.draw(X.values)]),
                             feature_names=column_names(block, X.feature_names))
    return attn.augment(block, X)


def fit_variant(
    kind: str,
    X: FeatureMatrix,
    y: np.ndarray,
    attention_config: attn.TrainConfig,
    boost_config: gbdt.BoostConfig,
    preprocessor: PreprocessorState | None = None,
) -> AttnBoostModel:
    """Fit one ablation condition; see VARIANT_KINDS for the closed set.

    `full` is AttnBoost itself: train the network on the given split, freeze
    it, and boost on the widened matrix.
    """
    if kind not in VARIANT_KINDS:
        raise ValueError(f"unknown variant {kind!r}; expected one of {VARIANT_KINDS}")

    if kind == "frozen_attention":
        attention_config = replace(attention_config, epochs=0)
    elif kind == "shallow_attention":
        attention_config = replace(attention_config, k=SHALLOW_K)
    block = None  # no_attention trains on the raw matrix as-is
    if kind in NETWORK_VARIANTS:
        block, _ = attn.train(X, y, attention_config)
    elif kind == "random_attention":
        block = RandomBlock(attention_config.k, attention_config.seed)

    ensemble = gbdt.train_boosting(_widen(block, X), y, boost_config)
    return AttnBoostModel(preprocessor, block, ensemble, kind)


def predict_matrix(model: AttnBoostModel, X: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, labels at >= 0.5) for an already-preprocessed matrix."""
    proba = gbdt.predict_proba(model.ensemble, _widen(model.attention, X))
    return proba, (proba >= 0.5).astype(np.int64)


def predict(model: AttnBoostModel, table: RawTable) -> tuple[np.ndarray, np.ndarray]:
    """Preprocess raw rows with the model's fitted state, then score them."""
    if model.preprocessor is None:
        raise ValueError("model has no fitted preprocessor; use predict_matrix")
    X, _ = apply_preprocessor(model.preprocessor, table)
    return predict_matrix(model, X)
