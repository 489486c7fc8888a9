"""Single-file model container with per-section integrity checksums.

The file is JSON with four sections (meta, preprocessor, attention, ensemble).
Float arrays are base64-encoded little-endian float64 bytes, so a save/load
round trip reproduces bit-identical predictions on any platform. Each
section's checksum is validated before anything is constructed; a bad file
never yields a partially loaded model. Trees are stored as the learner's own
pre-order node arrays and checked for structure on load. The preprocessor
section holds only what applying it reads; sections are read by key, so a key
an older file still carries (`date_plan`, `unseen_codes`) is ignored. The meta
section must name a known variant and augment mode that agree with the
attention section, the ensemble's width must be the input width plus the
variant's block, and a section whose contents do not decode raises
ModelFormatError like a damaged one.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile

import numpy as np

from .attention import AUGMENT_MODES, AttentionParams
from .errors import ModelFormatError
from .fusion import VARIANT_KINDS, AttnBoostModel
from .gbdt import Ensemble, Tree
from .tabular import ColumnSchema, PreprocessorState

FORMAT_NAME = "attnboost-model"
FORMAT_VERSION = 1
_SECTIONS = ("meta", "preprocessor", "attention", "ensemble")
_NETWORK_FREE_VARIANTS = ("no_attention", "random_attention")  # fitted without a network


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".attnboost-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encode_f64(arr) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def _decode_f64(obj) -> np.ndarray:
    raw = base64.b64decode(obj["data"].encode("ascii"))
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(obj["shape"])


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(payload) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _tree_payload(tree: Tree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "threshold": _encode_f64(tree.threshold),
        "weight": _encode_f64(tree.weight),
        "gain": _encode_f64(tree.gain),
    }


def _tree_from_payload(payload: dict, t: int, n_features: int) -> Tree:
    """Decode tree t's arrays and check that they form a tree over n_features columns.

    A leaf has feature, left and right all -1; an internal node splits on a
    column of the model and both its children come after it, as in pre-order,
    which rules out cycles.
    """
    feature, left, right = (np.array(payload[k], dtype=np.intp)
                            for k in ("feature", "left", "right"))
    threshold, weight, gain = (_decode_f64(payload[k]) for k in ("threshold", "weight", "gain"))
    arrays = (feature, left, right, threshold, weight, gain)
    if any(a.ndim != 1 or a.size != feature.size for a in arrays) or feature.size == 0:
        raise ModelFormatError(
            f"tree {t}: node arrays must be non-empty and of equal length, got lengths "
            f"{[a.size for a in arrays]}")
    node = np.arange(feature.size)
    leaf = feature == -1
    bad = np.where(leaf, (left != -1) | (right != -1),
                   (feature < 0) | (feature >= n_features)
                   | (left <= node) | (left >= node.size)
                   | (right <= node) | (right >= node.size))
    if bad.any():
        i = int(np.argmax(bad))
        raise ModelFormatError(
            f"tree {t} node {i}: feature {feature[i]}, children {left[i]}/{right[i]} "
            f"do not form a tree over {n_features} features")
    return Tree(feature=feature, threshold=threshold, left=left, right=right, weight=weight,
                gain=gain)


def _preprocessor_payload(state: PreprocessorState | None):
    if state is None:
        return None
    return {
        "schema": [[c.name, c.kind, c.nullable] for c in state.schema],
        "category_maps": state.category_maps,
        "numeric_stats": {k: list(v) for k, v in state.numeric_stats.items()},
        "dropped_columns": state.dropped_columns,
        "feature_names": state.feature_names,
        "target_name": state.target_name,
        "target_positive": state.target_positive,
    }


def _preprocessor_from_payload(payload) -> PreprocessorState | None:
    if payload is None:
        return None
    return PreprocessorState(
        schema=[ColumnSchema(n, k, bool(nl)) for n, k, nl in payload["schema"]],
        category_maps={c: dict(m) for c, m in payload["category_maps"].items()},
        numeric_stats={k: (v[0], v[1]) for k, v in payload["numeric_stats"].items()},
        dropped_columns=list(payload["dropped_columns"]),
        feature_names=list(payload["feature_names"]),
        target_name=payload["target_name"],
        target_positive=payload["target_positive"],
    )


def _attention_payload(params: AttentionParams | None):
    if params is None:
        return None
    return {
        "d": params.d,
        "k": params.k,
        "W1": _encode_f64(params.W1),
        "b1": _encode_f64(params.b1),
        "W_attn": _encode_f64(params.W_attn),
        "b_attn": _encode_f64(params.b_attn),
        "w2": _encode_f64(params.w2),
        "b2": params.b2,
    }


def _attention_from_payload(payload) -> AttentionParams | None:
    if payload is None:
        return None
    return AttentionParams(
        W1=_decode_f64(payload["W1"]),
        b1=_decode_f64(payload["b1"]),
        W_attn=_decode_f64(payload["W_attn"]),
        b_attn=_decode_f64(payload["b_attn"]),
        w2=_decode_f64(payload["w2"]),
        b2=float(payload["b2"]),
        d=int(payload["d"]),
        k=int(payload["k"]),
    )


def save_model(model: AttnBoostModel, path: str, fingerprint: str = "") -> None:
    """Write the model atomically; output bytes are deterministic."""
    sections = {
        "meta": {
            "variant": model.variant,
            "augment_mode": model.augment_mode,
            "attention_seed": model.attention_seed,
            "boost_seed": model.boost_seed,
            "random_k": model.random_k,
            "random_seed": model.random_seed,
            "fingerprint": fingerprint,
        },
        "preprocessor": _preprocessor_payload(model.preprocessor),
        "attention": _attention_payload(model.attention),
        "ensemble": {
            "base_raw": model.ensemble.base_raw,
            "learning_rate": model.ensemble.learning_rate,
            "feature_names": model.ensemble.feature_names,
            "trees": [_tree_payload(t) for t in model.ensemble.trees],
        },
    }
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "sections": {
            name: {"payload": payload, "checksum": _checksum(payload)}
            for name, payload in sections.items()
        },
    }
    write_text_atomic(path, json.dumps(document, sort_keys=True, separators=(",", ":")))


def load_model(path: str) -> AttnBoostModel:
    """Read and fully validate a model file; raises ModelFormatError on damage."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is truncated or not a model file: {exc}") from exc

    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path} is not an attnboost model file")
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model format version {version!r}, expected {FORMAT_VERSION}"
        )
    stored = document.get("sections", {})
    payloads = {}
    for name in _SECTIONS:
        if name not in stored:
            raise ModelFormatError(f"{path}: missing section {name!r}")
        payload = stored[name].get("payload")
        if _checksum(payload) != stored[name].get("checksum"):
            raise ModelFormatError(f"{path}: checksum mismatch in section {name!r}")
        payloads[name] = payload

    try:
        return _model_from_payloads(payloads)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(
            f"{path}: malformed section contents ({type(exc).__name__}: {exc})") from exc


def _model_from_payloads(payloads: dict) -> AttnBoostModel:
    meta = payloads["meta"]
    for key, allowed in (("variant", VARIANT_KINDS), ("augment_mode", (*AUGMENT_MODES, "none"))):
        if meta[key] not in allowed:
            raise ModelFormatError(f"unknown {key} {meta[key]!r}; expected one of {allowed}")
    ensemble_payload = payloads["ensemble"]
    feature_names = list(ensemble_payload["feature_names"])
    ensemble = Ensemble(
        trees=[_tree_from_payload(tree, t, len(feature_names))
               for t, tree in enumerate(ensemble_payload["trees"])],
        base_raw=float(ensemble_payload["base_raw"]),
        learning_rate=float(ensemble_payload["learning_rate"]),
        feature_names=feature_names,
    )
    model = AttnBoostModel(
        preprocessor=_preprocessor_from_payload(payloads["preprocessor"]),
        attention=_attention_from_payload(payloads["attention"]),
        augment_mode=meta["augment_mode"],
        ensemble=ensemble,
        variant=meta["variant"],
        attention_seed=int(meta["attention_seed"]),
        boost_seed=int(meta["boost_seed"]),
        random_k=int(meta["random_k"]),
        random_seed=int(meta["random_seed"]),
    )
    _check_sections_agree(model)
    return model


def _check_sections_agree(model: AttnBoostModel) -> None:
    """Meta, attention and ensemble must describe one model, as fit_variant builds it.

    A network variant has an attention section and an augment mode; no_attention
    and random_attention have neither, and random_attention draws random_k >= 1
    columns. The ensemble reads the input columns followed by the block.
    """
    variant, mode, params = model.variant, model.augment_mode, model.attention
    wants_network = variant not in _NETWORK_FREE_VARIANTS
    if (mode != "none") != wants_network or (params is not None) != wants_network:
        raise ModelFormatError(
            f"variant {variant!r} with augment_mode {mode!r} does not match an attention "
            f"section that is {'absent' if params is None else 'present'}")
    if variant == "random_attention" and model.random_k < 1:
        raise ModelFormatError(f"random_attention needs random_k >= 1, got {model.random_k}")
    block = model.random_k if variant == "random_attention" else 0
    inputs = {}  # input width, by the section that records it
    if params is not None:
        k, d = params.k, params.d
        block, inputs["attention input"] = k, d
        for name, shape in (("W1", (k, d)), ("b1", (k,)), ("W_attn", (k, k)),
                            ("b_attn", (k,)), ("w2", (k,))):
            if getattr(params, name).shape != shape:
                raise ModelFormatError(f"attention {name} has shape "
                                       f"{getattr(params, name).shape}, expected {shape}")
    if model.preprocessor is not None:
        inputs["preprocessor"] = len(model.preprocessor.feature_names)
    width = len(model.ensemble.feature_names)
    for source, columns in inputs.items():
        if columns + block != width:
            raise ModelFormatError(f"ensemble has {width} columns but the {source} width "
                                   f"{columns} plus the {block}-column block is {columns + block}")
