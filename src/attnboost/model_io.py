"""Single-file model container with per-section integrity checksums.

The file is JSON with four sections (meta, preprocessor, attention, ensemble).
Arrays are base64-encoded little-endian bytes, float64 for real values and
int32 for node indices, split features and node counts, so a save/load round
trip reproduces bit-identical predictions on any platform. Each section's
checksum is validated before anything is constructed; a bad file never yields
a partially loaded model. The ensemble section stores the learner's own
record, its four node arrays over all trees' nodes and each tree's node count,
and is checked for structure on load in one pass over all trees. The meta
section must name a known variant and augment mode that agree with the
attention section, the ensemble's width must be the input width plus the
variant's block, and a section whose contents do not decode, such as a seed
that is not an integer, raises ModelFormatError like a damaged one, as does a
node value, gain, base score or attention parameter that is not finite, or a
learning rate outside (0, 1].
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
from .gbdt import NODE_DTYPES, Ensemble, Tree
from .tabular import ColumnSchema, PreprocessorState

FORMAT_NAME = "attnboost-model"
FORMAT_VERSION = 3
_NETWORK_FREE_VARIANTS = ("no_attention", "random_attention")  # fitted without a network
_ATTENTION_ARRAYS = ("W1", "b1", "W_attn", "b_attn", "w2")  # stored as float64 arrays
_INTEGERS = "<i4"  # file dtype of node counts and of the integer node arrays
_FILE_DTYPES = {name: _INTEGERS if dtype is np.intp else "<f8"
                for name, dtype in NODE_DTYPES.items()}


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


def _encode(arr, dtype: str = "<f8") -> dict:
    arr = np.asarray(arr)
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype(dtype).tobytes()).decode("ascii")}


def _decode(obj, dtype: str = "<f8") -> np.ndarray:
    """An array written by _encode with `dtype`, as float64 or, from _INTEGERS, intp."""
    raw = base64.b64decode(obj["data"])  # TypeError or ValueError on anything but ASCII text
    arr = np.frombuffer(raw, dtype=dtype).astype(np.intp if dtype == _INTEGERS else np.float64)
    return arr.reshape(obj["shape"])


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(payload) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _ensemble_payload(ensemble: Ensemble) -> dict:
    return {
        "base_raw": ensemble.base_raw,
        "learning_rate": ensemble.learning_rate,
        "feature_names": ensemble.feature_names,
        "node_counts": _encode(ensemble.node_counts, _INTEGERS),
        **{name: _encode(getattr(ensemble.nodes, name), dtype)
           for name, dtype in _FILE_DTYPES.items()},
    }


def _ensemble_from_payload(payload: dict) -> Ensemble:
    """Decode the ensemble and check, for all trees at once, that its arrays form trees.

    Every node count is positive, and every node array holds one entry per
    node of their sum. Within a tree a leaf has feature and right -1; an
    internal node i splits on a column of the model and its right child comes
    after its left one, i + 1, which rules out cycles; every node but the root
    has one parent. An error names the tree, and its node by tree-local index.
    """
    feature_names = list(payload["feature_names"])
    counts = _decode(payload["node_counts"], _INTEGERS)
    nodes = Tree(**{name: _decode(payload[name], dtype) for name, dtype in _FILE_DTYPES.items()})
    if counts.ndim != 1:
        raise ModelFormatError(f"node counts must be one-dimensional, got shape {counts.shape}")
    if (counts < 1).any():
        t = int(np.argmax(counts < 1))
        raise ModelFormatError(f"tree {t}: node count {counts[t]} is not positive")
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    arrays = [getattr(nodes, name) for name in _FILE_DTYPES]
    if any(a.shape != (total,) for a in arrays):
        raise ModelFormatError(f"node arrays must each hold the {total} nodes of the node "
                               f"counts, got shapes {[a.shape for a in arrays]}")

    local = np.arange(total) - np.repeat(ends - counts, counts)  # index within its tree
    size = np.repeat(counts, counts)  # node count of its tree
    feature, right = nodes.feature, nodes.right
    bad = np.where(feature == -1, right != -1,
                   (feature < 0) | (feature >= len(feature_names))
                   | (right <= local + 1) | (right >= size))

    def node(i: int) -> str:
        return f"tree {int(np.searchsorted(ends, i, side='right'))} node {local[i]}"

    if bad.any():
        i = int(np.argmax(bad))
        raise ModelFormatError(f"{node(i)}: feature {feature[i]}, right child {right[i]} "
                               f"do not form a tree over {len(feature_names)} features")
    split = np.flatnonzero(feature >= 0)
    parents = np.bincount(np.concatenate([split + 1, split - local[split] + right[split]]),
                          minlength=total)
    if (parents != (local > 0)).any():
        i = int(np.argmax(parents != (local > 0)))
        raise ModelFormatError(f"{node(i)}: has {parents[i]} parents, expected one")
    for name in ("value", "gain"):
        values = getattr(nodes, name)
        if not np.isfinite(values).all():
            i = int(np.argmax(~np.isfinite(values)))
            raise ModelFormatError(f"section 'ensemble' {node(i)}: {name} {values[i]} "
                                   "is not finite")
    ensemble = Ensemble(nodes, counts, float(payload["base_raw"]),
                        float(payload["learning_rate"]), feature_names)
    if not np.isfinite(ensemble.base_raw):
        raise ModelFormatError(f"section 'ensemble': base_raw {ensemble.base_raw} is not finite")
    if not 0.0 < ensemble.learning_rate <= 1.0:  # the range BoostConfig accepts
        raise ModelFormatError(f"section 'ensemble': learning_rate {ensemble.learning_rate} "
                               "is outside (0, 1]")
    return ensemble


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
    return {"d": params.d, "k": params.k, "b2": params.b2,
            **{name: _encode(getattr(params, name)) for name in _ATTENTION_ARRAYS}}


def _attention_from_payload(payload) -> AttentionParams | None:
    if payload is None:
        return None
    return AttentionParams(**{name: _decode(payload[name]) for name in _ATTENTION_ARRAYS},
                           b2=float(payload["b2"]), d=_integer(payload, "d"),
                           k=_integer(payload, "k"))


def _integer(payload: dict, key: str) -> int:
    if type(payload[key]) is not int:  # a JSON float or boolean is not read as one
        raise TypeError(f"{key} must be an integer, got {payload[key]!r}")
    return payload[key]


def _meta_from_payload(meta: dict) -> dict:
    for key, allowed in (("variant", VARIANT_KINDS), ("augment_mode", (*AUGMENT_MODES, "none"))):
        if meta[key] not in allowed:
            raise ModelFormatError(f"unknown {key} {meta[key]!r}; expected one of {allowed}")
    return {"variant": meta["variant"], "augment_mode": meta["augment_mode"],
            **{key: _integer(meta, key) for key in ("attention_seed", "boost_seed", "random_k")}}


# each section's decoder, in the order the file's sections are checked and read
_SECTIONS = {"meta": _meta_from_payload, "preprocessor": _preprocessor_from_payload,
             "attention": _attention_from_payload, "ensemble": _ensemble_from_payload}


def save_model(model: AttnBoostModel, path: str, fingerprint: str = "") -> None:
    """Write the model atomically; output bytes are deterministic."""
    sections = {
        "meta": {
            "variant": model.variant,
            "augment_mode": model.augment_mode,
            "attention_seed": model.attention_seed,
            "boost_seed": model.boost_seed,
            "random_k": model.random_k,
            "fingerprint": fingerprint,
        },
        "preprocessor": _preprocessor_payload(model.preprocessor),
        "attention": _attention_payload(model.attention),
        "ensemble": _ensemble_payload(model.ensemble),
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
    if not isinstance(stored, dict):
        raise ModelFormatError(f"{path}: sections must be a JSON object")
    payloads = {}
    for name in _SECTIONS:
        if name not in stored:
            raise ModelFormatError(f"{path}: missing section {name!r}")
        if not isinstance(stored[name], dict):
            raise ModelFormatError(f"{path}: section {name!r} must be a JSON object")
        payload = stored[name].get("payload")
        if _checksum(payload) != stored[name].get("checksum"):
            raise ModelFormatError(f"{path}: checksum mismatch in section {name!r}")
        payloads[name] = payload

    try:
        return _model_from_payloads(payloads)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _model_from_payloads(payloads: dict) -> AttnBoostModel:
    parts = {}
    for name, decode in _SECTIONS.items():
        try:
            parts[name] = decode(payloads[name])
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"section {name!r}: malformed section contents "
                                   f"({type(exc).__name__}: {exc})") from exc
    model = AttnBoostModel(**parts.pop("meta"), **parts)
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
        for name in (*_ATTENTION_ARRAYS, "b2"):
            if not np.isfinite(getattr(params, name)).all():
                raise ModelFormatError(f"section 'attention': {name} holds a value that is "
                                       "not finite")
    if model.preprocessor is not None:
        inputs["preprocessor"] = len(model.preprocessor.feature_names)
    width = len(model.ensemble.feature_names)
    for source, columns in inputs.items():
        if columns + block != width:
            raise ModelFormatError(f"ensemble has {width} columns but the {source} width "
                                   f"{columns} plus the {block}-column block is {columns + block}")
