"""Single-file model container with per-section integrity checksums.

The file is JSON with four sections (meta, preprocessor, attention, ensemble)
and stores only what scoring reads, none of it derivable: the preprocessor
holds the kept feature columns and the target only, the ensemble's columns
are the preprocessor's followed by the block's (fusion.column_names), the
network's sizes are W1's shape, each leaf holds its weight times the
learning rate, and a category value's code is its index in the column's
sorted values. Arrays are base64-encoded little-endian bytes and a shape,
float64 for real values and int32 for split features and node counts, so a
round trip reproduces bit-identical predictions on any platform. save_model
takes only a model with a preprocessor whose ensemble reads those columns,
and a string fingerprint.

A file loads only if save_model would write exactly that file for the model
it decodes to. The document and each section hold exactly the keys it writes,
and each payload is a JSON object (the attention's may be null). Each payload
is decoded with every scalar read as the type save_model writes; its stored
checksum must then be that of what save_model writes for what it decoded to,
before the next is read, which finds a damaged byte and any key, type or
spelling the writer does not produce (a k of 6.0 or true, a shape of -1).
Decoding checks what a round trip cannot see: tree structure, finite values,
the network's shapes and width, what fitting guarantees of the preprocessor,
the variant against its block and TrainConfig's ranges for random_attention.
Every refusal names the section and the key, tree or column.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import tempfile
from dataclasses import fields
from functools import partial

import numpy as np

from .attention import AttentionParams, TrainConfig
from .errors import DataError, ModelFormatError
from .fusion import VARIANT_KINDS, AttnBoostModel, Block, RandomBlock, column_names
from .gbdt import Ensemble, Tree
from .tabular import (EPSILON_STD, TARGET_NEGATIVE, ColumnSchema, PreprocessorState,
                      _validate_schema)

FORMAT_NAME = "attnboost-model"
FORMAT_VERSION = 11
_INTEGERS = "<i4"  # file dtype of node counts and split features


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


def _encode(arr) -> dict:
    """An array as base64 bytes, of _INTEGERS for integers and float64 for the rest."""
    arr = np.asarray(arr)
    dtype = _INTEGERS if arr.dtype.kind in "iu" else "<f8"
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype(dtype).tobytes()).decode("ascii")}


def _decode(payload: dict, key: str, dtype: str = "<f8") -> np.ndarray:
    """payload[key], written by _encode with `dtype`, as float64 or, from _INTEGERS, intp."""
    stored = payload[key]
    try:  # a shape of -1 or null decodes, and the round trip refuses it
        arr = np.frombuffer(base64.b64decode(stored["data"]), dtype=dtype)
        return arr.astype(np.intp if dtype == _INTEGERS else np.float64).reshape(stored["shape"])
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(payload) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _ensemble_payload(ensemble: Ensemble) -> dict:
    nodes = ensemble.nodes
    return {
        "node_counts": ensemble.node_counts,
        "feature": nodes.feature,
        "value": nodes.value,
        "gain": nodes.gain[nodes.feature >= 0],  # a leaf's is 0
    }


def _ensemble_from_payload(payload: dict, feature_names: list[str]) -> Ensemble:
    """Decode the ensemble over the named columns and check, for all trees at once, that
    its arrays form trees.

    Every node count is positive, `feature` and `value` hold one entry per node
    of their sum and `gain` one per split. A feature is -1 (a leaf) or one of
    the columns. A tree's running count, +1 per split and -1 per leaf, stays
    at or above 0 until its last node and reaches -1 exactly there. An error
    names the tree, and its node by tree-local index.
    """
    counts = _decode(payload, "node_counts", _INTEGERS).ravel()  # the round trip checks shape
    feature, value = _decode(payload, "feature", _INTEGERS), _decode(payload, "value")
    split_gain = _decode(payload, "gain")
    if (counts < 1).any():
        t = int(np.argmax(counts < 1))
        raise ModelFormatError(f"section 'ensemble' tree {t}: node count {counts[t]} is not "
                               "positive")
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if feature.shape != (total,) or value.shape != (total,):
        raise ModelFormatError(f"section 'ensemble': node arrays must each hold the {total} "
                               f"nodes counted, got shapes {[feature.shape, value.shape]}")

    tree = np.repeat(np.arange(counts.size), counts)  # each node's tree
    local = np.arange(total) - (ends - counts)[tree]  # its index within the tree

    def reject_first(bad: np.ndarray, describe) -> None:
        if bad.any():
            i = int(np.argmax(bad))
            raise ModelFormatError(f"section 'ensemble' tree {tree[i]} node {local[i]}: "
                                   f"{describe(i)}")

    width = len(feature_names)
    reject_first((feature < -1) | (feature >= width),
                 lambda i: f"feature {feature[i]} is not -1 or one of the {width} columns")
    # after each node, within its tree once every tree before it has closed at -1
    count = np.cumsum(np.where(feature < 0, -1, 1)) + tree
    last = local == (counts - 1)[tree]
    reject_first(np.where(last, count != -1, count < 0), lambda i: (
        f"the tree's last node leaves {count[i] + 1} children missing" if last[i]
        else "the tree is complete here, before its last node"))
    split = feature >= 0
    if split_gain.shape != (split.sum(),):
        raise ModelFormatError(f"section 'ensemble': {split.sum()} splits, but gain has shape "
                               f"{split_gain.shape}")
    gain = np.zeros(total)
    gain[split] = split_gain
    for name, values in (("value", value), ("gain", gain)):
        reject_first(~np.isfinite(values), lambda i: f"{name} {values[i]} is not finite")
    return Ensemble(Tree(feature, value, gain), counts, feature_names)


def _preprocessor_payload(state: PreprocessorState) -> dict:
    return {
        "schema": [[c.name, c.kind, c.nullable] for c in state.schema],
        "category_maps": {c: sorted(m, key=m.get) for c, m in state.category_maps.items()},
        "numeric_stats": {k: list(v) for k, v in state.numeric_stats.items()},
        "target_positive": state.target_positive,
    }


def _read(section: str, key: str, value, read):
    """read(value); a value `read` cannot take fails naming the section and the key."""
    try:
        return read(value)
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"section {section!r} {key}: cannot read {value!r} ({exc})")


def _preprocessor_from_payload(payload) -> PreprocessorState:
    """Decode the preprocessor state and check what fit_preprocessor guarantees.

    Each schema entry is a name, a known kind and a nullable flag; the names
    are unique and one column is the binary target. The target's positive
    value is other than TARGET_NEGATIVE. Each category or string column has
    its values, at least one, distinct and sorted, each coded by its index,
    and each numeric column a [mean, standard deviation] pair of finite
    numbers, the deviation at least EPSILON_STD; no other column has either.
    An error names the key, and the column.
    """
    read = partial(_read, "preprocessor")
    schema = read("schema", payload["schema"], lambda entries: [
        ColumnSchema(str(name), kind, bool(nullable)) for name, kind, nullable in entries])
    category_maps = {c: read(f"category_maps {c!r}", values, lambda vs: [str(v) for v in vs])
                     for c, values in read("category_maps", payload["category_maps"], dict.items)}
    numeric_stats = {c: read(f"numeric_stats {c!r}", pair, lambda vs: tuple(map(float, vs)))
                     for c, pair in read("numeric_stats", payload["numeric_stats"], dict.items)}
    positive = str(payload["target_positive"])
    try:
        _validate_schema(schema)
    except DataError as exc:
        raise ModelFormatError(f"section 'preprocessor' schema: {exc}") from exc
    (target,) = [c.name for c in schema if c.kind == "binary-target"]
    if positive == TARGET_NEGATIVE:
        raise ModelFormatError(f"section 'preprocessor' target_positive: column {target!r} "
                               f"needs a string other than {TARGET_NEGATIVE!r}, got {positive!r}")
    for key, stored, kinds in (("category_maps", category_maps, ("category", "string")),
                               ("numeric_stats", numeric_stats, ("integer", "float"))):
        wanted = sorted(c.name for c in schema if c.kind in kinds)
        if sorted(stored) != wanted:
            raise ModelFormatError(f"section 'preprocessor' {key}: holds columns "
                                   f"{sorted(stored)}, expected {wanted}")
    for column, values in category_maps.items():
        if not values or values != sorted(set(values)):  # a fitted column has a row
            raise ModelFormatError(f"section 'preprocessor' category_maps {column!r}: values "
                                   "must be distinct and in sorted order, and at least one")
        category_maps[column] = {value: code for code, value in enumerate(values)}
    for column, stats in numeric_stats.items():
        if not (len(stats) == 2 and math.isfinite(stats[0]) and EPSILON_STD <= stats[1] < math.inf):
            raise ModelFormatError(f"section 'preprocessor' numeric_stats {column!r}: expected "
                                   "a finite mean and a finite standard deviation of at least "
                                   f"{EPSILON_STD}, got {list(stats)}")
    return PreprocessorState(schema=schema, category_maps=category_maps,
                             numeric_stats=numeric_stats, target_positive=positive)


def _attention_payload(block: Block):
    """The block's fields: the network's arrays, random_attention's k and seed."""
    return None if block is None else {f.name: getattr(block, f.name) for f in fields(block)}


def _attention_from_payload(payload, variant: str, inputs: int) -> Block:
    """Decode the block the variant reads: none for no_attention, random_attention's k
    and seed in the ranges TrainConfig allows, or a network over `inputs` columns, whose
    k units and d inputs are the shape of W1, every other array of the shape k gives and
    every parameter finite."""
    if (payload is None) != (variant == "no_attention"):
        raise ModelFormatError(f"section 'attention': variant {variant!r} does not match an "
                               f"attention section that is "
                               f"{'absent' if payload is None else 'present'}")
    if payload is None:
        return None
    if variant == "random_attention":
        block = RandomBlock(*(_read("attention", key, payload[key], int) for key in ("k", "seed")))
        TrainConfig(k=block.k, seed=block.seed)  # raises a ValueError that names the key
        return block
    params = AttentionParams(**{f.name: _decode(payload, f.name) for f in fields(AttentionParams)})
    if params.W1.ndim != 2 or 0 in params.W1.shape:  # the sizes init_params accepts
        raise ModelFormatError(f"section 'attention': W1 has shape {params.W1.shape}, expected "
                               "a matrix with at least one row and one column")
    k = params.k
    for name, shape in (("W1", (k, inputs)), ("b1", (k,)), ("W_attn", (k, k)), ("b_attn", (k,))):
        value = getattr(params, name)
        if value.shape != shape:
            raise ModelFormatError(f"section 'attention': {name} has shape {value.shape}, "
                                   f"expected {shape}")
        if not np.isfinite(value).all():
            raise ModelFormatError(f"section 'attention': {name} holds a value that is not "
                                   "finite")
    return params


def _meta_payload(meta: tuple[str, str]) -> dict:
    variant, fingerprint = meta
    return {"variant": variant, "fingerprint": fingerprint}


def _meta_from_payload(meta: dict) -> tuple[str, str]:
    """The variant, checked to be known, and the fingerprint."""
    if meta["variant"] not in VARIANT_KINDS:
        raise ModelFormatError(f"section 'meta': unknown variant {meta['variant']!r}; "
                               f"expected one of {VARIANT_KINDS}")
    return meta["variant"], str(meta["fingerprint"])


# the file's sections, in the order they are checked and read
_SECTIONS = ("meta", "preprocessor", "attention", "ensemble")


def _payloads(model: AttnBoostModel, fingerprint: str) -> dict:
    """Each section's payload by section name, its arrays not yet encoded."""
    return {
        "meta": _meta_payload((model.variant, fingerprint)),
        "preprocessor": _preprocessor_payload(model.preprocessor),
        "attention": _attention_payload(model.attention),
        "ensemble": _ensemble_payload(model.ensemble),
    }


def _encoded(payload: dict | None) -> dict | None:
    """A payload of _payloads as the file stores it, each array encoded by _encode."""
    if payload is None:
        return None
    return {key: _encode(value) if isinstance(value, np.ndarray) else value
            for key, value in payload.items()}


def save_model(model: AttnBoostModel, path: str, fingerprint: str = "") -> None:
    """Write the model atomically; output bytes are deterministic. Only a model with a
    preprocessor whose ensemble reads the columns the loader derives, and a string
    fingerprint, are saved."""
    if model.preprocessor is None:
        raise ValueError("only a model with its fitted preprocessor can be saved")
    if not isinstance(fingerprint, str):
        raise ValueError(f"the fingerprint must be a string, got {fingerprint!r}")
    if model.ensemble.feature_names != column_names(model.attention,
                                                    model.preprocessor.feature_names):
        raise ValueError("the ensemble's columns are not the preprocessor's followed by the "
                         "block's, the names a loaded model derives")
    sections = {name: _encoded(payload) for name, payload in _payloads(model, fingerprint).items()}
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
    if type(version) is not int or version != FORMAT_VERSION:  # a float may equal it
        raise ModelFormatError(f"{path}: unsupported model format version {version!r}, "
                               f"expected {FORMAT_VERSION}")
    _check_keys(path, document, ("format", "version", "sections"))
    try:
        return _model_from_sections(document["sections"])
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _check_keys(where: str, value, keys: tuple) -> None:
    """`value` is a JSON object of exactly `keys`; an error names `where` and the key."""
    if not isinstance(value, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    missing, extra = sorted(set(keys) - set(value)), sorted(set(value) - set(keys))
    if missing or extra:
        raise ModelFormatError(f"{where}: key {missing[0]!r} is missing" if missing
                               else f"{where}: key {extra[0]!r} is not one save_model writes")


def _model_from_sections(stored: dict) -> AttnBoostModel:
    """The model, its block decoded as the variant says and its ensemble over derived
    columns; each section is read only as save_model writes it for what it decodes to."""
    _check_keys("sections", stored, _SECTIONS)

    def read(name, decoder, writer, *args):
        _check_keys(f"section {name!r}", stored[name], ("payload", "checksum"))
        payload = stored[name]["payload"]
        if not isinstance(payload, dict) and (payload is not None or name != "attention"):
            raise ModelFormatError(f"section {name!r}: payload must be a JSON object"
                                   + (" or null" if name == "attention" else ""))
        try:
            value = decoder(payload, *args)
        except KeyError as exc:
            raise ModelFormatError(f"section {name!r}: key {exc.args[0]!r} is missing") from exc
        except ValueError as exc:  # from _decode or TrainConfig, naming the key first
            raise ModelFormatError(f"section {name!r}: {exc}") from exc
        _check_as_written(name, stored[name], writer(value))
        return value

    variant, fingerprint = read("meta", _meta_from_payload, _meta_payload)
    preprocessor = read("preprocessor", _preprocessor_from_payload, _preprocessor_payload)
    inputs = preprocessor.feature_names
    block = read("attention", _attention_from_payload, _attention_payload, variant, len(inputs))
    ensemble = read("ensemble", _ensemble_from_payload, _ensemble_payload,
                    column_names(block, inputs))
    return AttnBoostModel(preprocessor, block, ensemble, variant)


def _check_as_written(name: str, stored: dict, payload) -> None:
    """The section's stored checksum is that of `payload`, what save_model writes for it,
    encoded; an error names the first key whose canonical JSON differs, if one does."""
    payload = _encoded(payload)
    if _checksum(payload) == stored["checksum"]:
        return
    read, payload = stored["payload"] or {}, payload or {}
    keys = [key for key in sorted({*read, *payload})
            if key not in payload or _canonical(read.get(key)) != _canonical(payload[key])]
    if not keys:
        raise ModelFormatError(f"checksum mismatch in section {name!r}")
    raise ModelFormatError(f"section {name!r}: key {keys[0]!r} is " + (
        "not stored as save_model writes it" if keys[0] in payload
        else "not one save_model writes"))
