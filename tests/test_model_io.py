"""Tests for the checksummed model container."""

import copy
import hashlib
import json
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from attnboost.attention import TrainConfig
from attnboost.errors import ModelFormatError
from attnboost.experiments import SyntheticSpec, generate_synthetic
from attnboost.fusion import (NETWORK_VARIANTS, VARIANT_KINDS, RandomBlock, fit_variant,
                              predict_matrix)
from attnboost.gbdt import BoostConfig
from attnboost.importance import gain_importance, rank_report
from attnboost.cli import run_command
from attnboost.model_io import (FORMAT_VERSION, _canonical, _checksum, _decode, _encode,
                                load_model, save_model)
from attnboost.tabular import apply_preprocessor, fit_preprocessor, stratified_split

FAST_ATTN = TrainConfig(k=6, epochs=2, seed=0)
FAST_BOOST = BoostConfig(n_estimators=10, max_depth=3, min_child_weight=0.5,
                         gamma=0.0, seed=42)
PINNED_SHA256 = "9f24fb50c2438fd3239bea8d38780a9897b610dcb523c1e2de360c212abdd590"
# how the loader names a key whose stored value save_model would not write for the model
AS_WRITTEN = "is not stored as save_model writes it"


@pytest.fixture(scope="module")
def fitted():
    table = generate_synthetic(SyntheticSpec(n_rows=300, seed=2))
    state = fit_preprocessor(table, [])
    X, y = apply_preprocessor(state, table)
    split = stratified_split(X, y, 0.8, 42)
    models = {
        kind: fit_variant(kind, split.X_train, split.y_train, FAST_ATTN, FAST_BOOST,
                          preprocessor=state)
        for kind in VARIANT_KINDS
    }
    return models, split.X_test


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["full", "no_attention", "random_attention"])
    def test_probabilities_bit_identical(self, fitted, tmp_path, kind):
        models, X_test = fitted
        path = str(tmp_path / f"{kind}.model")
        save_model(models[kind], path, fingerprint="abc")
        loaded = load_model(path)
        before, _ = predict_matrix(models[kind], X_test)
        after, _ = predict_matrix(loaded, X_test)
        np.testing.assert_array_equal(before, after)

    def test_metadata_preserved(self, fitted, tmp_path):
        models, _ = fitted
        path = str(tmp_path / "meta.model")
        save_model(models["random_attention"], path, fingerprint="f00")
        loaded = load_model(path)
        assert loaded.variant == "random_attention"
        assert loaded.attention == RandomBlock(k=FAST_ATTN.k, seed=FAST_ATTN.seed)
        meta = json.load(open(path))["sections"]["meta"]["payload"]
        assert meta["fingerprint"] == "f00"

    def test_save_is_deterministic(self, fitted, tmp_path):
        models, _ = fitted
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        save_model(models["full"], a, fingerprint="x")
        save_model(models["full"], b, fingerprint="x")
        assert open(a, "rb").read() == open(b, "rb").read()


    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_load_then_save_reproduces_the_file(self, fitted, tmp_path, kind):
        model = fitted[0][kind]
        first, second = str(tmp_path / f"{kind}.model"), str(tmp_path / f"{kind}.again")
        save_model(model, first, fingerprint="x")
        loaded = load_model(first)
        save_model(loaded, second, fingerprint="x")
        assert open(first, "rb").read() == open(second, "rb").read()
        for name in ("feature", "value", "gain"):  # leaf gains come back as 0.0
            got, want = getattr(loaded.ensemble.nodes, name), getattr(model.ensemble.nodes, name)
            assert got.tobytes() == want.tobytes(), name
        assert loaded.preprocessor == model.preprocessor

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_file_stores_nothing_that_can_be_derived(self, fitted, tmp_path, kind):
        model = fitted[0][kind]
        path = str(tmp_path / "m.model")
        save_model(model, path)
        sections = json.load(open(path))["sections"]
        ensemble = sections["ensemble"]["payload"]
        # leaves hold the learning rate times their weight, so the rate is not stored, its
        # column names are the preprocessor's followed by the block's, and every raw score
        # starts at 0, so there is no base score
        assert sorted(ensemble) == ["feature", "gain", "node_counts", "value"]
        splits = model.ensemble.nodes.feature >= 0
        assert ensemble["gain"]["shape"] == [int(splits.sum())] < ensemble["value"]["shape"]
        assert _decode(ensemble, "gain").tobytes() == model.ensemble.nodes.gain[splits].tobytes()
        assert sorted(sections["preprocessor"]["payload"]) == [
            "category_maps", "numeric_stats", "schema", "target_positive"]
        assert sorted(sections["meta"]["payload"]) == ["fingerprint", "variant"]
        # the block: a network, whose sizes are the shape of W1 and whose output head only
        # trained it, random_attention's width and seed, or nothing
        attention = sections["attention"]["payload"]
        if kind in NETWORK_VARIANTS:
            assert sorted(attention) == ["W1", "W_attn", "b1", "b_attn"]
        elif kind == "random_attention":
            assert attention == {"k": FAST_ATTN.k, "seed": FAST_ATTN.seed}
        else:
            assert attention is None

    @pytest.mark.parametrize("kind", ["full", "random_attention"])
    def test_loaded_model_names_its_columns_as_the_model_in_memory(self, fitted, tmp_path,
                                                                   kind):
        model = fitted[0][kind]
        path, ranking = str(tmp_path / "m.model"), str(tmp_path / "raw.csv")
        save_model(model, path)
        assert load_model(path).ensemble.feature_names == model.ensemble.feature_names
        assert run_command(["importance", "--model", path, "--raw", "--csv-out", ranking]) == 0
        _, expected = rank_report(gain_importance(model.ensemble))
        assert open(ranking).read() == expected + "\n"

    def test_zero_tree_model_round_trip(self, tmp_path):
        csv_path, path = str(tmp_path / "rows.csv"), str(tmp_path / "zero.model")
        again, scores = str(tmp_path / "zero.again"), str(tmp_path / "scores.csv")
        assert run_command(["synth", "--synth.rows", "60", "--out", csv_path]) == 0
        assert run_command(["train", "--data", csv_path, "--boost.n_estimators", "0",
                            "--attention.k", "4", "--attention.epochs", "1",
                            "--out", path]) == 0
        model = load_model(path)
        assert model.ensemble.trees == () and model.ensemble.nodes.feature.size == 0
        fingerprint = json.load(open(path))["sections"]["meta"]["payload"]["fingerprint"]
        save_model(model, again, fingerprint=fingerprint)
        assert open(again, "rb").read() == open(path, "rb").read()

        assert run_command(["predict", "--model", path, "--data", csv_path,
                            "--out", scores]) == 0
        rows = [line.split(",") for line in open(scores).read().splitlines()[1:]]
        assert len(rows) == 60 and {p for _, p, _ in rows} == {"0.5"}
        ranking = str(tmp_path / "importance.csv")
        assert run_command(["importance", "--model", path, "--raw", "--csv-out", ranking]) == 0
        ranked = [line.split(",") for line in open(ranking).read().splitlines()[1:]]
        assert len(ranked) == len(model.ensemble.feature_names)
        assert all(row[2:] == ["0.000000", "0.000000", "0"] for row in ranked)


class TestSaveRefuses:
    def test_model_without_its_preprocessor(self, fitted, tmp_path):
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="only a model with its fitted preprocessor"):
            save_model(replace(fitted[0]["full"], preprocessor=None), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("fingerprint", [None, 1.5, b"abc"])
    def test_fingerprint_that_is_not_a_string(self, fitted, tmp_path, fingerprint):
        # the loader refuses a file whose meta fingerprint is not a JSON string
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match=re.escape(
                f"the fingerprint must be a string, got {fingerprint!r}")):
            save_model(fitted[0]["no_attention"], str(path), fingerprint=fingerprint)
        assert not path.exists() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind,edit", [
        # a loaded model would name the column as its preprocessor does, not "Renamed"
        ("full", lambda m: replace(m, ensemble=replace(
            m.ensemble, feature_names=["Renamed", *m.ensemble.feature_names[1:]]))),
        # one uniform column more than the trees were fitted on
        ("random_attention", lambda m: replace(m, attention=replace(m.attention,
                                                                   k=m.attention.k + 1))),
        ("no_attention", lambda m: replace(m, ensemble=replace(
            m.ensemble, feature_names=m.ensemble.feature_names[:-1]))),
    ], ids=["renamed", "wider_block", "shorter"])
    def test_ensemble_columns_a_loaded_model_would_not_derive(self, fitted, tmp_path, kind,
                                                             edit):
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="not the preprocessor's followed by the block's"):
            save_model(edit(fitted[0][kind]), str(path))
        assert not path.exists()


def test_file_bytes_are_pinned(tmp_path):
    # a fixed-seed no_attention fit, which makes no BLAS product; any change to what a
    # model file holds or how it is written changes this digest, and must update it on
    # purpose (with FORMAT_VERSION, if older files can no longer be read)
    table = generate_synthetic(SyntheticSpec(n_rows=200, seed=11))
    state = fit_preprocessor(table, [])
    X, y = apply_preprocessor(state, table)
    model = fit_variant("no_attention", X, y, FAST_ATTN, BoostConfig(
        n_estimators=4, max_depth=3, min_child_weight=0.5, gamma=0.0, seed=7),
        preprocessor=state)
    path = str(tmp_path / "pinned.model")
    save_model(model, path, fingerprint="pinned")
    assert FORMAT_VERSION == 11
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == PINNED_SHA256


def _set_entry(payload: dict, key: str, index: int, value: float) -> None:
    """Set one entry of the encoded float64 array `payload[key]`."""
    values = _decode(payload, key)
    values.flat[index] = value
    payload[key] = _encode(values)


# File dtype of the ensemble section's node counts and node arrays
# (gain holds one entry per split)
_NODE_FIELDS = {"node_counts": "<i4", "feature": "<i4", "value": "<f8", "gain": "<f8"}


def _node_index(ensemble: dict, t: int, i: int) -> int:
    """Index into an ensemble payload's node arrays of tree t's node i; a negative t or i
    counts from the last tree, or from the tree's last node."""
    counts = _decode(ensemble, "node_counts", "<i4")
    return int(counts[:t].sum()) + i % int(counts[t])


def _split_index(ensemble: dict, t: int, i: int) -> int:
    """Index into an ensemble payload's gain array of tree t's node i, which splits."""
    feature = _decode(ensemble, "feature", "<i4")
    index = _node_index(ensemble, t, i)
    assert feature[index] >= 0
    return int((feature[:index] >= 0).sum())


def _node_local(ensemble: dict) -> np.ndarray:
    """Each node's index within its tree, for every node of an ensemble payload."""
    counts = _decode(ensemble, "node_counts", "<i4")
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _first_column(preprocessor: dict, key: str) -> str:
    """The first column, by name, that a preprocessor payload's `key` holds an entry for."""
    return sorted(preprocessor[key])[0]


def _set_stats(preprocessor: dict, edit) -> None:
    """Replace the first numeric column's [mean, std] pair with edit(pair)."""
    column = _first_column(preprocessor, "numeric_stats")
    preprocessor["numeric_stats"][column] = edit(preprocessor["numeric_stats"][column])


def _set_values(preprocessor: dict, edit) -> None:
    """Replace the first category map's list of values with edit(values)."""
    column = _first_column(preprocessor, "category_maps")
    preprocessor["category_maps"][column] = edit(preprocessor["category_maps"][column])


def _retype_columns(preprocessor: dict, kind: str, to: str) -> None:
    """Give every schema column of `kind` the kind `to`."""
    preprocessor["schema"] = [[n, to if k == kind else k, nl]
                              for n, k, nl in preprocessor["schema"]]


def _set_schema_field(preprocessor: dict, kind: str, field: int, value) -> None:
    """Set field `field` (0 name, 2 nullable) of the first schema entry of `kind`."""
    entry = next(e for e in preprocessor["schema"] if e[1] == kind)
    entry[field] = value


class TestDamagedFiles:
    def _saved(self, fitted, tmp_path, name="m.model", kind="full"):
        models, _ = fitted
        path = str(tmp_path / name)
        save_model(models[kind], path)
        return path

    def test_flipped_byte_in_ensemble_section_names_it(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        text = open(path, "r").read()
        start = text.index('"ensemble"')
        end = text.index('"meta"', start)
        match = re.search(r'"data":"([A-Za-z0-9+/]{40,})', text[start:end])
        pos = start + match.start(1) + 17
        flipped = "A" if text[pos] != "A" else "B"
        open(path, "w").write(text[:pos] + flipped + text[pos + 1:])
        with pytest.raises(ModelFormatError, match="ensemble"):
            load_model(path)

    def test_modified_preprocessor_payload_names_it(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        document["sections"]["preprocessor"]["payload"]["target_positive"] = "Hacked"
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError, match="preprocessor"):
            load_model(path)

    def test_version_1_file_rejected(self, fitted, tmp_path, capsys):
        # version 1 stored one object per tree; no version 1 file is read
        path = self._saved(fitted, tmp_path)
        self._assert_older_rejected(fitted, path, json.load(open(path)), 1, tmp_path, capsys)

    def test_version_2_file_rejected(self, fitted, tmp_path, capsys):
        # version 2 stored left links, thresholds and weights as arrays of their own, and
        # meta random_seed; no version 2 file is read
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        sections = document["sections"]
        ensemble = sections["ensemble"]["payload"]
        feature, value = _decode(ensemble, "feature", "<i4"), _decode(ensemble, "value")
        del ensemble["value"]
        ensemble.update(left=_encode(np.where(feature < 0, -1, _node_local(ensemble) + 1)),
                        threshold=_encode(np.where(feature < 0, 0.0, value)),
                        weight=_encode(np.where(feature < 0, value, 0.0)))
        sections["meta"]["payload"]["random_seed"] = FAST_ATTN.seed
        self._assert_older_rejected(fitted, path, document, 2, tmp_path, capsys)

    def test_version_3_file_rejected(self, fitted, tmp_path, capsys):
        # version 3 also stored right links, leaf gains, the preprocessor's feature and
        # target names and meta boost_seed; no version 3 file is read
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        sections = document["sections"]
        ensemble = sections["ensemble"]["payload"]
        feature = _decode(ensemble, "feature", "<i4")
        gain = np.zeros(feature.size)
        gain[feature >= 0] = _decode(ensemble, "gain")
        right, open_splits = np.full(feature.size, -1), []
        for i, local in enumerate(_node_local(ensemble)):  # a leaf's successor is a right child
            if local > 0 and feature[i - 1] < 0:
                right[open_splits.pop()] = local
            if feature[i] >= 0:
                open_splits.append(i)
        ensemble.update(right=_encode(right), gain=_encode(gain))
        model = fitted[0]["full"]
        sections["preprocessor"]["payload"].update(
            feature_names=model.preprocessor.feature_names,
            target_name=model.preprocessor.target_name)
        sections["meta"]["payload"]["boost_seed"] = FAST_BOOST.seed
        self._assert_older_rejected(fitted, path, document, 3, tmp_path, capsys)

    def test_version_4_file_rejected(self, fitted, tmp_path, capsys):
        # version 4 also stored meta augment_mode, which chose h * alpha or alpha alone as
        # the block; no version 4 file is read
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        document["sections"]["meta"]["payload"]["augment_mode"] = "weighted-hidden"
        self._assert_older_rejected(fitted, path, document, 4, tmp_path, capsys)

    def test_version_5_file_rejected(self, fitted, tmp_path, capsys):
        # version 5 stored the learning rate beside unscaled leaf weights, and the network's
        # d and k beside W1; no version 5 file is read
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        sections = document["sections"]
        ensemble, attention = sections["ensemble"]["payload"], sections["attention"]["payload"]
        rate = FAST_BOOST.learning_rate
        feature, value = _decode(ensemble, "feature", "<i4"), _decode(ensemble, "value")
        ensemble.update(learning_rate=rate,
                        value=_encode(np.where(feature < 0, value / rate, value)))
        k, d = attention["W1"]["shape"]
        attention.update(d=d, k=k)
        self._assert_older_rejected(fitted, path, document, 5, tmp_path, capsys)

    def test_version_6_file_rejected(self, fitted, tmp_path, capsys):
        # version 6 also stored the ensemble's column names, the preprocessor's followed by
        # the block's; no version 6 file is read
        path = self._saved(fitted, tmp_path)
        self._assert_older_rejected(fitted, path, json.load(open(path)), 6, tmp_path, capsys)

    def test_version_7_file_rejected(self, fitted, tmp_path, capsys):
        # version 7 differs only in its meta attention_seed and random_k, which a full file
        # stored although nothing read them; no version 7 file is read
        path = self._saved(fitted, tmp_path)
        self._assert_older_rejected(fitted, path, json.load(open(path)), 7, tmp_path, capsys)

    def test_version_8_file_rejected(self, fitted, tmp_path, capsys):
        # version 8 also stored the ensemble's base_raw, which every fit set to 0.0, and the
        # network's output head w2 and b2, which augment never read; no version 8 file is
        # read
        path = self._saved(fitted, tmp_path)
        self._assert_older_rejected(fitted, path, json.load(open(path)), 8, tmp_path, capsys)

    def test_version_9_file_rejected(self, fitted, tmp_path, capsys):
        # version 9 differs only in its category maps, objects of value to code, which could
        # hold codes in another order than fitting gives; no version 9 file is read
        path = self._saved(fitted, tmp_path)
        self._assert_older_rejected(fitted, path, json.load(open(path)), 9, tmp_path, capsys)

    def test_version_10_file_rejected(self, fitted, tmp_path, capsys):
        # version 10 also stored the preprocessor's dropped columns, each with its schema
        # entry, which scoring read only to skip them; no version 10 file is read
        path = self._saved(fitted, tmp_path)
        self._assert_older_rejected(fitted, path, json.load(open(path)), 10, tmp_path, capsys)

    def _assert_older_rejected(self, fitted, path, document, version, tmp_path, capsys):
        """Write `document` as a `full` file of `version`, with the dropped columns (none)
        that versions 1 to 10 all stored, the category maps as objects
        of codes that versions 1 to 9 stored, the ensemble's base_raw and the network's
        w2 and b2 that versions 1 to 8 stored, the meta attention_seed and random_k that
        versions 1 to 7 stored, the ensemble's column names that versions 1 to 6 stored and
        checksums that match, and check it is rejected."""
        sections = document["sections"]
        sections["preprocessor"]["payload"]["dropped_columns"] = []
        if version <= 9:
            maps = sections["preprocessor"]["payload"]["category_maps"]
            maps.update({column: {value: code for code, value in enumerate(values)}
                         for column, values in maps.items()})
        if version <= 8:
            attention = sections["attention"]["payload"]
            attention.update(w2=_encode(np.zeros(attention["W1"]["shape"][0])), b2=0.0)
            sections["ensemble"]["payload"]["base_raw"] = 0.0
        if version <= 7:
            sections["meta"]["payload"].update(attention_seed=FAST_ATTN.seed, random_k=0)
        if version <= 6:
            sections["ensemble"]["payload"]["feature_names"] = \
                fitted[0]["full"].ensemble.feature_names
        for section in sections.values():
            section["checksum"] = _checksum(section["payload"])
        document["version"] = version
        json.dump(document, open(path, "w"))
        self._assert_version_rejected(path, version, tmp_path, capsys)

    def _assert_version_rejected(self, path, version, tmp_path, capsys):
        message = f"unsupported model format version {version}, expected 11"
        assert FORMAT_VERSION == 11
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        assert message in capsys.readouterr().err

    def test_unknown_version_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        document["version"] = 999
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_truncated_file_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        text = open(path, "r").read()
        open(path, "w").write(text[: len(text) // 2])
        with pytest.raises(ModelFormatError, match="truncated|not a model"):
            load_model(path)

    def test_missing_section_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        del document["sections"]["attention"]
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError, match="attention"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        open(path, "w").write('{"format": "something-else"}')
        with pytest.raises(ModelFormatError, match="not an attnboost"):
            load_model(path)

    @pytest.mark.parametrize("sections, message", [
        ('["meta","preprocessor","attention","ensemble"]', "sections must be a JSON object"),
        ('{"meta":[1,2],"preprocessor":{},"attention":{},"ensemble":{}}',
         "section 'meta' must be a JSON object"),
    ])
    def test_sections_that_are_not_objects_rejected(self, tmp_path, sections, message):
        path = str(tmp_path / "m.model")
        open(path, "w").write(
            f'{{"format":"attnboost-model","version":{FORMAT_VERSION},"sections":{sections}}}')
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    # the layer around the payloads holds only what save_model writes, as they do; each of
    # these loaded once, and predict exited 0
    @pytest.mark.parametrize("kind,edit,message", [
        ("full", lambda doc: doc.update(comment="hello"),
         "key 'comment' is not one save_model writes"),
        ("full", lambda doc: doc["sections"]["ensemble"].update(comment="hello"),
         "section 'ensemble': key 'comment' is not one save_model writes"),
        ("full", lambda doc: doc.update(version=float(FORMAT_VERSION)),
         f"unsupported model format version {float(FORMAT_VERSION)}, expected {FORMAT_VERSION}"),
        # a checksum of null matches a section that lacks its null payload
        ("no_attention", lambda doc: doc["sections"]["attention"].pop("payload"),
         "section 'attention': key 'payload' is missing"),
        ("full", lambda doc: doc["sections"]["meta"].pop("checksum"),
         "section 'meta': key 'checksum' is missing"),
        ("full", lambda doc: doc.pop("sections"), "key 'sections' is missing"),
    ], ids=["document_key", "section_key", "version_float", "payload_missing",
            "checksum_missing", "sections_missing"])
    def test_outer_layer_save_model_does_not_write_rejected(self, fitted, tmp_path, capsys,
                                                            kind, edit, message):
        path = self._saved(fitted, tmp_path, kind=kind)
        document = json.load(open(path))
        edit(document)
        json.dump(document, open(path, "w"))
        message = f"{path}: {message}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # 15 of these 16 failed as "malformed section contents (TypeError: ...)", naming no key
    @pytest.mark.parametrize("section", ["meta", "preprocessor", "attention", "ensemble"])
    @pytest.mark.parametrize("payload", [None, 3, [], "x"], ids=["null", "number", "list",
                                                                  "text"])
    def test_payload_that_is_not_an_object_names_its_section(self, fitted, tmp_path, capsys,
                                                             section, payload):
        # save_model writes no model without its preprocessor, so its payload is never null
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        document["sections"][section] = {"payload": payload, "checksum": _checksum(payload)}
        json.dump(document, open(path, "w"))
        message = f"section {section!r}: payload must be a JSON object" + (
            " or null" if section == "attention" else "")
        if section == "attention" and payload is None:
            message = ("section 'attention': variant 'full' does not match an attention section "
                       "that is absent")
        message = f"{path}: {message}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unequal_array_lengths_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        self._edit_nodes(path, lambda nodes: nodes["value"].pop())
        with pytest.raises(ModelFormatError, match="node arrays must each hold"):
            load_model(path)

    @pytest.mark.parametrize("change", [1, -1], ids=["one_more", "one_fewer"])
    def test_gain_not_one_per_split_rejected(self, fitted, tmp_path, change):
        path = self._saved(fitted, tmp_path)
        ensemble = json.load(open(path))["sections"]["ensemble"]["payload"]
        splits = int((_decode(ensemble, "feature", "<i4") >= 0).sum())
        self._edit_nodes(path, lambda nodes: nodes["gain"].append(0.5) if change > 0
                         else nodes["gain"].pop())
        message = f"{splits} splits, but gain has shape ({splits + change},)"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("key,node,value,message", [
        ("feature", 1, 9999, "tree 9 node 1: feature 9999"),
        ("value", 1, np.inf, "section 'ensemble' tree 9 node 1: value inf is not finite"),
        ("value", -1, np.nan, "section 'ensemble' tree 9 node {last}: value nan is not finite"),
    ])
    def test_error_names_the_tree_and_its_own_node_index(self, fitted, tmp_path, key, node,
                                                         value, message):
        path = self._saved(fitted, tmp_path)
        ensemble = json.load(open(path))["sections"]["ensemble"]["payload"]
        counts = _decode(ensemble, "node_counts", "<i4")
        assert counts.size == 10 and counts[-1] >= 3  # node 1 is neither root nor last
        index = _node_index(ensemble, -1, node)
        self._edit_nodes(path, lambda nodes: nodes[key].__setitem__(index, value))
        with pytest.raises(ModelFormatError, match=re.escape(message.format(last=counts[-1] - 1))):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("case", ["root_made_a_leaf", "last_split_made_a_leaf",
                                      "last_leaf_made_a_split", "feature_below_minus_one",
                                      "feature_at_the_width"])
    def test_nodes_that_do_not_form_a_tree_are_named(self, fitted, tmp_path, case):
        # a tree that closes early, one that never closes, and a feature outside -1..width-1,
        # each in the last tree, named by the node's index within it
        path = self._saved(fitted, tmp_path)
        ensemble = json.load(open(path))["sections"]["ensemble"]["payload"]
        width = len(fitted[0]["full"].ensemble.feature_names)
        first = _node_index(ensemble, -1, 0)
        feature = _decode(ensemble, "feature", "<i4")[first:].tolist()
        splits = [i for i, f in enumerate(feature) if f >= 0]
        assert len(splits) >= 2 and feature[-1] < 0

        def subtree_end(f, i):
            return i + 1 if f[i] < 0 else subtree_end(f, subtree_end(f, i + 1))

        def edited(i, new):
            return feature[:i] + [new] + feature[i + 1:]

        closes_early = "the tree is complete here, before its last node"
        i, new, reason = {
            "root_made_a_leaf": (0, -1, closes_early),
            "last_split_made_a_leaf": (splits[-1], -1, closes_early),
            "last_leaf_made_a_split": (len(feature) - 1, 0,
                                       "the tree's last node leaves 2 children missing"),
            "feature_below_minus_one": (1, -2, f"feature -2 is not -1 or one of the {width} "
                                               "columns"),
            "feature_at_the_width": (1, width, f"feature {width} is not -1 or one of the "
                                               f"{width} columns"),
        }[case]
        named = i
        if reason == closes_early:  # the edited tree is whole at the node the recursion ends
            named = subtree_end(edited(i, new), 0) - 1
            assert named < len(feature) - 1
        split_before = sum(f >= 0 for f in _decode(ensemble, "feature", "<i4")[:first + i])

        def edit(nodes):
            was_split, now_split = nodes["feature"][first + i] >= 0, new >= 0
            nodes["feature"][first + i] = new
            if was_split and not now_split:  # gain stays one entry per split
                nodes["gain"].pop(split_before)
            elif now_split and not was_split:
                nodes["gain"].insert(split_before, 0.5)
        self._edit_nodes(path, edit)
        with pytest.raises(ModelFormatError, match=re.escape(f"tree 9 node {named}: {reason}")):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("edit,message", [
        (lambda counts: counts.__setitem__(0, counts[0] + 1), "node arrays must each hold"),
        (lambda counts: counts.__setitem__(-1, counts[-1] - 1), "node arrays must each hold"),
        (lambda counts: counts.insert(3, 0), "tree 3: node count 0 is not positive"),
        (lambda counts: counts.__setitem__(4, 0), "tree 4: node count 0 is not positive"),
        (lambda counts: counts.__setitem__(4, -2), "tree 4: node count -2 is not positive"),
    ], ids=["sum_above_length", "sum_below_length", "zero_inserted", "zero", "negative"])
    def test_bad_node_counts_rejected(self, fitted, tmp_path, edit, message):
        path = self._saved(fitted, tmp_path)
        self._edit_nodes(path, lambda nodes: edit(nodes["node_counts"]))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("edit", [
        # version 1's JSON lists, with a float and a boolean where an index goes
        lambda ens: ens.update(feature=[15.9, *_decode(ens, "feature", "<i4")[1:].tolist()]),
        lambda ens: ens.update(feature=[True, *_decode(ens, "feature", "<i4")[1:].tolist()]),
        lambda ens: ens.update(node_counts=[1.5] * 10),
        lambda ens: ens["feature"].update(data=15.9),
        lambda ens: ens["node_counts"].update(data=True),
        lambda ens: ens["node_counts"].update(shape=[2.5]),
        # float64 values where int32 go: twice the bytes that the shape holds
        lambda ens: ens.update(feature=_encode(_decode(ens, "feature", "<i4") + 0.9)),
    ], ids=["float_in_list", "bool_in_list", "float_counts", "float_data", "bool_data",
            "float_shape", "float64_bytes"])
    def test_node_fields_that_are_not_int32_arrays_rejected(self, fitted, tmp_path, edit):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "ensemble", edit)
        with pytest.raises(ModelFormatError, match="section 'ensemble': (feature|node_counts): "):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("key", ["category_maps", "numeric_stats"])
    def test_preprocessor_map_that_is_a_list_rejected(self, fitted, tmp_path, capsys, key):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "preprocessor", lambda pre: pre.update({key: []}))
        message = f"section 'preprocessor' {key}: cannot read []"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    # one case per kind of damage that loaded, or failed without a ModelFormatError,
    # before the preprocessor section was checked
    @pytest.mark.parametrize("edit,key,message", [
        (lambda pre: _set_stats(pre, lambda s: s[:1]), "numeric_stats",
         "expected a finite mean and a finite standard deviation"),
        (lambda pre: _set_stats(pre, lambda s: [s[0], 0.0]), "numeric_stats",
         "of at least 1e-12, got ["),
        (lambda pre: _set_stats(pre, lambda s: [s[0], 1e-13]), "numeric_stats",
         "of at least 1e-12, got ["),
        # fitting codes each value by its place in sorted order
        (lambda pre: _set_values(pre, lambda vs: vs[::-1]), "category_maps",
         "values must be distinct and in sorted order"),
        (lambda pre: _set_values(pre, lambda vs: vs[:1] + vs), "category_maps",
         "values must be distinct and in sorted order"),
        (lambda pre: _set_values(pre, lambda vs: vs + ["A"]), "category_maps",
         "values must be distinct and in sorted order"),
        (lambda pre: _set_values(pre, lambda vs: [7] + vs[1:]), "category_maps", AS_WRITTEN),
        (lambda pre: _set_values(pre, lambda vs: [1.5] + vs[1:]), "category_maps", AS_WRITTEN),
        (lambda pre: pre["category_maps"].pop(_first_column(pre, "category_maps")),
         "category_maps", "holds columns"),
        (lambda pre: _retype_columns(pre, "binary-target", "category"),
         "schema", "schema must have exactly one binary-target column, found []"),
        (lambda pre: _retype_columns(pre, "category", "binary-target"),
         "schema", "schema must have exactly one binary-target column, found ["),
        (lambda pre: _set_schema_field(pre, "date", 0, 5), "schema", AS_WRITTEN),
        (lambda pre: _set_schema_field(pre, "category", 2, "no"), "schema", AS_WRITTEN),
        (lambda pre: pre.update(target_positive=7), "target_positive", AS_WRITTEN),
        (lambda pre: pre.update(target_positive=None), "target_positive", AS_WRITTEN),
        (lambda pre: pre.update(target_positive="Not"), "target_positive",
         "got 'Not'"),
        # save_model writes a mean and a deviation as JSON floats and a map as a list;
        # the list reader reads an object as its keys and "" as no values
        (lambda pre: _set_stats(pre, lambda s: [0, s[1]]), "numeric_stats", AS_WRITTEN),
        (lambda pre: _set_stats(pre, lambda s: [s[0], 1]), "numeric_stats", AS_WRITTEN),
        (lambda pre: _set_values(pre, lambda vs: {v: i for i, v in enumerate(vs)}),
         "category_maps", AS_WRITTEN),
        (lambda pre: pre["category_maps"].update({_first_column(pre, "category_maps"): ""}),
         "category_maps", "and at least one"),
        # every fitted column has a row, whose value enters the map; an empty map loaded,
        # and evaluate scored every row's Region as the unseen code
        (lambda pre: pre["category_maps"].update(Region=[]), "category_maps 'Region'",
         "values must be distinct and in sorted order, and at least one"),
    ], ids=["stats_shorter_than_two", "std_zero", "std_below_epsilon", "values_permuted",
            "value_duplicated", "values_unsorted", "value_number", "value_fraction", "map_missing",
            "no_target", "two_targets", "name_not_text", "nullable_text", "positive_number",
            "positive_null", "positive_is_negative", "mean_integer",
            "std_integer", "map_object", "map_text", "region_empty"])
    def test_malformed_preprocessor_contents_rejected(self, fitted, tmp_path, capsys, edit,
                                                      key, message):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "preprocessor", edit)
        named = (f"section 'preprocessor': key {key!r}" if message == AS_WRITTEN
                 else f"section 'preprocessor' {key}")
        with pytest.raises(ModelFormatError, match=re.escape(named)) as info:
            load_model(path)
        assert message in str(info.value)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        # before target_positive was checked, evaluate loaded positive_number's file and
        # then blamed the data: "row 1, column 'Returned': target value 'Yes' outside
        # vocabulary ['Not', 7]"
        for command in ("predict", "evaluate"):
            assert run_command([command, "--model", path, "--data", csv_path]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {named}")
            assert "row " not in err and "Traceback" not in err

    # Python's own message for these named neither the key nor the column
    @pytest.mark.parametrize("edit,message", [
        (lambda pre: pre["category_maps"].update(Region=5), "category_maps 'Region': cannot "
                                                             "read 5 ('int' object is not iterable)"),
        (lambda pre: pre["numeric_stats"].update(Sales=None), "numeric_stats 'Sales': cannot "
                                                              "read None ('NoneType' object"),
        (lambda pre: pre.update(schema=True), "schema: cannot read True ('bool' object"),
        (lambda pre: pre.update(category_maps=3), "category_maps: cannot read 3 ("),
    ], ids=["map_number", "stats_null", "schema_boolean", "maps_number"])
    def test_value_of_another_json_shape_names_its_key_and_column(self, fitted, tmp_path,
                                                                  capsys, edit, message):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "preprocessor", edit)
        message = f"section 'preprocessor' {message}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("key", ["k", "seed"])
    @pytest.mark.parametrize("make", [lambda v: v + 0.9, float, lambda v: True, str],
                             ids=["fraction", "whole_float", "boolean", "string"])
    def test_integer_field_that_is_a_float_or_boolean_rejected(self, fitted, tmp_path, capsys,
                                                               key, make):
        path = self._saved(fitted, tmp_path, kind="random_attention")
        self._edit_payload(path, "attention",
                           lambda payload: payload.update({key: make(payload[key])}))
        message = f"section 'attention': key {key!r} {AS_WRITTEN}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        assert message in capsys.readouterr().err

    # save_model writes the fingerprint as text; one of 1.5 or null loaded once
    @pytest.mark.parametrize("section,key,value", [
        ("meta", "fingerprint", 1.5),
        ("meta", "fingerprint", None),
    ])
    def test_scalar_of_another_json_type_rejected(self, fitted, tmp_path, capsys, section, key,
                                                  value):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, section, lambda payload: payload.update({key: value}))
        message = f"section {section!r}: key {key!r} {AS_WRITTEN}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("section,key", [("meta", "variant"),
                                             ("preprocessor", "numeric_stats"),
                                             ("ensemble", "node_counts"),
                                             ("attention", "W_attn"),
                                             ("attention", "b_attn")])
    def test_missing_key_with_valid_checksum_rejected(self, fitted, tmp_path, section, key):
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        stored = document["sections"][section]
        del stored["payload"][key]
        stored["checksum"] = _checksum(stored["payload"])
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError, match=re.escape(
                f"{path}: section {section!r}: key {key!r} is missing")):
            load_model(path)

    @pytest.mark.parametrize("section,key,value", [
        # a format 4 file's meta edited to read as format 5: its block was alpha alone
        ("meta", "augment_mode", "attention-vector"),
        # format 3 stored each split's right child
        ("ensemble", "right", {"shape": [0], "data": ""}),
        ("attention", "optimizer", "plain-sgd"),
        # format 3 stored the names that follow from the schema
        ("preprocessor", "feature_names", ["Sales"]),
        # a format 5 file edited to read as format 6: its leaves were unscaled
        ("ensemble", "learning_rate", 0.1),
        # format 5 stored W1's shape as d and k
        ("attention", "k", 6),
        # format 6 stored the ensemble's column names
        ("ensemble", "feature_names", ["Renamed"]),
        # format 8 stored a base score, always 0.0, and the network's output head
        ("ensemble", "base_raw", 0.0),
        ("attention", "b2", 0.0),
        ("attention", "w2", {"shape": [6], "data": "A" * 64}),
    ])
    def test_key_save_model_does_not_write_rejected(self, fitted, tmp_path, capsys, section,
                                                    key, value):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, section, lambda payload: payload.update({key: value}))
        message = f"{path}: section {section!r}: key {key!r} is not one save_model writes"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_section_save_model_does_not_write_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        document["sections"]["trace"] = {"payload": {}, "checksum": _checksum({})}
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError,
                           match="sections: key 'trace' is not one save_model writes"):
            load_model(path)

    def test_meta_without_fingerprint_rejected(self, fitted, tmp_path):
        # nothing scores with the fingerprint, but the meta decoder checks that it is text
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "meta", lambda meta: meta.pop("fingerprint"))
        with pytest.raises(ModelFormatError, match=re.escape(
                "section 'meta': key 'fingerprint' is missing")):
            load_model(path)

    @pytest.mark.parametrize("edit,message", [
        # a file of the removed manual_weights variant: thresholds cut on scaled columns
        ({"variant": "manual_weights", "manual_weights": {"Discount": 2.0}}, "'manual_weights'"),
        ({"variant": "equal_weight"}, "'equal_weight'"),
    ])
    def test_unknown_meta_value_with_valid_checksum_rejected(self, fitted, tmp_path, edit,
                                                             message):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "meta", lambda meta: meta.update(edit))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("kind,edit,message", [
        # a block-free file told to widen its rows with a block it does not have
        ("no_attention", {"variant": "full"}, "variant 'full' does not match an attention "
                                              "section that is absent"),
        ("no_attention", {"variant": "random_attention"}, "section that is absent"),
        ("full", {"variant": "no_attention"}, "variant 'no_attention' does not match an "
                                              "attention section that is present"),
        ("random_attention", {"variant": "no_attention"}, "section that is present"),
        # every variant is checked by the same rule: no_attention alone has no section
        ("no_attention", {"variant": "frozen_attention"}, "section that is absent"),
        ("frozen_attention", {"variant": "no_attention"}, "section that is present"),
        # the section is decoded as the variant's block, so a block of the other kind lacks
        # the first key that block's decoder reads
        ("random_attention", {"variant": "shallow_attention"},
         "section 'attention': key 'W1' is missing"),
        ("full", {"variant": "random_attention"}, "section 'attention': key 'k' is missing"),
    ])
    def test_meta_disagreeing_with_attention_section_rejected(self, fitted, tmp_path, capsys,
                                                              kind, edit, message):
        path = self._saved(fitted, tmp_path, kind=kind)
        self._edit_payload(path, "meta", lambda meta: meta.update(edit))
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("section,edit", [
        # a date column gives three features
        ("preprocessor",
         lambda pre: pre.update(schema=[c for c in pre["schema"] if c[1] != "date"])),
        # the network's input width is the number of W1's columns
        ("attention", lambda att: att.update(W1=_encode(_decode(att, "W1")[:, 1:]))),
    ], ids=["preprocessor", "attention"])
    def test_network_not_over_the_preprocessors_columns_rejected(self, fitted, tmp_path,
                                                                 section, edit):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, section, edit)
        message = r"section 'attention': W1 has shape \(6, \d+\), expected \(6, \d+\)"
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("key,value,rule", [
        # the block's width names its columns, so loading would build a name for each
        ("k", 0, "must be from 1 to 65536"),
        ("k", 2**16 + 1, "must be from 1 to 65536"),
        # the seed keys blake2b by its digits, which may take at most 64 bytes
        ("seed", -1, f"must be from 0 to {2**64 - 1}"),
        ("seed", 2**64, f"must be from 0 to {2**64 - 1}"),
        ("seed", 10**70, f"must be from 0 to {2**64 - 1}"),
    ])
    def test_random_block_out_of_range_rejected(self, fitted, tmp_path, capsys, key, value,
                                                rule):
        # the ranges of TrainConfig, which fit_variant took the block's k and seed from
        path = self._saved(fitted, tmp_path, kind="random_attention")
        self._edit_payload(path, "attention", lambda att: att.update({key: value}))
        message = f"section 'attention': {key} {rule}, got {value}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("key", ["k", "seed"])
    @pytest.mark.parametrize("value,reason", [
        (None, "int() argument must be a string"), ("x", "invalid literal for int()")])
    def test_random_block_field_int_cannot_read_names_its_key(self, fitted, tmp_path, capsys,
                                                              key, value, reason):
        # a null k or seed failed as "malformed section contents (TypeError: ...)"
        path = self._saved(fitted, tmp_path, kind="random_attention")
        self._edit_payload(path, "attention", lambda att: att.update({key: value}))
        message = f"{path}: section 'attention' {key}: cannot read {value!r} ({reason}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_random_block_takes_the_largest_seed(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path, kind="random_attention")
        self._edit_payload(path, "attention", lambda att: att.update(seed=2**64 - 1))
        model = load_model(path)
        assert model.attention == RandomBlock(k=FAST_ATTN.k, seed=2**64 - 1)
        proba, _ = predict_matrix(model, fitted[1])
        assert np.isfinite(proba).all()

    @pytest.mark.parametrize("k", [1, FAST_ATTN.k])
    def test_random_block_k_gives_the_columns_a_split_may_read(self, fitted, tmp_path, k):
        # no width is stored but the block's: the ensemble's columns are the preprocessor's
        # and k block columns, so a split on attn_1 reads a column only while k >= 2
        path = self._saved(fitted, tmp_path, kind="random_attention")
        inputs = len(fitted[0]["random_attention"].preprocessor.feature_names)
        self._edit_nodes(path, lambda nodes: nodes["feature"].__setitem__(0, inputs + 1))
        self._edit_payload(path, "attention", lambda att: att.update(k=k))
        if k > 1:
            assert load_model(path).ensemble.feature_names[inputs + 1] == "attn_1"
            return
        message = f"tree 0 node 0: feature {inputs + 1} is not -1 or one of the {inputs + 1} "
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("section,edit,message", [
        ("ensemble", lambda ens: _set_entry(ens, "value", _node_index(ens, 0, -1), np.nan),
         r"section 'ensemble' tree 0 node \d+: value nan is not finite"),
        ("ensemble", lambda ens: _set_entry(ens, "value", _node_index(ens, 0, 0), np.inf),
         "section 'ensemble' tree 0 node 0: value inf is not finite"),
        ("ensemble", lambda ens: _set_entry(ens, "gain", _split_index(ens, 1, 0), -np.inf),
         "section 'ensemble' tree 1 node 0: gain -inf is not finite"),
        ("attention", lambda att: _set_entry(att, "W1", 3, np.nan),
         "section 'attention': W1 holds a value that is not finite"),
        ("attention", lambda att: _set_entry(att, "b1", 0, np.inf),
         "section 'attention': b1 holds a value that is not finite"),
        ("attention", lambda att: _set_entry(att, "W_attn", 1, -np.inf),
         "section 'attention': W_attn holds a value that is not finite"),
        ("attention", lambda att: _set_entry(att, "b_attn", 2, np.nan),
         "section 'attention': b_attn holds a value that is not finite"),
    ], ids=["weight", "threshold", "gain", "W1", "b1", "W_attn", "b_attn"])
    def test_non_finite_numbers_with_valid_checksums_rejected(self, fitted, tmp_path, capsys,
                                                              section, edit, message):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, section, edit)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("section,key,shape,message", [
        ("attention", "W1", lambda shape: [-1, *shape[1:]],
         f"section 'attention': key 'W1' {AS_WRITTEN}"),
        ("ensemble", "value", lambda shape: [-1], f"section 'ensemble': key 'value' {AS_WRITTEN}"),
        ("ensemble", "node_counts", lambda shape: [*shape, True],
         "section 'ensemble': node_counts: an integer is required"),
    ], ids=["W1_minus_one", "value_minus_one", "counts_boolean"])
    def test_shape_that_is_not_non_negative_integers_rejected(self, fitted, tmp_path, capsys,
                                                             section, key, shape, message):
        # numpy infers a -1 in a shape, so such a file loaded before shapes were checked
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, section, lambda payload: payload[key].update(
            shape=shape(payload[key]["shape"])))
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("shape", ["no_units", "no_inputs", "vector"])
    def test_w1_that_is_not_a_matrix_of_units_and_inputs_rejected(self, fitted, tmp_path,
                                                                 capsys, shape):
        # a network of no units beside an ensemble over the input columns alone loaded
        # before its sizes came from W1, and `predict` then divided by zero in augment
        path = self._saved(fitted, tmp_path)
        donor = self._saved(fitted, tmp_path, name="inputs.model", kind="no_attention")
        inputs = json.load(open(donor))["sections"]["ensemble"]["payload"]
        k, d = json.load(open(path))["sections"]["attention"]["payload"]["W1"]["shape"]
        W1 = {"no_units": np.zeros((0, d)), "no_inputs": np.zeros((k, 0)),
              "vector": np.zeros(k * d)}[shape]
        units = W1.shape[0] if W1.ndim == 2 else k

        def edit(att):
            att.update(W1=_encode(W1), b1=_encode(np.zeros(units)),
                       W_attn=_encode(np.zeros((units, units))),
                       b_attn=_encode(np.zeros(units)))
        self._edit_payload(path, "attention", edit)
        if shape == "no_units":
            self._edit_payload(path, "ensemble", lambda ens: ens.update(inputs))
        message = (f"section 'attention': W1 has shape {W1.shape}, expected a matrix with at "
                   "least one row and one column")
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @staticmethod
    def _edit_payload(path, name, edit):
        """Apply edit to a section's payload and store a checksum that matches the edit."""
        document = json.load(open(path))
        section = document["sections"][name]
        edit(section["payload"])
        section["checksum"] = _checksum(section["payload"])
        json.dump(document, open(path, "w"))

    @classmethod
    def _edit_nodes(cls, path, edit):
        """Apply edit to the ensemble's node counts and node arrays, as lists by name, and
        store them encoded again with a checksum that matches."""
        def apply(payload):
            nodes = {name: _decode(payload, name, dtype).tolist()
                     for name, dtype in _NODE_FIELDS.items()}
            edit(nodes)
            payload.update({name: _encode(np.array(nodes[name])) for name in _NODE_FIELDS})
        cls._edit_payload(path, "ensemble", apply)

    @staticmethod
    def _csv(tmp_path):
        path = str(tmp_path / "rows.csv")
        assert run_command(["synth", "--synth.rows", "20", "--synth.seed", "3",
                            "--out", path]) == 0
        return path

    def test_missing_file_rejected(self):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model("/no/such/model.bin")


# ROADMAP item 16's standing fuzz: a single structural edit of a valid file, its checksum
# recomputed, must fail to load with a ModelFormatError that names the edited section, or
# load a model that save_model writes back as exactly that file and then let `predict`
# exit 0 with finite probabilities and `importance` exit 0, or either exit 1 with an
# `error:` line; never a traceback.
FUZZ_MODELS = ("full", "no_attention", "random_attention")
FUZZ_SECTIONS = ("meta", "preprocessor", "attention", "ensemble")
# what a leaf, a container or a list entry is replaced by
FUZZ_VALUES = (None, [], {}, "x", "", 1.5, True, False, -1, 0, 2**40, 1e308, -1e308)
FUZZ_KINDS = ("leaf", "container", "entry", "unknown key")
FUZZ_KEY = "fuzz_key"  # the unknown key inserted into each section's payload


def _fuzz_sites(value, path=(), entry=False):
    """(path, kind) of `value` and of every value under it, the first three of a list's.

    A list's entry is an "entry", whatever it holds; any other value is a
    "container" (an object or a list) or a "leaf".
    """
    yield path, "entry" if entry else "container" if isinstance(value, (dict, list)) else "leaf"
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _fuzz_sites(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value[:3]):
            yield from _fuzz_sites(child, (*path, i), entry=True)


def _fuzz_mutants(documents: dict) -> dict:
    """Every mutant of the documents, grouped by (section, kind, index in FUZZ_VALUES).

    A mutant is (model kind, section, path, value); an unknown key is grouped
    under index 0 and sets FUZZ_KEY to 0.
    """
    groups = {}
    for model, document in documents.items():
        for section in FUZZ_SECTIONS:
            payload = document["sections"][section]["payload"]
            for path, kind in _fuzz_sites(payload):
                for i, value in enumerate(FUZZ_VALUES):
                    groups.setdefault((section, kind, i), []).append((model, section, path, value))
            if isinstance(payload, dict):
                groups.setdefault((section, "unknown key", 0), []).append(
                    (model, section, (FUZZ_KEY,), 0))
    return groups


def _fuzz_subset(groups: dict, per_group: int = 4, seed: int = 16) -> list:
    """Up to `per_group` mutants of each group, drawn by a seeded generator."""
    rng = random.Random(seed)
    return [mutant for key in sorted(groups, key=repr)
            for mutant in rng.sample(groups[key], min(per_group, len(groups[key])))]


def _mutated(document: dict, section: str, path: tuple, value) -> dict:
    document = copy.deepcopy(document)
    stored = document["sections"][section]
    if path:
        parent = stored["payload"]
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = copy.deepcopy(value)
    else:
        stored["payload"] = copy.deepcopy(value)
    stored["checksum"] = _checksum(stored["payload"])
    return document


def _fuzz_outcome(document: dict, section: str, path: str, csv_path: str,
                  capsys) -> str | None:
    """None when the file fails to load, naming `section`, or loads a model that saves
    again to the same file, and `predict` and `importance` each run cleanly on it; else
    what went wrong."""
    json.dump(document, open(path, "w"))
    try:
        model = load_model(path)
    except ModelFormatError as exc:
        return None if f"section {section!r}" in str(exc) else f"refused as {exc}"
    again = path + ".again"
    save_model(model, again, fingerprint=document["sections"]["meta"]["payload"]["fingerprint"])
    if _canonical(json.load(open(again))) != _canonical(document):
        return "loads, but save_model writes another file for the model"
    scores = path + ".csv"
    capsys.readouterr()
    for command in (["predict", "--model", path, "--data", csv_path, "--out", scores],
                    ["importance", "--model", path]):
        try:
            code = run_command(command)
        except Exception as exc:  # run_command lets it out, so `attnboost` shows a traceback
            return f"{command[0]} traceback: {type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code == 1 and not (err.startswith("error: ") and "Traceback" not in err):
            return f"{command[0]} exit 1: {err!r}"
        if code not in (0, 1):
            return f"{command[0]} exit {code}: {err!r}"
        if code == 0 and command[0] == "predict":
            probabilities = [float(line.split(",")[1])
                             for line in open(scores).read().splitlines()[1:]]
            if not all(math.isfinite(p) for p in probabilities):
                return "a score is not finite"
    return None


@pytest.fixture(scope="module")
def fuzz_groups(fitted, tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    documents = {}
    for kind in FUZZ_MODELS:
        path = str(directory / f"{kind}.model")
        save_model(fitted[0][kind], path, fingerprint="fuzz")
        documents[kind] = json.load(open(path))
    csv_path = str(directory / "rows.csv")
    assert run_command(["synth", "--synth.rows", "20", "--synth.seed", "3",
                        "--out", csv_path]) == 0
    return documents, _fuzz_mutants(documents), csv_path


class TestStructuralFuzz:
    def test_subset_covers_every_section_kind_and_value(self, fuzz_groups):
        documents, groups, _ = fuzz_groups
        subset = _fuzz_subset(groups)
        # an unknown key in every object payload of every model
        assert {(model, section) for model, section, path, _ in subset
                if path == (FUZZ_KEY,)} == {
            (model, section) for model, document in documents.items()
            for section, stored in document["sections"].items()
            if isinstance(stored["payload"], dict)}
        assert {(section, kind) for section, kind, _ in groups} == {
            (section, kind) for section in FUZZ_SECTIONS for kind in FUZZ_KINDS
            if (section, kind) != ("meta", "entry")}  # meta holds no list
        for section, kind, _ in groups:
            if kind != "unknown key":
                assert {i for s, k, i in groups if (s, k) == (section, kind)} == set(
                    range(len(FUZZ_VALUES)))

    @pytest.mark.parametrize("section", FUZZ_SECTIONS)
    def test_mutant_fails_to_load_or_predicts_cleanly(self, fuzz_groups, tmp_path, capsys,
                                                      section):
        documents, groups, csv_path = fuzz_groups
        failures = []
        for model, where, path, value in _fuzz_subset(groups):
            if where != section:
                continue
            document = _mutated(documents[model], where, path, value)
            outcome = _fuzz_outcome(document, where, str(tmp_path / "mutant.model"), csv_path,
                                    capsys)
            if outcome is not None:
                failures.append(f"{model} {where} {list(path)} = {value!r}: {outcome}")
        assert failures == []
