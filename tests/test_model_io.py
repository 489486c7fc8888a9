"""Tests for the checksummed model container."""

import hashlib
import json
import re

import numpy as np
import pytest

from attnboost.attention import TrainConfig
from attnboost.errors import ModelFormatError
from attnboost.experiments import SyntheticSpec, generate_synthetic
from attnboost.fusion import fit_variant, predict_matrix
from attnboost.gbdt import BoostConfig
from attnboost.cli import run_command
from attnboost.model_io import (FORMAT_VERSION, _checksum, _decode, _encode, load_model,
                                save_model)
from attnboost.tabular import apply_preprocessor, fit_preprocessor, stratified_split

FAST_ATTN = TrainConfig(k=6, epochs=2, seed=0)
FAST_BOOST = BoostConfig(n_estimators=10, max_depth=3, min_child_weight=0.5,
                         gamma=0.0, seed=42)
PINNED_SHA256 = "1ae0184322514ba4938ce74f5cfbaece27f7d503055e1d8f250dbaa316acadcc"


@pytest.fixture(scope="module")
def fitted():
    table = generate_synthetic(SyntheticSpec(n_rows=300, seed=2))
    state = fit_preprocessor(table, [])
    X, y = apply_preprocessor(state, table)
    split = stratified_split(X, y, 0.8, 42)
    models = {
        kind: fit_variant(kind, split.X_train, split.y_train, FAST_ATTN, FAST_BOOST,
                          preprocessor=state)
        for kind in ("full", "no_attention", "random_attention")
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
        assert (loaded.random_k, loaded.attention_seed) == (FAST_ATTN.k, FAST_ATTN.seed)
        assert loaded.boost_seed == 42
        meta = json.load(open(path))["sections"]["meta"]["payload"]
        assert meta["fingerprint"] == "f00"

    def test_save_is_deterministic(self, fitted, tmp_path):
        models, _ = fitted
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        save_model(models["full"], a, fingerprint="x")
        save_model(models["full"], b, fingerprint="x")
        assert open(a, "rb").read() == open(b, "rb").read()


    def test_load_then_save_reproduces_the_file(self, fitted, tmp_path):
        for kind, model in fitted[0].items():
            first, second = str(tmp_path / f"{kind}.model"), str(tmp_path / f"{kind}.again")
            save_model(model, first, fingerprint="x")
            save_model(load_model(first), second, fingerprint="x")
            assert open(first, "rb").read() == open(second, "rb").read(), kind

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
    assert FORMAT_VERSION == 3
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == PINNED_SHA256


def _set_entry(payload: dict, key: str, index: int, value: float) -> None:
    """Set one entry of the encoded float64 array `payload[key]`."""
    values = _decode(payload[key])
    values.flat[index] = value
    payload[key] = _encode(values)


# File dtype of the ensemble section's node counts and node arrays
_NODE_FIELDS = {"node_counts": "<i4", "feature": "<i4", "value": "<f8", "right": "<i4",
                "gain": "<f8"}


def _node_index(ensemble: dict, t: int, i: int) -> int:
    """Index into an ensemble payload's node arrays of tree t's node i; a negative t or i
    counts from the last tree, or from the tree's last node."""
    counts = _decode(ensemble["node_counts"], "<i4")
    return int(counts[:t].sum()) + i % int(counts[t])


def _node_local(ensemble: dict) -> np.ndarray:
    """Each node's index within its tree, for every node of an ensemble payload."""
    counts = _decode(ensemble["node_counts"], "<i4")
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


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
        document["sections"]["preprocessor"]["payload"]["target_name"] = "Hacked"
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError, match="preprocessor"):
            load_model(path)

    def test_version_1_file_rejected(self, fitted, tmp_path, capsys):
        # version 1 stored one object per tree; no version 1 file is read
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        document["version"] = 1
        json.dump(document, open(path, "w"))
        self._assert_version_rejected(path, 1, tmp_path, capsys)

    def test_version_2_file_rejected(self, fitted, tmp_path, capsys):
        # version 2 stored left links, thresholds and weights as arrays of their own, and
        # meta random_seed; no version 2 file is read
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        sections = document["sections"]
        ensemble = sections["ensemble"]["payload"]
        feature, value = _decode(ensemble["feature"], "<i4"), _decode(ensemble.pop("value"))
        ensemble.update(left=_encode(np.where(feature < 0, -1, _node_local(ensemble) + 1), "<i4"),
                        threshold=_encode(np.where(feature < 0, 0.0, value)),
                        weight=_encode(np.where(feature < 0, value, 0.0)))
        sections["meta"]["payload"]["random_seed"] = sections["meta"]["payload"]["attention_seed"]
        for section in sections.values():
            section["checksum"] = _checksum(section["payload"])
        document["version"] = 2
        json.dump(document, open(path, "w"))
        self._assert_version_rejected(path, 2, tmp_path, capsys)

    def _assert_version_rejected(self, path, version, tmp_path, capsys):
        message = f"unsupported model format version {version}, expected 3"
        assert FORMAT_VERSION == 3
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

    @pytest.mark.parametrize("key,value,message", [
        ("feature", 9999, "tree 0 node 0"),  # split on a column the model does not have
        ("right", 9999, "tree 0 node 0"),  # child past the last node
        ("right", 0, "tree 0 node 0"),  # child pointing back at its parent: a cycle
        ("right", -1, "tree 0 node 0"),  # internal node without a right child
    ])
    def test_bad_tree_arrays_with_valid_checksums_rejected(self, fitted, tmp_path, key,
                                                           value, message):
        path = self._saved(fitted, tmp_path)
        self._edit_nodes(path, lambda nodes: nodes[key].__setitem__(0, value))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    def test_leaf_with_a_child_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)

        def edit(nodes):
            leaf = nodes["feature"].index(-1)  # in tree 0
            nodes["right"][leaf] = leaf + 1
        self._edit_nodes(path, edit)
        with pytest.raises(ModelFormatError, match="tree 0 node"):
            load_model(path)

    def test_unequal_array_lengths_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        self._edit_nodes(path, lambda nodes: nodes["right"].pop())
        with pytest.raises(ModelFormatError, match="node arrays must each hold"):
            load_model(path)

    @pytest.mark.parametrize("key,node,value,message", [
        ("feature", 1, 9999, "tree 9 node 1: feature 9999"),
        ("right", 1, 0, "tree 9 node 1: "),  # a leaf with a child, or a link back to the root
        ("right", -1, 1, "tree 9 node {last}: "),  # a leaf with a child
        ("value", 1, np.inf, "section 'ensemble' tree 9 node 1: value inf is not finite"),
        ("value", -1, np.nan, "section 'ensemble' tree 9 node {last}: value nan is not finite"),
    ])
    def test_error_names_the_tree_and_its_own_node_index(self, fitted, tmp_path, key, node,
                                                         value, message):
        path = self._saved(fitted, tmp_path)
        ensemble = json.load(open(path))["sections"]["ensemble"]["payload"]
        counts = _decode(ensemble["node_counts"], "<i4")
        assert counts.size == 10 and counts[-1] >= 3  # node 1 is neither root nor last
        index = _node_index(ensemble, -1, node)
        self._edit_nodes(path, lambda nodes: nodes[key].__setitem__(index, value))
        with pytest.raises(ModelFormatError, match=re.escape(message.format(last=counts[-1] - 1))):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    # non-finite values at a split (node 1) and a leaf (the last node) of the last tree
    # are the cases above
    @pytest.mark.parametrize("case", ["both_children_one_node", "right_past_the_tree",
                                      "right_at_itself", "right_before_itself",
                                      "leaf_with_a_right_child", "node_with_two_parents"])
    def test_bad_node_of_the_last_tree_is_named_by_its_own_index(self, fitted, tmp_path, case):
        path = self._saved(fitted, tmp_path)
        ensemble = json.load(open(path))["sections"]["ensemble"]["payload"]
        counts = _decode(ensemble["node_counts"], "<i4")
        feature = _decode(ensemble["feature"], "<i4")[_node_index(ensemble, -1, 0):].tolist()
        assert counts.size == 10 and len(feature) == counts[-1]
        splits = [i for i, f in enumerate(feature) if f >= 0 and i > 0]
        leaf = next(i for i, f in enumerate(feature[:-1]) if f < 0 and i > 0)
        nested = next(i for i in splits if feature[i + 1] >= 0)  # its left child splits too
        i, right, named, reason = {  # the node, its new right link, the node named
            "both_children_one_node": (splits[-1], splits[-1] + 1, splits[-1], None),
            "right_past_the_tree": (splits[0], len(feature), splits[0], None),
            "right_at_itself": (splits[-1], splits[-1], splits[-1], None),
            "right_before_itself": (splits[-1], 0, splits[-1], None),
            "leaf_with_a_right_child": (leaf, leaf + 1, leaf, None),
            # the link goes to the left child's left child, and the old right child is
            # nobody's
            "node_with_two_parents": (nested, nested + 2, nested + 2,
                                      "has 2 parents, expected one"),
        }[case]
        reason = reason or f"feature {feature[i]}, right child {right} do not form a tree"
        index = _node_index(ensemble, -1, i)
        self._edit_nodes(path, lambda nodes: nodes["right"].__setitem__(index, right))
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
        lambda ens: ens.update(feature=[15.9, *_decode(ens["feature"], "<i4")[1:].tolist()]),
        lambda ens: ens.update(right=[True, *_decode(ens["right"], "<i4")[1:].tolist()]),
        lambda ens: ens.update(node_counts=[1.5] * 10),
        lambda ens: ens["feature"].update(data=15.9),
        lambda ens: ens["right"].update(data=True),
        lambda ens: ens["node_counts"].update(shape=[2.5]),
        # float64 values where int32 go: twice the bytes that the shape holds
        lambda ens: ens.update(feature=_encode(_decode(ens["feature"], "<i4") + 0.9)),
    ], ids=["float_in_list", "bool_in_list", "float_counts", "float_data", "bool_data",
            "float_shape", "float64_bytes"])
    def test_node_fields_that_are_not_int32_arrays_rejected(self, fitted, tmp_path, edit):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "ensemble", edit)
        with pytest.raises(ModelFormatError, match="malformed section contents"):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("key", ["category_maps", "numeric_stats"])
    def test_preprocessor_map_that_is_a_list_rejected(self, fitted, tmp_path, capsys, key):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "preprocessor", lambda pre: pre.update({key: []}))
        message = "section 'preprocessor': malformed section contents"
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("section,key", [("meta", "attention_seed"), ("meta", "boost_seed"),
                                             ("meta", "random_k"), ("attention", "d"),
                                             ("attention", "k")])
    @pytest.mark.parametrize("make", [lambda v: v + 0.9, float, lambda v: True],
                             ids=["fraction", "whole_float", "boolean"])
    def test_integer_field_that_is_a_float_or_boolean_rejected(self, fitted, tmp_path, capsys,
                                                               section, key, make):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, section, lambda payload: payload.update({key: make(payload[key])}))
        message = (f"section '{section}': malformed section contents "
                   f"(TypeError: {key} must be an integer, got ")
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        csv_path = self._csv(tmp_path)
        capsys.readouterr()
        assert run_command(["predict", "--model", path, "--data", csv_path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [("meta", "variant"),
                                             ("preprocessor", "numeric_stats"),
                                             ("ensemble", "base_raw")])
    def test_missing_key_with_valid_checksum_rejected(self, fitted, tmp_path, section, key):
        path = self._saved(fitted, tmp_path)
        document = json.load(open(path))
        stored = document["sections"][section]
        del stored["payload"][key]
        stored["checksum"] = _checksum(stored["payload"])
        json.dump(document, open(path, "w"))
        with pytest.raises(ModelFormatError, match=f"malformed section contents.*{key}"):
            load_model(path)

    @pytest.mark.parametrize("edit,message", [
        # a file of the removed manual_weights variant: thresholds cut on scaled columns
        ({"variant": "manual_weights", "manual_weights": {"Discount": 2.0}}, "'manual_weights'"),
        ({"variant": "equal_weight"}, "'equal_weight'"),
        ({"augment_mode": "bogus"}, "'bogus'"),
    ])
    def test_unknown_meta_value_with_valid_checksum_rejected(self, fitted, tmp_path, edit,
                                                             message):
        path = self._saved(fitted, tmp_path)
        self._edit_payload(path, "meta", lambda meta: meta.update(edit))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("kind,edit,message", [
        # a network-free file told to widen its rows with a network it does not have
        ("no_attention", {"augment_mode": "weighted-hidden"}, "section that is absent"),
        ("no_attention", {"variant": "full", "augment_mode": "weighted-hidden"},
         "section that is absent"),
        ("full", {"augment_mode": "none"}, "section that is present"),
        ("full", {"variant": "no_attention"}, "section that is present"),
        ("full", {"variant": "random_attention", "augment_mode": "none"},
         "section that is present"),
        ("random_attention", {"random_k": 0}, "random_k >= 1"),
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

    @pytest.mark.parametrize("kind,section,edit,message", [
        ("random_attention", "meta", lambda meta: meta.update(random_k=meta["random_k"] - 1),
         r"preprocessor width \d+ plus the 5-column block"),
        ("random_attention", "meta", lambda meta: meta.update(random_k=meta["random_k"] + 1),
         r"preprocessor width \d+ plus the 7-column block"),
        ("full", "ensemble", lambda ens: ens["feature_names"].append("attn_6"),
         r"attention input width \d+ plus the 6-column block"),
        ("full", "preprocessor", lambda pre: pre["feature_names"].pop(),
         r"preprocessor width \d+ plus the 6-column block"),
        ("full", "attention", lambda att: att.update(k=7), r"W1 has shape \(6, \d+\), expected"),
    ])
    def test_block_width_mismatch_rejected(self, fitted, tmp_path, kind, section, edit,
                                           message):
        path = self._saved(fitted, tmp_path, kind=kind)
        self._edit_payload(path, section, edit)
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    @pytest.mark.parametrize("section,edit,message", [
        ("ensemble", lambda ens: _set_entry(ens, "value", _node_index(ens, 0, -1), np.nan),
         r"section 'ensemble' tree 0 node \d+: value nan is not finite"),
        ("ensemble", lambda ens: _set_entry(ens, "value", _node_index(ens, 0, 0), np.inf),
         "section 'ensemble' tree 0 node 0: value inf is not finite"),
        ("ensemble", lambda ens: _set_entry(ens, "gain", _node_index(ens, 1, 0), -np.inf),
         "section 'ensemble' tree 1 node 0: gain -inf is not finite"),
        ("ensemble", lambda ens: ens.update(base_raw=np.nan),
         "section 'ensemble': base_raw nan is not finite"),
        ("ensemble", lambda ens: ens.update(learning_rate=-5.0),
         r"section 'ensemble': learning_rate -5.0 is outside \(0, 1\]"),
        ("ensemble", lambda ens: ens.update(learning_rate=0.0), r"learning_rate 0.0 is outside"),
        ("ensemble", lambda ens: ens.update(learning_rate=1.5), r"learning_rate 1.5 is outside"),
        ("ensemble", lambda ens: ens.update(learning_rate=np.nan), r"learning_rate nan is outside"),
        ("attention", lambda att: _set_entry(att, "W1", 3, np.nan),
         "section 'attention': W1 holds a value that is not finite"),
        ("attention", lambda att: att.update(b2=np.inf),
         "section 'attention': b2 holds a value that is not finite"),
    ], ids=["weight", "threshold", "gain", "base_raw", "rate_negative", "rate_zero",
            "rate_above_one", "rate_nan", "W1", "b2"])
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
            nodes = {name: _decode(payload[name], dtype).tolist()
                     for name, dtype in _NODE_FIELDS.items()}
            edit(nodes)
            payload.update({name: _encode(np.array(nodes[name]), dtype)
                            for name, dtype in _NODE_FIELDS.items()})
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
