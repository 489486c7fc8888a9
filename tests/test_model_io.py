"""Tests for the checksummed model container."""

import json
import re

import numpy as np
import pytest

from attnboost.attention import TrainConfig
from attnboost.errors import ModelFormatError
from attnboost.experiments import SyntheticSpec, generate_synthetic
from attnboost.fusion import fit_variant, predict, predict_matrix
from attnboost.gbdt import BoostConfig
from attnboost.cli import run_command
from attnboost.model_io import _checksum, load_model, save_model
from attnboost.tabular import apply_preprocessor, fit_preprocessor, stratified_split

FAST_ATTN = TrainConfig(k=6, epochs=2, seed=0)
FAST_BOOST = BoostConfig(n_estimators=10, max_depth=3, min_child_weight=0.5,
                         gamma=0.0, seed=42)


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
        assert (loaded.random_k, loaded.random_seed) == (FAST_ATTN.k, FAST_ATTN.seed)
        assert loaded.boost_seed == 42
        meta = json.load(open(path))["sections"]["meta"]["payload"]
        assert meta["fingerprint"] == "f00"

    def test_save_is_deterministic(self, fitted, tmp_path):
        models, _ = fitted
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        save_model(models["full"], a, fingerprint="x")
        save_model(models["full"], b, fingerprint="x")
        assert open(a, "rb").read() == open(b, "rb").read()


    def test_file_with_keys_older_writers_stored_loads_and_scores_alike(self, fitted,
                                                                         tmp_path):
        # Older files also stored date_plan, which nothing read, and
        # unseen_codes, which always equalled the size of each category map.
        # Sections are read by key, so such a file loads and scores as the new
        # file does, unseen categories included.
        model = fitted[0]["full"]
        state = model.preprocessor
        new, old = str(tmp_path / "new.model"), str(tmp_path / "old.model")
        save_model(model, new)
        save_model(model, old)

        def add_old_keys(payload):
            payload["unseen_codes"] = {c: len(m) for c, m in state.category_maps.items()}
            payload["date_plan"] = {c.name: [f"{c.name}_{part}"
                                             for part in ("year", "month", "weekday")]
                                    for c in state.schema if c.kind == "date"}
        TestDamagedFiles._edit_payload(old, "preprocessor", add_old_keys)
        new_payload = json.load(open(new))["sections"]["preprocessor"]["payload"]
        assert not {"date_plan", "unseen_codes"} & set(new_payload)

        table = generate_synthetic(SyntheticSpec(n_rows=40, seed=5))
        table.rows[0][table.column_index("Region")] = "Atlantis"
        from_new, from_old = load_model(new), load_model(old)
        assert from_old.preprocessor == from_new.preprocessor == state
        for got, want in zip(predict(from_old, table), predict(from_new, table)):
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("key,value,message", [
        ("feature", 9999, "tree 0 node 0"),  # split on a column the model does not have
        ("left", 9999, "tree 0 node 0"),  # child past the last node
        ("left", 0, "tree 0 node 0"),  # child pointing back at its parent: a cycle
        ("right", -1, "tree 0 node 0"),  # internal node without a right child
    ])
    def test_bad_tree_arrays_with_valid_checksums_rejected(self, fitted, tmp_path, key,
                                                           value, message):
        path = self._saved(fitted, tmp_path)
        self._edit_tree(path, lambda tree: tree[key].__setitem__(0, value))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        assert run_command(["predict", "--model", path, "--data", self._csv(tmp_path)]) == 1

    def test_leaf_with_a_child_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)

        def edit(tree):
            leaf = tree["feature"].index(-1)
            tree["left"][leaf] = leaf + 1
        self._edit_tree(path, edit)
        with pytest.raises(ModelFormatError, match="tree 0 node"):
            load_model(path)

    def test_unequal_array_lengths_rejected(self, fitted, tmp_path):
        path = self._saved(fitted, tmp_path)
        self._edit_tree(path, lambda tree: tree["right"].pop())
        with pytest.raises(ModelFormatError, match="tree 0: node arrays"):
            load_model(path)

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

    @staticmethod
    def _edit_payload(path, name, edit):
        """Apply edit to a section's payload and store a checksum that matches the edit."""
        document = json.load(open(path))
        section = document["sections"][name]
        edit(section["payload"])
        section["checksum"] = _checksum(section["payload"])
        json.dump(document, open(path, "w"))

    @classmethod
    def _edit_tree(cls, path, edit):
        cls._edit_payload(path, "ensemble", lambda payload: edit(payload["trees"][0]))

    @staticmethod
    def _csv(tmp_path):
        path = str(tmp_path / "rows.csv")
        assert run_command(["synth", "--rows", "20", "--seed", "3", "--out", path]) == 0
        return path

    def test_missing_file_rejected(self):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model("/no/such/model.bin")
