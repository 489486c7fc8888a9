"""End-to-end tests of the command-line surface and its exit codes."""

import argparse
import csv
import json

import pytest

from attnboost import cli
from attnboost.attention import TrainConfig
from attnboost.cli import run_command
from attnboost.config import KEY_SPECS, RunConfig
from attnboost.experiments import SyntheticSpec, generate_synthetic
from attnboost.fusion import DEFAULT_SHALLOW_K
from attnboost.gbdt import BoostConfig
from attnboost.model_io import load_model
from attnboost.tabular import load_csv, retail_schema

FAST_TRAIN = [
    "--boost.n_estimators", "12", "--boost.max_depth", "3",
    "--boost.min_child_weight", "0.5", "--boost.gamma", "0",
    "--attention.k", "6", "--attention.epochs", "2",
]


def _run(*argv):
    return run_command(list(argv))


@pytest.fixture()
def synth_csv(tmp_path):
    path = str(tmp_path / "data.csv")
    assert _run("synth", "--synth.rows", "300", "--synth.seed", "7", "--out", path) == 0
    return path


@pytest.fixture()
def trained(tmp_path, synth_csv):
    model = str(tmp_path / "model.bin")
    metrics = str(tmp_path / "metrics.csv")
    test_csv = str(tmp_path / "test.csv")
    code = _run("train", "--data", synth_csv, *FAST_TRAIN,
                "--out", model, "--metrics-out", metrics, "--test-out", test_csv)
    assert code == 0
    return model, metrics, test_csv


class TestSynth:
    def test_row_count_and_header(self, tmp_path):
        path = str(tmp_path / "s.csv")
        assert _run("synth", "--synth.rows", "500", "--synth.seed", "7", "--out", path) == 0
        lines = open(path).read().splitlines()
        assert len(lines) == 501
        assert lines[0].split(",")[0] == "Order Date"

    def test_deterministic_output(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert _run("synth", "--synth.rows", "100", "--synth.seed", "3", "--out", a) == 0
        assert _run("synth", "--synth.rows", "100", "--synth.seed", "3", "--out", b) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("text, coefficients", [
        ("Discount=2,Region=0.5", {"Discount": 2.0, "Region": 0.5}),
        (" Profit = -1.5 ,, Sales=1e0", {"Profit": -1.5, "Sales": 1.0}),
        ("", {}),  # plants no signal
    ])
    def test_coefficients_are_one_key(self, tmp_path, text, coefficients):
        path = str(tmp_path / "s.csv")
        assert _run("synth", "--synth.rows", "60", "--synth.seed", "4",
                    "--synth.coef", text, "--out", path) == 0
        spec = SyntheticSpec(n_rows=60, seed=4, coefficients=coefficients)
        assert open(path).read() == cli.table_to_csv_text(generate_synthetic(spec))

    @pytest.mark.parametrize("text, message", [
        ("Discount", "expected NAME=VALUE pairs"),
        ("Discount=high", "expected NAME=VALUE pairs"),
        ("Postal Code=1", "unknown features"),
    ])
    def test_bad_coefficients_exit_2(self, tmp_path, text, message, capsys):
        assert _run("synth", "--synth.coef", text, "--out", str(tmp_path / "s.csv")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestTrainEvaluatePredict:
    def test_train_then_evaluate_matches(self, tmp_path, trained):
        model, metrics, test_csv = trained
        eval_out = str(tmp_path / "eval.csv")
        assert _run("evaluate", "--model", model, "--data", test_csv,
                    "--out", eval_out) == 0
        train_rows = {line.split(",")[0]: line.split(",")[1:]
                      for line in open(metrics).read().splitlines()[1:]}
        eval_row = open(eval_out).read().splitlines()[1].split(",")[1:]
        assert eval_row == train_rows["test"]

    def test_predict_row_count_and_header(self, tmp_path, trained):
        model, _, test_csv = trained
        out = str(tmp_path / "pred.csv")
        assert _run("predict", "--model", model, "--data", test_csv, "--out", out) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "row_index,probability,label"
        assert len(lines) - 1 == len(open(test_csv).read().splitlines()) - 1
        for line in lines[1:3]:
            _, proba, label = line.split(",")
            assert 0.0 <= float(proba) <= 1.0
            assert label in ("0", "1")

    def test_predict_accepts_unlabeled_csv(self, tmp_path, trained):
        model, _, test_csv = trained
        lines = open(test_csv).read().splitlines()
        header = lines[0].split(",")
        drop = header.index("Returned")
        unlabeled = str(tmp_path / "unlabeled.csv")
        with open(unlabeled, "w") as handle:
            for line in lines:
                cells = line.split(",")
                del cells[drop]
                handle.write(",".join(cells) + "\n")
        out = str(tmp_path / "pred2.csv")
        assert _run("predict", "--model", model, "--data", unlabeled, "--out", out) == 0
        assert len(open(out).read().splitlines()) == len(lines)

    def test_train_twice_byte_identical_outputs(self, tmp_path, synth_csv):
        results = []
        for tag in ("x", "y"):
            model = str(tmp_path / f"{tag}.bin")
            metrics = str(tmp_path / f"{tag}.csv")
            assert _run("train", "--data", synth_csv, *FAST_TRAIN,
                        "--out", model, "--metrics-out", metrics) == 0
            results.append((open(model, "rb").read(), open(metrics, "rb").read()))
        assert results[0] == results[1]

    def test_variant_flag(self, tmp_path, synth_csv):
        model = str(tmp_path / "na.bin")
        assert _run("train", "--data", synth_csv, *FAST_TRAIN,
                    "--model.variant", "no_attention", "--out", model) == 0
        assert load_model(model).variant == "no_attention"


def _copy_columns(src, dest, columns):
    """Write the named columns of CSV `src` to `dest`; a name src lacks gets "x" cells."""
    with open(src, newline="") as handle:
        rows = list(csv.DictReader(handle))
    with open(dest, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(name, "x") for name in columns] for row in rows)
    return dest


class TestCsvColumns:
    def test_split_that_leaves_a_class_out_of_training_exits_1(self, tmp_path, capsys):
        assert _run("train", "--synthetic", "--synth.rows", "12", "--split.fraction", "0.05",
                    *FAST_TRAIN, "--out", str(tmp_path / "m.bin")) == 1
        err = capsys.readouterr().err
        assert "a train fraction of 0.05 puts none of them in training" in err
        assert not (tmp_path / "m.bin").exists()

    def test_train_rejects_column_outside_retail_schema(self, tmp_path, synth_csv, capsys):
        names = open(synth_csv).readline().strip().split(",")
        data = _copy_columns(synth_csv, str(tmp_path / "extra.csv"), [*names, "Colour"])
        assert _run("train", "--data", data, *FAST_TRAIN,
                    "--out", str(tmp_path / "m.bin")) == 1
        assert "'Colour'" in capsys.readouterr().err

    def test_predict_names_missing_fit_time_column(self, tmp_path, trained, capsys):
        model, _, test_csv = trained
        names = open(test_csv).readline().strip().split(",")
        data = _copy_columns(test_csv, str(tmp_path / "short.csv"),
                             [n for n in names if n != "Sales"])
        assert _run("predict", "--model", model, "--data", data) == 1
        assert "missing ['Sales']" in capsys.readouterr().err

    def test_subset_header_loads_as_the_library_loads_it(self, tmp_path, synth_csv):
        data = _copy_columns(synth_csv, str(tmp_path / "subset.csv"),
                             ["Profit", "Returned", "Region", "Sales", "Order Date"])
        args = cli.build_parser().parse_args(["train", "--data", data])
        through_cli = cli._resolve_table(args, cli._merged_config(args))
        direct = load_csv(data, retail_schema())
        assert [c.name for c in direct.schema] == ["Order Date", "Region", "Returned",
                                                   "Sales", "Profit"]
        assert through_cli == direct


def _set_cells(src, dest, column, value, rows):
    """Copy CSV `src` to `dest` with `column` set to `value` on the given data rows (0-based)."""
    with open(src, newline="") as handle:
        lines = list(csv.reader(handle))
    j = lines[0].index(column)
    for i in rows:
        lines[i + 1][j] = value
    with open(dest, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(lines)
    return dest


class TestBadCells:
    """A bad cell exits 1 with a message naming its row, counted from 1, and column."""

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_integer_too_large_for_a_float(self, tmp_path, trained, synth_csv, command,
                                           capsys):
        model, _, test_csv = trained
        source = synth_csv if command == "train" else test_csv
        data = _set_cells(source, str(tmp_path / "big.csv"), "Quantity", "9" * 400, [0])
        argv = (["train", "--data", data, *FAST_TRAIN, "--out", str(tmp_path / "m.bin")]
                if command == "train" else ["predict", "--model", model, "--data", data])
        assert _run(*argv) == 1
        assert "row 1, column 'Quantity'" in capsys.readouterr().err

    def test_predict_names_first_row_of_a_bad_target(self, tmp_path, trained, capsys):
        model, _, test_csv = trained
        data = _set_cells(test_csv, str(tmp_path / "maybe.csv"), "Returned", "Maybe", [0])
        assert _run("predict", "--model", model, "--data", data) == 1
        assert "row 1, column 'Returned': target value 'Maybe'" in capsys.readouterr().err

    def test_train_names_a_numeric_column_whose_mean_overflows(self, tmp_path, synth_csv,
                                                               capsys):
        data = _set_cells(synth_csv, str(tmp_path / "huge.csv"), "Sales", "1.7e308", [0, 1])
        assert _run("train", "--data", data, *FAST_TRAIN,
                    "--out", str(tmp_path / "m.bin")) == 1
        assert "numeric column 'Sales'" in capsys.readouterr().err

    def test_predict_names_a_value_that_standardizes_to_infinity(self, tmp_path, trained,
                                                                 capsys):
        model, _, test_csv = trained
        # Discount's deviation is below 1, so (v - mean) / std overflows
        data = _set_cells(test_csv, str(tmp_path / "huge.csv"), "Discount", "1.7e308", [2])
        assert _run("predict", "--model", model, "--data", data) == 1
        assert "row 3, feature 'Discount'" in capsys.readouterr().err


class TestImportanceCommand:
    def test_report_and_csv(self, tmp_path, trained, capsys):
        model, _, _ = trained
        csv_out = str(tmp_path / "imp.csv")
        assert _run("importance", "--model", model, "--top", "3",
                    "--csv-out", csv_out) == 0
        printed = capsys.readouterr().out
        assert "feature" in printed
        lines = open(csv_out).read().splitlines()
        assert lines[0] == "rank,feature,gain,share,splits"
        assert len(lines) == 4

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_2(self, trained, top, capsys):
        model, _, _ = trained
        assert _run("importance", "--model", model, "--top", top) == 2
        captured = capsys.readouterr()
        assert "top must be at least 1" in captured.err
        assert captured.out == ""

    def test_malformed_sections_exit_1(self, tmp_path, capsys):
        model = tmp_path / "bad.model"
        model.write_text('{"format":"attnboost-model","version":1,"sections":{"meta":[1,2]}}')
        assert _run("importance", "--model", str(model)) == 1
        assert "section 'meta' must be a JSON object" in capsys.readouterr().err


class TestAblateAndRemoveFeatures:
    def test_ablate_writes_five_rows(self, tmp_path):
        out = str(tmp_path / "results.csv")
        code = _run("ablate", "--synthetic", "--synth.rows", "400",
                    *FAST_TRAIN, "--out", out)
        assert code == 0
        lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
        assert len(lines) == 6  # header + 5 conditions
        assert any(l.startswith("# fingerprint=") for l in open(out).read().splitlines())

    def test_remove_features_rows(self, tmp_path):
        out = str(tmp_path / "removal.csv")
        code = _run("remove-features", "--synthetic", "--synth.rows", "400",
                    *FAST_TRAIN, "--features", "Discount,Sales", "--out", out)
        assert code == 0
        names = [l.split(",")[0] for l in open(out).read().splitlines()
                 if l and not l.startswith("#")][1:]
        assert names == ["Discount Removed", "Sales Removed", "None (Full Model)"]


# one out-of-range value for every float key; nan and inf are out of range for each
OUT_OF_RANGE = {
    "split.fraction": "1.5",
    "attention.learning_rate": "0",
    "attention.prob_clamp": "0.5",
    "boost.learning_rate": "1.5",
    "boost.min_child_weight": "-1",
    "boost.gamma": "-0.1",
    "boost.subsample": "0",
    "boost.colsample_bytree": "1.01",
    "boost.reg_alpha": "-1",
    "boost.reg_lambda": "-1",
    "boost.base_score": "1",
    "synth.noise_sd": "-0.25",
    "synth.intercept": "-inf",
}

# values at or near each end of a training key's range, which train accepts
ACCEPTED_EDGES = {
    "split.fraction": ("0.05", "0.95"),
    "attention.learning_rate": ("1e-12", "1"),
    "attention.prob_clamp": ("1.2e-16", "0.4999"),
    "boost.learning_rate": ("1e-12", "1"),
    "boost.min_child_weight": ("0", "1e6"),
    "boost.gamma": ("0", "1e6"),
    "boost.subsample": ("1e-6", "1"),
    "boost.colsample_bytree": ("1e-6", "1"),
    "boost.reg_alpha": ("0", "1e6"),
    "boost.reg_lambda": ("0", "1e6"),
    "boost.base_score": ("1e-300", "0.999999"),
}


class TestConfigHandling:
    def test_config_file_applied_and_cli_overrides(self, tmp_path, synth_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("boost.n_estimators=12\nboost.max_depth=3\n"
                       "boost.min_child_weight=0.5\nboost.gamma=0\n"
                       "attention.k=6\nattention.epochs=2\nsplit.seed=5\n")
        model = str(tmp_path / "m.bin")
        assert _run("train", "--data", synth_csv, "--config", str(cfg),
                    "--split.seed", "9", "--out", model) == 0
        assert len(load_model(model).ensemble.trees) == 12  # the file's boost.n_estimators
        by_flags = {}
        for seed in ("9", "5"):
            by_flags[seed] = str(tmp_path / f"flags{seed}.bin")
            assert _run("train", "--data", synth_csv, *FAST_TRAIN, "--split.seed", seed,
                        "--out", by_flags[seed]) == 0
        data = open(model, "rb").read()
        assert data == open(by_flags["9"], "rb").read()
        assert data != open(by_flags["5"], "rb").read()

    def test_unknown_config_key_exits_2(self, tmp_path, synth_csv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("boost.n_estimatorz=12\n")
        model = str(tmp_path / "m.bin")
        assert _run("train", "--data", synth_csv, "--config", str(cfg),
                    "--out", model) == 2

    def test_both_sources_rejected(self, tmp_path, synth_csv):
        assert _run("train", "--data", synth_csv, "--synthetic",
                    "--out", str(tmp_path / "m.bin")) == 2

    @pytest.mark.parametrize("flag,value", [("--boost.n_estimators", "-5"),
                                            ("--boost.max_depth", "-1"),
                                            ("--boost.min_child_weight", "-1.0")])
    def test_negative_boost_setting_exits_2(self, tmp_path, synth_csv, flag, value):
        assert _run("train", "--data", synth_csv, flag, value,
                    "--out", str(tmp_path / "m.bin")) == 2

    @pytest.mark.parametrize("flag,value", [("--attention.batch_size", "0"),
                                            ("--attention.batch_size", "-1"),
                                            ("--attention.epochs", "-1")])
    def test_bad_attention_setting_exits_2(self, tmp_path, synth_csv, flag, value, capsys):
        assert _run("train", "--data", synth_csv, flag, value,
                    "--out", str(tmp_path / "m.bin")) == 2
        assert flag.split(".")[1] in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--model.variant", "bogus"],
        ["--model.augment_mode", "bogus"],
        ["--model.variant", "no_attention", "--model.augment_mode", "bogus"],
        ["--model.variant", "random_attention", "--model.augment_mode", "bogus"],
        ["--model.shallow_k", "0"],
    ])
    def test_bad_choice_exits_2_before_data_is_read(self, tmp_path, extra, capsys):
        # the data file does not exist, so reading it would exit 1
        assert _run("train", "--data", str(tmp_path / "absent.csv"), *extra,
                    "--out", str(tmp_path / "m.bin")) == 2
        err = capsys.readouterr().err
        assert f"key {extra[-2][2:]!r}" in err and extra[-1] in err

    @pytest.mark.parametrize("key,value", [
        *((key, value) for key, bad in OUT_OF_RANGE.items() for value in ("nan", "inf", bad)),
        *(("synth.coef", value) for value in ("Discount=nan", "Sales=inf", "Profit=-inf")),
        ("attention.prob_clamp", "1e-17"),  # 1 - 1e-17 rounds to 1
    ])
    def test_bad_number_exits_2_before_data_is_read(self, tmp_path, key, value, capsys):
        # the data file does not exist, so reading it would exit 1
        assert _run("train", "--data", str(tmp_path / "absent.csv"), f"--{key}={value}",
                    "--out", str(tmp_path / "m.bin")) == 2
        assert f"key {key!r}" in capsys.readouterr().err

    def test_every_float_key_has_an_out_of_range_case(self):
        assert set(OUT_OF_RANGE) == {key for key, (kind, _) in KEY_SPECS.items() if kind is float}

    @pytest.mark.parametrize("key,value", [(key, value) for key, edges in ACCEPTED_EDGES.items()
                                           for value in ("nan", *edges)])
    def test_train_that_exits_0_writes_a_loadable_model(self, tmp_path, synth_csv, key, value):
        model = str(tmp_path / "m.bin")
        if _run("train", "--data", synth_csv, *FAST_TRAIN, f"--{key}={value}",
                "--out", model) == 0:
            load_model(model)

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = RunConfig.merged({}, {})
        assert cfg.attention == TrainConfig()
        assert cfg.boost == BoostConfig()
        assert cfg.synth == SyntheticSpec()
        assert cfg["model.shallow_k"] == DEFAULT_SHALLOW_K


# the options of each command that are not settings: what it reads, writes or shows
NON_SETTING_OPTIONS = {
    "train": {"--data", "--synthetic", "--out", "--metrics-out", "--test-out"},
    "predict": {"--model", "--data", "--out"},
    "evaluate": {"--model", "--data", "--out"},
    "importance": {"--model", "--top", "--raw", "--csv-out"},
    "ablate": {"--data", "--synthetic", "--out"},
    "remove-features": {"--data", "--synthetic", "--features", "--out"},
    "synth": {"--out"},
}


class TestOneKeyPerSetting:
    def test_every_option_is_a_key_flag_or_a_listed_option(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(NON_SETTING_OPTIONS)
        settings = {"--config", *(f"--{key}" for key in KEY_SPECS)}
        for name, parser in commands.items():
            actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
            assert all(len(a.option_strings) == 1 for a in actions), name
            assert len({a.dest for a in actions}) == len(actions), name  # no two write one
            flags = {a.option_strings[0] for a in actions}
            assert NON_SETTING_OPTIONS[name] <= flags, name
            assert flags - NON_SETTING_OPTIONS[name] in (set(), settings), name
            assert {a.option_strings[0] for a in actions if a.nargs == 0} <= {"--synthetic",
                                                                               "--raw"}, name


class TestTrainFingerprint:
    """`train` fingerprints its model with the recipe of ablate and remove-features:
    the settings that shape the fit plus the split's data."""

    @staticmethod
    def _fingerprint(tmp_path, *argv):
        model = str(tmp_path / "fp.bin")
        assert _run("train", *argv, "--out", model) == 0
        return json.load(open(model))["sections"]["meta"]["payload"]["fingerprint"]

    def test_two_tables_give_two_fingerprints(self, tmp_path, synth_csv):
        other = str(tmp_path / "other.csv")
        assert _run("synth", "--synth.rows", "600", "--synth.seed", "7", "--out", other) == 0
        assert (self._fingerprint(tmp_path, "--data", synth_csv, *FAST_TRAIN)
                != self._fingerprint(tmp_path, "--data", other, *FAST_TRAIN))

    def test_unused_synth_key_leaves_a_data_run_unchanged(self, tmp_path, synth_csv):
        assert (self._fingerprint(tmp_path, "--data", synth_csv, *FAST_TRAIN)
                == self._fingerprint(tmp_path, "--data", synth_csv, *FAST_TRAIN,
                                     "--synth.rows", "50"))

    def test_file_and_flags_give_the_same_fingerprint(self, tmp_path, synth_csv):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("".join(f"{flag[2:]}={value}\n"
                               for flag, value in zip(FAST_TRAIN[::2], FAST_TRAIN[1::2])))
        assert (self._fingerprint(tmp_path, "--data", synth_csv, "--config", str(cfg))
                == self._fingerprint(tmp_path, "--data", synth_csv, *FAST_TRAIN))


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert _run("frobnicate") == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert _run("synth", "--bogus", "1") == 2

    def test_missing_data_file(self, tmp_path):
        assert _run("train", "--data", "/no/such.csv",
                    "--out", str(tmp_path / "m.bin")) == 1

    def test_missing_model_file(self, synth_csv):
        assert _run("predict", "--model", "/no/such.bin", "--data", synth_csv) == 1

    def test_help_exits_zero(self, capsys):
        assert _run("--help") == 0
        assert "attnboost" in capsys.readouterr().out
