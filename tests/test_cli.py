"""End-to-end tests of the command-line surface and its exit codes."""

import argparse
import csv
import json
import random

import pytest

from attnboost import cli
from attnboost.attention import TrainConfig
from attnboost.cli import run_command
from attnboost.config import KEY_SPECS, RunConfig
from attnboost.experiments import SyntheticSpec, generate_synthetic
from attnboost.gbdt import BoostConfig
from attnboost.model_io import FORMAT_VERSION, load_model
from attnboost.tabular import RETAIL_IDENTIFIER_COLUMNS, load_csv, retail_schema

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


def _write_rows(path, rows):
    """Write `rows`, the header first, as CSV to `path`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


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

    def test_scoring_ignores_columns_the_model_does_not_read(self, tmp_path, synth_csv):
        # Row ID and Customer Name are dropped by default; a model trained with them
        # scores the same rows with and without them, in any column order
        with open(synth_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        with_ids = _write_rows(str(tmp_path / "ids.csv"), [
            ["Customer Name", *rows[0], "Row ID"],
            *([f"name {i}", *row, str(i)] for i, row in enumerate(rows[1:], start=1))])
        model = str(tmp_path / "m.bin")
        assert _run("train", "--data", with_ids, *FAST_TRAIN, "--out", model) == 0
        outputs = {}
        for name, data in (("with", with_ids), ("without", synth_csv)):
            for command in ("predict", "evaluate"):
                out = str(tmp_path / f"{command}-{name}.csv")
                assert _run(command, "--model", model, "--data", data, "--out", out) == 0
                outputs[command, name] = open(out, "rb").read()
        assert outputs["predict", "with"] == outputs["predict", "without"]
        assert outputs["evaluate", "with"] == outputs["evaluate", "without"]
        assert [c.name for c in load_model(model).preprocessor.schema] == rows[0]

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

    def test_train_names_a_target_column_without_a_positive_value(self, tmp_path, synth_csv,
                                                                   capsys):
        data = _set_cells(synth_csv, str(tmp_path / "kept.csv"), "Returned", "Not", range(300))
        assert _run("train", "--data", data, *FAST_TRAIN,
                    "--out", str(tmp_path / "m.bin")) == 1
        assert capsys.readouterr().err == ("error: target column 'Returned' has no value other "
                                           "than 'Not'\n")

    def test_train_names_the_row_of_a_third_target_value(self, tmp_path, synth_csv, capsys):
        # the positive value is the first other than "Not"; a long cell is quoted cut short
        returned = [row["Returned"] for row in csv.DictReader(open(synth_csv, newline=""))]
        row = returned.index("Yes") + 1
        data = _set_cells(synth_csv, str(tmp_path / "third.csv"), "Returned", "M" * 65, [row])
        assert _run("train", "--data", data, *FAST_TRAIN,
                    "--out", str(tmp_path / "m.bin")) == 1
        assert capsys.readouterr().err == (
            f"error: row {row + 1}, column 'Returned': target value {'M' * 40!r}... outside "
            "vocabulary ['Not', 'Yes']\n")

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


# ROADMAP item 24's standing fuzz: one odd value in one cell of a clean CSV, through
# `train` and through `predict` with a model trained on the clean file, and `predict` on
# the clean file without one of its columns or with an identifier column more. Each run
# exits 0, or exits 1 with one `error:` line that names the edited row, counted from 1 as
# load_csv counts, and column (or, for `train`, the numeric column whose statistics
# overflow), or the missing column; never a traceback. An extra identifier column leaves
# every score as it was.
CSV_FUZZ_VALUES = ("", " ", "x", "None", "null", "NaN", "nan", "inf", "-inf", "1e309",
                   "1.7e308", "-1.7e308", "9" * 400, "1_000", "\u0661\u0662\u0663", "\uff12",
                   "0x10", "1e-320", "-0", "0", "2017-02-30", "2017-1-1", "20170101",
                   "0001-01-01", "9999-12-31", "Not", "Yes", "Maybe", 'a,b"c', "line\nbreak",
                   "\x00", "Z" * 65, "\U0001f642")
CSV_FUZZ_ROWS = 40


def _csv_fuzz_cases(columns: list[str], seed: int = 24) -> list[tuple]:
    """Every case: (command, column, value, edited row) for each cell edit, with a row
    drawn from 2 on (row 1 holds the first positive target, so an edited target is the
    bad one), then ("predict", column, "missing", None) for each column and ("predict",
    column, "extra", None) for each retail identifier column."""
    rng = random.Random(seed)
    edits = [(command, column, value, rng.randrange(2, CSV_FUZZ_ROWS + 1))
             for command in ("train", "predict") for column in columns
             for value in CSV_FUZZ_VALUES]
    return [*edits, *(("predict", column, "missing", None) for column in columns),
            *(("predict", column, "extra", None) for column in RETAIL_IDENTIFIER_COLUMNS)]


def _csv_fuzz_subset(cases: list[tuple], per_command: int = 75, seed: int = 24) -> list:
    """Up to `per_command` cell edits per command, drawn by a seeded generator, and
    every missing- and extra-column case."""
    rng = random.Random(seed)
    return [*(case for command in ("train", "predict")
              for case in rng.sample([c for c in cases if c[0] == command and c[3]],
                                     per_command)),
            *(case for case in cases if case[3] is None)]


@pytest.fixture(scope="module")
def csv_fuzz(tmp_path_factory):
    """A clean CSV whose first row has the positive target, a model trained on it, its
    predict output, and a directory for the cases' files."""
    directory = tmp_path_factory.mktemp("csv_fuzz")
    table = generate_synthetic(SyntheticSpec(n_rows=CSV_FUZZ_ROWS, seed=3))
    header = [c.name for c in table.schema]
    rows = [[cli._format_cell(cell) for cell in row] for row in table.rows]
    target = header.index("Returned")
    rows.sort(key=lambda row: row[target] != "Yes")  # stable: only the first positive moves
    clean = str(directory / "clean.csv")
    _write_rows(clean, [header, *rows])
    model = str(directory / "model.bin")
    assert _run("train", "--data", clean, *FAST_TRAIN, "--out", model) == 0
    scores = str(directory / "scores.csv")
    assert _run("predict", "--model", model, "--data", clean, "--out", scores) == 0
    return header, rows, model, open(scores).read(), directory


def _csv_fuzz_outcome(case, csv_fuzz, capsys) -> str | None:
    """None when the case behaves as the fuzz's rule says; else what went wrong."""
    command, column, value, row = case
    header, rows, model, clean_scores, directory = csv_fuzz
    data, out = str(directory / "case.csv"), str(directory / "case.out")
    if value == "missing":
        j = header.index(column)
        _write_rows(data, [header[:j] + header[j + 1:], *(r[:j] + r[j + 1:] for r in rows)])
        named = [f"missing [{column!r}]"]
    elif value == "extra":
        cells = [str(i) if column == "Row ID" else f"id {i}" for i in range(1, len(rows) + 1)]
        _write_rows(data, [[column, *header], *([c, *r] for c, r in zip(cells, rows))])
        named = []
    else:
        edited = [list(r) for r in rows]
        edited[row - 1][header.index(column)] = value
        _write_rows(data, [header, *edited])
        named = [f"row {row}, column {column!r}", f"row {row}, feature {column!r}",
                 *([f"numeric column {column!r}"] if command == "train" else [])]
    argv = (["train", "--data", data, *FAST_TRAIN, "--out", out] if command == "train"
            else ["predict", "--model", model, "--data", data, "--out", out])
    capsys.readouterr()
    try:
        code = run_command(argv)
    except Exception as exc:  # run_command lets it out, so `attnboost` shows a traceback
        return f"traceback: {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code == 0:
        if value == "extra" and open(out).read() != clean_scores:
            return "an extra identifier column changed the scores"
        return None
    if code == 1 and err.startswith("error: ") and err.count("\n") == 1 and len(err) < 400:
        if any(name in err for name in named):
            return None
    return f"exit {code}: {err!r}"


class TestCsvFuzz:
    def test_subset_covers_every_kind_of_case(self, csv_fuzz):
        header = csv_fuzz[0]
        subset = _csv_fuzz_subset(_csv_fuzz_cases(header))
        for command in ("train", "predict"):
            assert {case[1] for case in subset if case[0] == command and case[3]} == set(header)
        assert {case[1] for case in subset if case[2] == "missing"} == set(header)
        assert {case[1] for case in subset if case[2] == "extra"} == set(
            RETAIL_IDENTIFIER_COLUMNS)

    def test_case_exits_0_or_names_its_cell(self, csv_fuzz, capsys):
        failures = [f"{case}: {outcome}"
                    for case in _csv_fuzz_subset(_csv_fuzz_cases(csv_fuzz[0]))
                    if (outcome := _csv_fuzz_outcome(case, csv_fuzz, capsys)) is not None]
        assert failures == []


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
        model.write_text(f'{{"format":"attnboost-model","version":{FORMAT_VERSION},'
                         '"sections":{"meta":[1,2],"preprocessor":{},"attention":{},'
                         '"ensemble":{}}}')
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

    @pytest.mark.parametrize("features, message", [
        # the default drop list already drops the identifier columns
        ("Row ID", "feature 'Row ID' is also in the drop list"),
        (" Nope ,, Sales", "cannot remove unknown features: ['Nope']"),
    ])
    def test_remove_features_refused_before_any_fit_exits_1(self, tmp_path, synth_csv, capsys,
                                                            features, message):
        rows = list(csv.reader(open(synth_csv)))
        with_ids = str(tmp_path / "with_ids.csv")
        with open(with_ids, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(
                [["Row ID", *rows[0]], *([str(i), *row] for i, row in enumerate(rows[1:], 1))])
        out = tmp_path / "removal.csv"
        assert _run("remove-features", "--data", with_ids, "--features", features,
                    "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


# one out-of-range value for every float key; nan and inf are out of range for each
OUT_OF_RANGE = {
    "split.fraction": "1.5",
    "attention.learning_rate": "0",
    "boost.learning_rate": "1.5",
    "boost.min_child_weight": "-1",
    "boost.gamma": "-0.1",
    "boost.subsample": "0",
    "boost.colsample_bytree": "1.01",
    "boost.reg_alpha": "-1",
    "boost.reg_lambda": "-1",
    "synth.noise_sd": "-0.25",
}

# every seed runs from 0 to 2**64 - 1
SEED_KEYS = ("attention.seed", "boost.seed", "split.seed", "synth.seed")

# values at or near each end of a training key's range, which train accepts
ACCEPTED_EDGES = {
    "split.fraction": ("0.05", "0.95"),
    "attention.learning_rate": ("1e-12", "1"),
    "boost.learning_rate": ("1e-12", "1"),
    "boost.min_child_weight": ("0", "1e6"),
    "boost.gamma": ("0", "1e6"),
    "boost.subsample": ("1e-6", "1"),
    "boost.colsample_bytree": ("1e-6", "1"),
    "boost.reg_alpha": ("0", "1e6"),
    "boost.reg_lambda": ("0", "1e6"),
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

    # model.augment_mode chose alpha alone as the block, attention.optimizer plain SGD,
    # attention.prob_clamp the loss clamp, boost.base_score the raw score every row starts
    # from and model.shallow_k shallow_attention's width; a file that still sets one is
    # refused, not trained with h * alpha, Adam, a clamp of 1e-12, 0 and 16
    @pytest.mark.parametrize("line", ["boost.n_estimatorz=12",
                                      "model.augment_mode=attention-vector",
                                      "attention.optimizer=plain-sgd",
                                      "attention.prob_clamp=1e-6",
                                      "boost.base_score=0.3",
                                      "model.shallow_k=8",
                                      "synth.intercept=0.5"])
    def test_unknown_config_key_exits_2(self, tmp_path, synth_csv, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"attention.k=6\n{line}\n")
        model = str(tmp_path / "m.bin")
        assert _run("train", "--data", synth_csv, "--config", str(cfg),
                    "--out", model) == 2
        key = line.split("=")[0]
        assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err

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
        ["--attention.k", "0"],
        ["--attention.k", "65537"],
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
    ])
    def test_bad_number_exits_2_before_data_is_read(self, tmp_path, key, value, capsys):
        # the data file does not exist, so reading it would exit 1
        assert _run("train", "--data", str(tmp_path / "absent.csv"), f"--{key}={value}",
                    "--out", str(tmp_path / "m.bin")) == 2
        assert f"key {key!r}" in capsys.readouterr().err

    # numpy refused a negative seed with a message that named no key, and random_attention's
    # blake2b a seed of more than 64 digits, after ablate had fitted full and no_attention
    @pytest.mark.parametrize("value", ["-1", str(2**64), "9" * 70])
    @pytest.mark.parametrize("key", SEED_KEYS)
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_seed_out_of_range_exits_2_before_data_is_read(self, tmp_path, capsys, command,
                                                           key, value):
        # train's data file does not exist, so reading it would exit 1
        data = ["--data", str(tmp_path / "absent.csv")] if command == "train" else ["--synthetic"]
        assert _run(command, *data, f"--{key}={value}", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and f"must be from 0 to {2**64 - 1}, got {value}" in err
        assert not (tmp_path / "out").exists()

    def test_largest_seeds_train_and_score(self, tmp_path, capsys):
        model, top = str(tmp_path / "m.bin"), str(2**64 - 1)
        seeds = [arg for key in SEED_KEYS for arg in (f"--{key}", top)]
        assert _run("train", "--synthetic", "--synth.rows", "200", *FAST_TRAIN, *seeds,
                    "--model.variant", "random_attention", "--out", model) == 0
        assert load_model(model).attention.seed == 2**64 - 1
        assert _run("importance", "--model", model) == 0

    @pytest.mark.parametrize("make", [TrainConfig, BoostConfig, SyntheticSpec])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_library_configs_bound_their_seed(self, make, seed):
        with pytest.raises(ValueError, match=f"^seed must be from 0 to {2**64 - 1}, got {seed}$"):
            make(seed=seed)
        assert make(seed=2**64 - 1).seed == 2**64 - 1

    def test_every_float_key_has_an_out_of_range_case(self):
        assert set(OUT_OF_RANGE) == {key for key, (kind, _) in KEY_SPECS.items() if kind is float}

    @pytest.mark.parametrize("key,value", [(key, value) for key, edges in ACCEPTED_EDGES.items()
                                           for value in ("nan", *edges)])
    def test_train_that_exits_0_writes_a_loadable_model(self, tmp_path, synth_csv, key, value):
        model = str(tmp_path / "m.bin")
        if _run("train", "--data", synth_csv, *FAST_TRAIN, f"--{key}={value}",
                "--out", model) == 0:
            load_model(model)

    def test_drop_list_naming_a_column_twice_trains_the_model_naming_it_once(self, tmp_path,
                                                                             synth_csv):
        once, twice = str(tmp_path / "once.bin"), str(tmp_path / "twice.bin")
        for model, drop in ((once, "Sales"), (twice, "Sales,Sales")):
            assert _run("train", "--data", synth_csv, *FAST_TRAIN,
                        f"--preprocess.drop={drop}", "--out", model) == 0
        assert "Sales" not in [c.name for c in load_model(twice).preprocessor.schema]
        assert open(twice, "rb").read() == open(once, "rb").read()
        assert _run("evaluate", "--model", twice, "--data", synth_csv) == 0

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = RunConfig.merged({}, {})
        assert cfg.attention == TrainConfig()
        assert cfg.boost == BoostConfig()
        assert cfg.synth == SyntheticSpec()
        assert len(KEY_SPECS) == 24


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

    @pytest.mark.parametrize("argv", [("synth", "--bogus", "1"),
                                      ("train", "--synthetic", "--model.augment_mode",
                                       "weighted-hidden"),
                                      ("train", "--synthetic", "--attention.optimizer",
                                       "plain-sgd"),
                                      ("train", "--synthetic", "--attention.prob_clamp",
                                       "1e-6"),
                                      ("train", "--synthetic", "--boost.base_score", "0.3"),
                                      ("ablate", "--synthetic", "--model.shallow_k", "8"),
                                      ("synth", "--synth.intercept", "0.5")])
    def test_unknown_flag(self, tmp_path, capsys, argv):
        assert _run(*argv, "--out", str(tmp_path / "out")) == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path):
        assert _run("train", "--data", "/no/such.csv",
                    "--out", str(tmp_path / "m.bin")) == 1

    def test_missing_model_file(self, synth_csv):
        assert _run("predict", "--model", "/no/such.bin", "--data", synth_csv) == 1

    def test_help_exits_zero(self, capsys):
        assert _run("--help") == 0
        assert "attnboost" in capsys.readouterr().out
