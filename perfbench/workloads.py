"""The three workloads: fit a model, run the ablation grid, score with a saved model.

Each workload has `setup(seed)`, which builds its inputs (and, for scoring, the
model it serves), `unit(state)`, one timed piece of work that calls attnboost
only through module attributes so a traced run sees every call, and
`verify(state, out, check)`, which checks the unit's outputs untraced.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass

from attnboost import attention, cli, experiments, fusion, gbdt, importance, metrics, model_io, tabular


@dataclass(frozen=True)
class Size:
    fit_rows: int  # synthetic rows for fit_full (80 % train)
    grid_rows: int  # synthetic rows for ablate_grid
    serve_rows: int  # synthetic rows the served model is trained on
    score_rows: int  # rows in the scoring table, scored one by one and as a batch
    k: int
    epochs: int
    rounds: int  # boosting rounds for fit_full and the served model
    grid_rounds: int
    batches: int  # whole-table batches per scoring round
    commands: int  # `predict` commands per scoring round
    setup_budget_s: float  # set up again until this much time has gone into set-up


# Desk tree shape (depth 6, min_child_weight 1, gamma 0) and attention budget
# (k=128, 30 epochs) with fewer boosting rounds than the CLI's desk example,
# so that several units fit in one timed run.
DESK = Size(fit_rows=5000, grid_rows=2000, serve_rows=2000, score_rows=1000, k=128,
            epochs=30, rounds=30, grid_rounds=10, batches=50, commands=25,
            setup_budget_s=1.0)
TINY = Size(fit_rows=200, grid_rows=200, serve_rows=200, score_rows=40, k=8,
            epochs=2, rounds=3, grid_rounds=2, batches=3, commands=2,
            setup_budget_s=0.0)

SPLIT_FRACTION = 0.8
SPLIT_SEED = 42


def attention_config(size: Size) -> attention.TrainConfig:
    return attention.TrainConfig(k=size.k, epochs=size.epochs, seed=0)


def boost_config(rounds: int) -> gbdt.BoostConfig:
    return gbdt.BoostConfig(n_estimators=rounds, max_depth=6, min_child_weight=1.0, gamma=0.0)


def synthetic(rows: int, seed: int) -> tabular.RawTable:
    return experiments.generate_synthetic(experiments.SyntheticSpec(n_rows=rows, seed=seed))


def tree_counts(ensemble: gbdt.Ensemble) -> tuple[int, int]:
    """(nodes, trees) of an ensemble; a binary tree has one leaf more than splits."""
    splits = sum(e.splits for e in importance.gain_importance(ensemble).entries)
    trees = len(ensemble.trees)
    return 2 * splits + trees, trees


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class FitFull:
    """The body of `attnboost train`: preprocess, split, fit, score, evaluate, save."""

    name = "fit_full"
    exercises = ["tabular.fit_preprocessor", "tabular.apply_preprocessor", "fusion.fit_variant",
                 "attention.train", "attention.augment", "gbdt.bin_features",
                 "gbdt.find_best_split", "gbdt.train_boosting", "gbdt.predict_raw",
                 "fusion.predict_matrix", "metrics.evaluate_scores", "model_io.save_model"]

    def __init__(self, size: Size, workdir: str):
        self.size = size
        self.path = os.path.join(workdir, "fit.attnboost")
        self.first = None  # exact outputs of the first unit, for the repeat check

    def setup(self, seed: int):
        return synthetic(self.size.fit_rows, seed)

    def unit(self, table) -> dict:
        size = self.size
        start = time.perf_counter()
        state = tabular.fit_preprocessor(table, [])
        X, y = tabular.apply_preprocessor(state, table)
        split = tabular.stratified_split(X, y, SPLIT_FRACTION, SPLIT_SEED)
        model = fusion.fit_variant("full", split.X_train, split.y_train, attention_config(size),
                                   boost_config(size.rounds), preprocessor=state)
        train_proba, _ = fusion.predict_matrix(model, split.X_train)
        test_proba, _ = fusion.predict_matrix(model, split.X_test)
        metrics.evaluate_scores(train_proba, split.y_train)
        report = metrics.evaluate_scores(test_proba, split.y_test)
        model_io.save_model(model, self.path)
        return {"task_s": [time.perf_counter() - start], "auc": report.auc,
                "model": model, "X_test": split.X_test, "test_proba": test_proba}

    def verify(self, table, out: dict, check) -> None:
        loaded = model_io.load_model(self.path)
        again, _ = fusion.predict_matrix(loaded, out["X_test"])
        check(again.tobytes() == out["test_proba"].tobytes(),
              "saved model reproduces the in-memory test probabilities bit for bit")
        check(math.isfinite(out["auc"]) and 0.0 <= out["auc"] <= 1.0, "test AUC is finite")
        nodes, trees = tree_counts(out["model"].ensemble)
        exact = {"auc": out["auc"], "nodes": nodes, "trees": trees,
                 "bytes": os.path.getsize(self.path), "digest": file_digest(self.path)}
        self.first = self.first or exact
        check(exact == self.first, f"repeat differs from the first fit: {exact} vs {self.first}")


class AblateGrid:
    """`run_ablation` over all seven variants on one shared split."""

    name = "ablate_grid"
    exercises = ["experiments.run_ablation", "tabular.fit_preprocessor",
                 "tabular.apply_preprocessor", "fusion.fit_variant", "attention.train",
                 "attention.augment", "gbdt.bin_features", "gbdt.find_best_split",
                 "gbdt.train_boosting", "gbdt.predict_raw", "fusion.predict_matrix",
                 "metrics.evaluate_scores"]

    def __init__(self, size: Size, workdir: str):
        self.size = size
        self.first = None

    def setup(self, seed: int):
        return synthetic(self.size.grid_rows, seed)

    def unit(self, table) -> dict:
        start = time.perf_counter()
        result = experiments.run_ablation(
            table, attention_config(self.size), boost_config(self.size.grid_rounds),
            split_fraction=SPLIT_FRACTION, split_seed=SPLIT_SEED,
        )
        return {"task_s": [time.perf_counter() - start], "auc": result.report("full").auc,
                "rows": [(name, r.auc) for name, r in result.rows]}

    def verify(self, table, out: dict, check) -> None:
        rows = out["rows"]
        check([name for name, _ in rows] == list(fusion.VARIANT_KINDS), "seven variant rows")
        check(all(0.0 <= a <= 1.0 for _, a in rows), f"every AUC in [0, 1]: {rows}")
        self.first = self.first or rows
        check(rows == self.first, "repeat grid matches the first grid")


class ScoreStream:
    """A saved full model scores single rows, whole-table batches and `predict` commands."""

    name = "score_stream"
    exercises = ["fusion.predict", "tabular.apply_preprocessor", "fusion.predict_matrix",
                 "attention.augment", "gbdt.predict_raw", "cli.run_command",
                 "model_io.load_model", "tabular.load_csv"]

    def __init__(self, size: Size, workdir: str):
        self.size = size
        self.model_path = os.path.join(workdir, "served.attnboost")
        self.csv_path = os.path.join(workdir, "score.csv")
        self.out_path = os.path.join(workdir, "scores.csv")
        self.first = None

    def setup(self, seed: int):
        size = self.size
        table = synthetic(size.serve_rows, seed)
        state = tabular.fit_preprocessor(table, [])
        X, y = tabular.apply_preprocessor(state, table)
        split = tabular.stratified_split(X, y, SPLIT_FRACTION, SPLIT_SEED)
        model = fusion.fit_variant("full", split.X_train, split.y_train, attention_config(size),
                                   boost_config(size.rounds), preprocessor=state)
        model_io.save_model(model, self.model_path)
        score = synthetic(size.score_rows, seed + 1_000_003)
        with open(self.csv_path, "w", encoding="utf-8") as handle:
            handle.write(cli.table_to_csv_text(score))
        served = model_io.load_model(self.model_path)
        _, labels = tabular.apply_preprocessor(served.preprocessor, score)
        return served, score, labels

    def unit(self, state) -> dict:
        served, score, _ = state
        clock = time.perf_counter
        rows, singles = [], []
        for row in score.rows:
            one = tabular.RawTable(score.schema, [row])
            start = clock()
            proba, _ = fusion.predict(served, one)
            rows.append(clock() - start)
            singles.append(proba[0])
        batches = []
        for _ in range(self.size.batches):
            start = clock()
            batch, _ = fusion.predict(served, score)
            batches.append(clock() - start)
        commands, codes = [], []
        argv = ["predict", "--model", self.model_path, "--data", self.csv_path,
                "--out", self.out_path]
        for _ in range(self.size.commands):
            start = clock()
            codes.append(cli.run_command(argv))
            commands.append(clock() - start)
        return {"task_s": rows, "batch_s": batches, "command_s": commands, "codes": codes,
                "singles": singles, "batch": batch}

    def verify(self, state, out: dict, check) -> None:
        _, score, labels = state
        batch = out["batch"]
        for i, p in enumerate(out["singles"]):
            check(p.tobytes() == batch[i].tobytes(), f"row {i} scored alone equals its batch score")
        for code in out["codes"]:
            check(code == 0, f"predict command exit code {code}")
        with open(self.out_path, newline="", encoding="utf-8") as handle:
            written = [float(r["probability"]) for r in csv.DictReader(handle)]
        check(written == batch.tolist(), "predict CSV parses back to the library scores")
        out["auc"] = metrics.evaluate_scores(batch, labels).auc
        self.first = self.first if self.first is not None else batch
        check(batch.tobytes() == self.first.tobytes(), "repeat batch matches the first batch")

    def summary(self, units: list[dict]) -> dict:
        """Report figures of the scoring phases, each with its unit and sample count."""
        rows = [t for u in units for t in u["task_s"]]
        batches = [t for u in units for t in u["batch_s"]]
        commands = [t for u in units for t in u["command_s"]]
        n_rows = self.size.score_rows
        return {
            "row_p50_ms": (statistics.median(rows) * 1e3, "ms", len(rows)),
            "row_p99_ms": (statistics.quantiles(rows, n=100)[98] * 1e3, "ms", len(rows)),
            "batch_rows_per_s": (n_rows / statistics.median(batches), "1/s", len(batches)),
            "predict_cmd_s": (statistics.median(commands), "s", len(commands)),
        }


WORKLOADS = {w.name: w for w in (FitFull, AblateGrid, ScoreStream)}
