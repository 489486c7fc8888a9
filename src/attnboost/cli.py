"""Command-line surface: train, predict, evaluate, importance, ablate,
remove-features, and synth subcommands.

A thin layer over the library: each setting is one config.KEY_SPECS key, set
in the `--config` file or by its `--<key>` flag, and `train` fingerprints its
model with experiments.run_fingerprint, as `ablate` and `remove-features` do.

Exit codes: 0 success, 1 runtime or data error, 2 usage or configuration
error. Output files are written atomically and contain no timestamps, so a
fixed seed gives byte-identical outputs across runs.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import datetime as dt
import io
import sys

from . import fusion, importance as importance_mod
from .config import KEY_SPECS, RunConfig, parse_config_file
from .errors import AttnBoostError, ConfigError, DataError, ModelFormatError
from .experiments import (
    REMOVAL_FEATURES,
    generate_synthetic,
    prepare,
    result_to_csv,
    run_ablation,
    run_feature_removal,
    run_fingerprint,
)
from .metrics import CSV_HEADER, evaluate_scores, format_reports, metrics_csv_row
from .model_io import load_model, save_model, write_text_atomic
from .tabular import RawTable, apply_preprocessor, load_csv, retail_schema


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def table_to_csv_text(table: RawTable) -> str:
    buf = io.StringIO()
    writer = csv_mod.writer(buf, lineterminator="\n")
    writer.writerow([c.name for c in table.schema])
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _dest(key: str) -> str:
    return key.replace(".", "_")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file of key=value lines")
    for key, (kind, default) in KEY_SPECS.items():
        parser.add_argument(
            f"--{key}",
            dest=_dest(key),
            type=kind,
            default=None,
            help=f"(default {default!r})",
            metavar="V",
        )


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="input CSV with the retail column schema")
    parser.add_argument("--synthetic", action="store_true",
                        help="use generated data, set by the synth.* keys")


def _merged_config(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    return RunConfig.merged(file_values, {key: getattr(args, _dest(key)) for key in KEY_SPECS})


def _resolve_table(args, cfg: RunConfig) -> RawTable:
    if (args.data is not None) == args.synthetic:
        raise ConfigError("exactly one of --data or --synthetic is required")
    if args.synthetic:
        return generate_synthetic(cfg.synth)
    return load_csv(args.data, retail_schema())


def _run_settings(cfg: RunConfig) -> dict:
    """The settings that the experiment runners and run_fingerprint take, by parameter name."""
    return {"attention_config": cfg.attention, "boost_config": cfg.boost,
            "split_fraction": cfg["split.fraction"], "split_seed": cfg["split.seed"],
            "augment_mode": cfg["model.augment_mode"]}


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    settings = _run_settings(cfg)
    table = _resolve_table(args, cfg)
    state, split = prepare(table, cfg.drop_columns(), cfg["split.fraction"], cfg["split.seed"])
    variant = cfg["model.variant"]
    model = fusion.fit_variant(
        variant,
        split.X_train,
        split.y_train,
        settings["attention_config"],
        settings["boost_config"],
        augment_mode=cfg["model.augment_mode"],
        shallow_k=cfg["model.shallow_k"],
        preprocessor=state,
    )
    train_proba, _ = fusion.predict_matrix(model, split.X_train)
    test_proba, _ = fusion.predict_matrix(model, split.X_test)
    reports = [
        ("train", evaluate_scores(train_proba, split.y_train)),
        ("test", evaluate_scores(test_proba, split.y_test)),
    ]
    fingerprint = run_fingerprint(split, experiment="train", variant=variant,
                                  shallow_k=cfg["model.shallow_k"],
                                  drop=sorted(state.dropped_columns), **settings)
    save_model(model, args.out, fingerprint=fingerprint)
    print(f"variant: {variant}")
    print(format_reports(reports))
    print(f"model written to {args.out}")
    if args.metrics_out:
        rows = "\n".join(metrics_csv_row(name, r) for name, r in reports)
        write_text_atomic(args.metrics_out, f"{CSV_HEADER}\n{rows}\n")
    if args.test_out:
        test_rows = [table.rows[i] for i in split.test_indices]
        write_text_atomic(args.test_out, table_to_csv_text(RawTable(table.schema, test_rows)))
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if model.preprocessor is None:
        raise ModelFormatError("model file has no preprocessor section")
    table = load_csv(args.data, model.preprocessor.schema)
    proba, labels = fusion.predict(model, table)
    lines = ["row_index,probability,label"]
    lines.extend(f"{i},{repr(float(p))},{int(l)}" for i, (p, l) in enumerate(zip(proba, labels)))
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    if model.preprocessor is None:
        raise ModelFormatError("model file has no preprocessor section")
    table = load_csv(args.data, model.preprocessor.schema)
    X, y = apply_preprocessor(model.preprocessor, table)
    if y is None:
        raise DataError("evaluation data must include the target column")
    proba, _ = fusion.predict_matrix(model, X)
    report = evaluate_scores(proba, y)
    print(format_reports([("test", report)]))
    if args.out:
        write_text_atomic(args.out, f"{CSV_HEADER}\n{metrics_csv_row('test', report)}\n")
    return 0


def cmd_importance(args) -> int:
    model = load_model(args.model)
    table = importance_mod.gain_importance(model.ensemble)
    if not args.raw:
        table = importance_mod.collapse_attention_block(table)
    text, csv_text = importance_mod.rank_report(table, args.top)
    print(text)
    if args.csv_out:
        write_text_atomic(args.csv_out, csv_text + "\n")
    return 0


def _write_result(result, out: str) -> int:
    write_text_atomic(out, result_to_csv(result))
    print(format_reports(result.rows))
    print(f"results written to {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _merged_config(args)
    settings = _run_settings(cfg)
    result = run_ablation(_resolve_table(args, cfg), drop=cfg.drop_columns(),
                          shallow_k=cfg["model.shallow_k"], **settings)
    return _write_result(result, args.out)


def cmd_remove_features(args) -> int:
    cfg = _merged_config(args)
    settings = _run_settings(cfg)
    features = [f.strip() for f in args.features.split(",") if f.strip()]
    result = run_feature_removal(features, _resolve_table(args, cfg),
                                 drop=cfg.drop_columns(), **settings)
    return _write_result(result, args.out)


def cmd_synth(args) -> int:
    cfg = _merged_config(args)
    table = generate_synthetic(cfg.synth)
    write_text_atomic(args.out, table_to_csv_text(table))
    print(f"{table.row_count} rows written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnboost",
        description="Attention-augmented gradient boosting for tabular binary classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model, save it, and print metrics")
    _add_source_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", default="model.attnboost", help="model file path")
    p.add_argument("--metrics-out", help="write train/test metrics CSV here")
    p.add_argument("--test-out", help="write the held-out test rows as CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="probability CSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics of a saved model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="gain-based feature ranking of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--raw", action="store_true", help="keep attn_* columns unaggregated")
    p.add_argument("--csv-out", help="ranking CSV path")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser(
        "ablate", help="train and evaluate the five ablation variants",
        description=f"Fit each ablation variant ({', '.join(fusion.VARIANT_KINDS)}) on one "
                    "shared stratified split and write its test metrics.")
    _add_source_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("remove-features", help="retrain with named features removed")
    _add_source_flags(p)
    _add_config_flags(p)
    p.add_argument("--features", default=",".join(REMOVAL_FEATURES))
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=cmd_remove_features)

    p = sub.add_parser("synth", help="generate a planted synthetic CSV")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ModelFormatError, AttnBoostError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
