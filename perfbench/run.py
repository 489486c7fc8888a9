"""Benchmark of attnboost: fit a model, run the ablation grid, score with a saved model.

Run from the repository root, one workload per fresh process:

    python3 perfbench/run.py --workload fit_full --seed 1 --seconds 30 --trace 0

Workloads are `fit_full`, `ablate_grid` and `score_stream` (see workloads.py).
The program is imported from `src/` next to this directory; without it the run
exits with code 1 and prints no result. The seed makes the synthetic inputs.

With `--trace 0` the run repeats its workload's unit of work until `--seconds`
have passed and reports the end-to-end metrics. With `--trace 1` it runs four
units, alternating untraced and traced, reports per-layer metrics of the
traced units, prints the tracing overhead and writes every span to
`.bench_out/`. Every unit's outputs are checked; a failed check counts in
`failed`. The last line of standard output is the JSON result.

`--size tiny` shrinks every input for the harness self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "task_s": "s", "test_auc": "auc", "peak_rss_mb": "MB"}

# <module>.<function>.<stat>; the stats are averaged over the traced units
PER_LAYER = {
    "gbdt.find_best_split.calls": "count",
    "gbdt.find_best_split.s": "s",
    "gbdt.find_best_split.wait_s": "s",
    "gbdt.find_best_split.found_ratio": "ratio",
    "gbdt.train_boosting.self_s": "s",
    "gbdt.train_boosting.cpu_s": "s",
    "gbdt.train_boosting.wait_s": "s",
    "gbdt.bin_features.s": "s",
    "gbdt.predict_raw.calls": "count",
    "gbdt.predict_raw.s": "s",
    "gbdt.nodes": "count",
    "gbdt.trees": "count",
    "attention.train.s": "s",
    "attention.train.cpu_s": "s",
    "attention.augment.calls": "count",
    "attention.augment.s": "s",
    "tabular.fit_preprocessor.s": "s",
    "tabular.apply_preprocessor.calls": "count",
    "tabular.apply_preprocessor.s": "s",
    "tabular.load_csv.s": "s",
    "fusion.fit_variant.self_s": "s",
    "fusion.predict_matrix.self_s": "s",
    "metrics.evaluate_scores.s": "s",
    "model_io.save_model.s": "s",
    "model_io.save_model.bytes": "bytes",
    "model_io.load_model.s": "s",
    "experiments.generate_synthetic.s": "s",
    "experiments.run_ablation.self_s": "s",
    "cli.run_command.self_s": "s",
}

MIN_SETUPS = 3

# what run() reads of a unit's outputs once they are verified
KEPT = ("task_s", "auc", "wall_s", "batch_s", "command_s")

# what task_s is on each workload, as the printed report names and scales it
TASK_NAMES = {"fit_full": ("fit_s", 1.0, "s"), "ablate_grid": ("grid_s", 1.0, "s"),
              "score_stream": ("row_p50_ms", 1e3, "ms")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit_full", "ablate_grid", "score_stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["desk", "tiny"], default="desk")
    return parser.parse_args(argv)


def import_program():
    """Import attnboost from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import attnboost
    except ImportError as exc:
        sys.exit(f"error: cannot import attnboost from {SRC}: {exc}")
    if Path(attnboost.__file__).resolve().parent != SRC / "attnboost":
        sys.exit(f"error: attnboost was imported from {attnboost.__file__}, not {SRC}")


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


class Checks:
    """Operations and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def run_unit(workload, state, check, tracer=None):
    """One unit of work, traced when a tracer is given; None if it raised."""
    tracing = tracer.tracing() if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with tracing as session:
            out = workload.unit(state)
    except Exception:  # a failed unit is counted, and the run goes on
        traceback.print_exc()
        check(False, "unit raised")
        return None
    out["wall_s"] = time.perf_counter() - start
    check(True, "unit ran")
    workload.verify(state, out, check)
    # keep the figures only, so that peak memory does not grow with the unit count
    kept = {k: v for k, v in out.items() if k in KEPT}
    kept["session"] = session
    return kept


def layer_metrics(session, setup_session, exercises, check) -> dict:
    """PER_LAYER values of one traced unit; asserts the unit called what it should."""
    from workloads import tree_counts

    layers = session.layers()
    for name in exercises:
        check(layers.get(name, {}).get("calls", 0) > 0, f"{name} was never called")
    check(setup_session.layers().get("experiments.generate_synthetic", {}).get("calls", 0) > 0,
          "experiments.generate_synthetic was never called in set-up")
    ensembles = [tree_counts(e) for e in session.results("gbdt.train_boosting")]
    values = {
        "gbdt.nodes": sum(n for n, _ in ensembles),
        "gbdt.trees": sum(t for _, t in ensembles),
        "model_io.save_model.bytes": sum(session.results("model_io.save_model")),
        "experiments.generate_synthetic.s":
            setup_session.layers().get("experiments.generate_synthetic", {}).get("s", 0.0),
    }
    found = session.results("gbdt.find_best_split")
    values["gbdt.find_best_split.found_ratio"] = sum(found) / len(found) if found else 0.0
    for metric in PER_LAYER:
        if metric in values:
            continue
        function, stat = metric.rsplit(".", 1)
        values[metric] = layers.get(function, {}).get(stat, 0)
    return values


def exact_counts(values: dict) -> dict:
    """The per-layer values that must repeat exactly for one commit and seed."""
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k in ("gbdt.nodes", "gbdt.trees",
                                             "gbdt.find_best_split.found_ratio",
                                             "model_io.save_model.bytes")}


def run(args, workdir: str, out_dir: Path) -> dict:
    from tracer import Tracer
    from workloads import DESK, TINY, WORKLOADS

    size = TINY if args.size == "tiny" else DESK
    workload = WORKLOADS[args.workload](size, workdir)
    check = Checks()
    tracer = Tracer() if args.trace else None

    setup_s = []
    setup_session = None
    # setup_s is the median of several set-ups; a traced run traces the first
    while len(setup_s) < MIN_SETUPS or sum(setup_s) < size.setup_budget_s:
        traced_setup = tracer is not None and not setup_s
        start = time.perf_counter()
        with tracer.tracing() if traced_setup else contextlib.nullcontext() as session:
            state = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - start)
        setup_session = session if traced_setup else setup_session

    units, traced = [], []
    if tracer is None:
        start = time.perf_counter()
        tries = 0
        while True:  # at least two units, and stop before one would overrun --seconds
            tries += 1
            unit_start = time.perf_counter()
            out = run_unit(workload, state, check)
            if out is not None:
                units.append(out)
            now = time.perf_counter()
            if tries >= 2 and (now - start) + (now - unit_start) > args.seconds:
                break
    else:
        for traced_unit in (False, True, False, True):
            out = run_unit(workload, state, check, tracer if traced_unit else None)
            if out is not None:
                (traced if traced_unit else units).append(out)
    if not units or (tracer is not None and len(traced) < 2):
        raise RuntimeError(f"no unit completed: {check.failed[:5]}")

    report = {"setup_s": (statistics.median(setup_s), "s", len(setup_s))}
    task_name, scale, unit = TASK_NAMES[args.workload]
    task_s = [t for u in units for t in u["task_s"]]
    report[task_name] = (statistics.median(task_s) * scale, unit, len(task_s))
    if len(task_s) >= 2:
        deciles = statistics.quantiles(task_s, n=10, method="inclusive")
        print(f"task_s samples: min {min(task_s):.6g} p10 {deciles[0]:.6g} "
              f"p50 {statistics.median(task_s):.6g} p90 {deciles[-1]:.6g} max {max(task_s):.6g}")
    if args.workload == "score_stream":
        report.update(workload.summary(units))
    report["test_auc"] = (units[0]["auc"], "auc", len(units))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["peak_rss_mb"] = (rss_mb, "MB", 1)

    if tracer is None:
        metrics = {"setup_s": statistics.median(setup_s), "task_s": statistics.median(task_s),
                   "test_auc": units[0]["auc"], "peak_rss_mb": rss_mb}
        units_of = END_TO_END
    else:
        per_unit = [layer_metrics(u["session"], setup_session, workload.exercises, check)
                    for u in traced]
        check(exact_counts(per_unit[0]) == exact_counts(per_unit[1]),
              f"exact counts differ between traced units: {exact_counts(per_unit[0])} "
              f"vs {exact_counts(per_unit[1])}")
        metrics = {k: statistics.fmean(v[k] for v in per_unit) for k in PER_LAYER}
        units_of = PER_LAYER
        plain = statistics.median(u["wall_s"] for u in units)
        with_spans = statistics.median(u["wall_s"] for u in traced)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"trace overhead: {with_spans - plain:+.4f} s per unit "
              f"(traced {with_spans:.4f} s, untraced {plain:.4f} s); "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")

    report["error_rate"] = (len(check.failed) / check.attempted, "ratio", check.attempted)
    for name, (value, unit, n) in report.items():
        print(f"{args.workload:<13} {name:<18} {value:>16.6g} {unit:<5} n={n}")
    if tracer is not None:
        for name, value in metrics.items():
            print(f"{args.workload:<13} {name:<34} {value:>14.6g} {PER_LAYER[name]}")
    for what in check.failed[:20]:
        print(f"FAILED: {what}", file=sys.stderr)

    return {
        "correct": not check.failed,
        "attempted": check.attempted,
        "failed": len(check.failed),
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    print("env " + json.dumps(environment(args.seed)))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        result = run(args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
