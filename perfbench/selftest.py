"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with tracing off and on. Each run must
exit 0 with every output check passing, end with a result object that holds
each metric BENCHMARK.json names for that mode exactly once and with its unit,
and print each report figure once with its unit and sample count. A copy of
the harness without the program next to it must exit non-zero and print no
result. Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# figures the printed report gives for each workload, beside the result object
REPORT = {
    "fit_full": ["setup_s", "fit_s", "test_auc", "peak_rss_mb", "error_rate"],
    "ablate_grid": ["setup_s", "grid_s", "test_auc", "peak_rss_mb", "error_rate"],
    "score_stream": ["setup_s", "row_p50_ms", "row_p99_ms", "batch_rows_per_s", "predict_cmd_s",
                     "test_auc", "peak_rss_mb", "error_rate"],
}


def unique_pairs(pairs):
    keys = [k for k, _ in pairs]
    duplicated = sorted({k for k in keys if keys.count(k) > 1})
    if duplicated:
        raise ValueError(f"keys printed more than once: {duplicated}")
    return dict(pairs)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=unique_pairs)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: checks failed\n{proc.stderr[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    table = [line.split() for line in lines[:-1] if line.startswith(workload + " ")]
    names = REPORT[workload] + (list(wanted) if trace else [])
    for name in names:
        rows = [row for row in table if row[1] == name]
        if len(rows) != 1:
            problems.append(f"{where}: report prints {name} {len(rows)} times")
        elif len(rows[0]) < 4 or (name in REPORT[workload] and not rows[0][-1].startswith("n=")):
            problems.append(f"{where}: report line for {name} lacks a unit or count: {rows[0]}")
    if trace and not any(line.startswith("trace overhead:") for line in lines):
        problems.append(f"{where}: no trace overhead line")
    return problems


def check_bare() -> list[str]:
    """Without src/ next to it, the harness must fail without printing a result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "fit_full", 0)
    finally:
        shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare copy: exit code {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    problems = check_bare()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"ran {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
