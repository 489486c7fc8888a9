"""Spans around calls into attnboost's public functions, patched in from outside.

`from .x import y` binds `y` into the importing module when it is imported, so
wrapping `x.y` alone misses those callers. `Tracer.install` therefore replaces
every binding of each target function in every loaded attnboost module, and
`Tracer.uninstall` puts the originals back.

Spans live in memory (name, wall and CPU clocks at start and end, parent) and
are aggregated per function: calls, wall seconds, self seconds (the span minus
its child spans), process CPU seconds (all threads, so the BLAS pool shows) and
wait seconds (wall minus the calling thread's CPU time: the time a
single-threaded layer spent off the CPU).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# module -> public functions whose calls are timed in a traced run
TARGETS = {
    "tabular": ["fit_preprocessor", "apply_preprocessor", "load_csv"],
    "attention": ["train", "augment"],
    "gbdt": ["bin_features", "find_best_split", "train_boosting", "predict_raw"],
    "fusion": ["fit_variant", "predict_matrix", "predict"],
    "metrics": ["evaluate_scores"],
    "model_io": ["save_model", "load_model"],
    "experiments": ["generate_synthetic", "run_ablation"],
    "cli": ["run_command"],
}

NAME, START, END, CPU_START, CPU_END, THREAD_START, THREAD_END, PARENT, RESULT = range(9)

# what a span keeps of its call, for counts that times alone do not give
KEEP_RESULT = {
    "gbdt.find_best_split": lambda result, args, kwargs: result is not None,
    "gbdt.train_boosting": lambda result, args, kwargs: result,
    "model_io.save_model": lambda result, args, kwargs: os.path.getsize(
        args[1] if len(args) > 1 else kwargs["path"]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, time.process_time(), 0.0, time.thread_time(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[THREAD_END] = time.thread_time()
                span[CPU_END] = time.process_time()
                stack.pop()
            if name in KEEP_RESULT:
                span[RESULT] = KEEP_RESULT[name](result, args, kwargs)
            return result

        return traced

    def install(self, package: str = "attnboost") -> None:
        """Replace every binding of each target in the package's loaded modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for short, names in TARGETS.items():
            home = sys.modules[f"{package}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def tracing(self):
        """Install the wrappers for the block; the session holds the block's spans."""
        session = Session(self, len(self.spans))
        self.install()
        try:
            yield session
        finally:
            self.uninstall()
            session.last = len(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                         "cpu": s[CPU_END] - s[CPU_START],
                                         "thread_cpu": s[THREAD_END] - s[THREAD_START],
                                         "parent": s[PARENT]}) + "\n")


class Session:
    def __init__(self, tracer: Tracer, first: int):
        self.tracer = tracer
        self.first = first
        self.last = first

    def _spans(self) -> list[list]:
        return self.tracer.spans[self.first:self.last]

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-function calls, s, self_s, cpu_s and wait_s of the session's spans."""
        spans = self._spans()
        child_s = [0.0] * len(spans)
        for s in spans:
            parent = s[PARENT] - self.first
            if parent >= 0:
                child_s[parent] += s[END] - s[START]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(spans):
            row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
                                           "wait_s": 0.0})
            wall = s[END] - s[START]
            row["calls"] += 1
            row["s"] += wall  # no target calls itself, so spans of one name never nest
            row["self_s"] += wall - child_s[i]
            row["cpu_s"] += s[CPU_END] - s[CPU_START]
            row["wait_s"] += wall - (s[THREAD_END] - s[THREAD_START])
        return out

    def results(self, name: str) -> list:
        """What the session's calls of `name` kept (see KEEP_RESULT)."""
        return [s[RESULT] for s in self._spans() if s[NAME] == name]
