"""In-process CLI runs, with or without spans around each layer's public
functions.

Run as a script, this is the child process of a traced or untraced
in-process run: it imports ``partial_actions.cli`` from ``<root>/src``,
optionally installs the tracer, calls ``cli.main`` once per invocation with
stdout and stderr captured to files, and prints one JSON line with the
timings, exit codes and (when traced) the per-layer figures.

    python3 perfbench/tracer.py SPEC.json

The tracer wraps each function in :data:`LAYER_FUNCTIONS` in every
``partial_actions`` module namespace that binds it, and wraps the
constructors of the classes in :data:`LAYER_CLASSES` on the class itself,
so ``from .x import f`` bindings and ``isinstance`` checks keep working.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

LAYER_FUNCTIONS = (
    "cli.main",
    "documents.load_workbench",
    "documents.set_action_to_doc",
    "groups.make_group",
    "groups.coset_factorize",
    "set_actions.enumerate_partial_actions",
    "set_actions.verify_partial_action",
    "set_actions.globalize_set",
    "set_actions.verify_set_globalization",
    "block_algebras.wreath_compose",
    "algebra_actions.verify_algebra_partial_action",
    "algebra_actions.verify_enveloping",
    "algebra_actions.globalize_block_power",
    "algebra_actions.globalize_extension_by_zero",
)
LAYER_CLASSES = (
    "set_actions.GlobalSetAction",
    "block_algebras.WreathMap",
)
LAYERS = LAYER_FUNCTIONS + LAYER_CLASSES
# functions whose result length is counted as ``<name>.accepted``
COUNT_RESULTS = ("set_actions.enumerate_partial_actions",)

PACKAGE = "partial_actions"


class Tracer:
    """Records one span per call of a wrapped function or constructor."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self.accepted: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = name in COUNT_RESULTS
        accepted = self.accepted

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count:
                    accepted[name] = accepted.get(name, 0) + len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def install(self) -> None:
        """Wrap every listed name the package still has; a name it no longer
        has records zero calls, which the coverage guard reports."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in LAYER_FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name in LAYER_CLASSES:
            module, attr = name.split(".")
            cls = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)
            if cls is None:
                continue
            original = cls.__init__
            self._restore.append((cls, "__init__", original))
            cls.__init__ = self._wrap(name, original)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def layer_figures(self) -> dict[str, dict]:
        """calls and self time per wrapped name (zero for names never called)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        figures = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            figures[name]["calls"] += 1
            figures[name]["self_s"] += (end - start) - covered
        return figures

    def write_spans(self, path: Path, workload: str, run_id: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                    "workload": workload, "run": run_id,
                }) + "\n")


def run(spec: dict) -> dict:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from partial_actions import cli

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    runs = []
    try:
        for argv, out_path, err_path in zip(spec["invocations"], spec["stdout"], spec["stderr"]):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback is an outcome to report, not to stop on
                    traceback.print_exc()
                    code = 1
            wall = time.perf_counter() - start
            text = out.getvalue()
            Path(out_path).write_text(text, encoding="utf-8")
            Path(err_path).write_text(err.getvalue(), encoding="utf-8")
            runs.append({"exit_code": code, "wall_s": wall, "stdout_bytes": len(text.encode("utf-8"))})
    finally:
        if tracer:
            tracer.uninstall()
    result: dict = {"runs": runs}
    if tracer:
        tracer.write_spans(Path(spec["spans"]), spec["workload"], spec["run_id"])
        result["layers"] = tracer.layer_figures()
        result["accepted"] = tracer.accepted
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(json.dumps(run(json.load(fh))))
