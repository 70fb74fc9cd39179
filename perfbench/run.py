#!/usr/bin/env python3
"""Benchmark of the partial-actions CLI: seeded workloads, end-to-end
metrics from fresh-process runs, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload enumerate-z6x4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from anywhere; the repository root is the parent of this directory and
the package is imported from ``<root>/src``.  Inputs, outputs and spans go
to ``<root>/.bench_build/perfbench/<workload>-s<seed>/``.

Load shape: a closed loop with one client.  One CLI child process runs at a
time; the next starts when the previous one has been reaped.

``--trace 0`` times the workload's CLI invocations in fresh interpreters
(``python -m partial_actions``) for ``--seconds``, after timing set-up
(import the CLI and parse the input) a fixed number of times.  The harness
and its children are pinned to one CPU, and every time is scaled to the
reference host speed measured by the speed probe (``probe.py``) on that CPU
while the child ran.  ``--trace 1``
alternates untraced and traced in-process runs (see ``tracer.py``) for
``--seconds`` and reports per-layer figures.  Every run's output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from tracer import COUNT_RESULTS, LAYERS
from workloads import WORKLOADS, Output, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 7  # timed set-up runs, after one untimed warm-up that fills the bytecode cache
MIN_SAMPLES = 3  # timed iterations per run even when --seconds is too short for them
MIN_PAIRS = 2  # traced runs: one pair with each order of untraced and traced
# duration of the probe's loop on the reference host: a time t taken while
# the loop took p ms is reported as t * REFERENCE_PROBE_MS / p
REFERENCE_PROBE_MS = 0.7

SETUP_SNIPPET = """\
import json, sys
import partial_actions.cli
from partial_actions.documents import load_workbench, parse_group
kind, path = sys.argv[1:3]
if kind == "group":
    with open(path, encoding="utf-8") as fh:
        parse_group(json.load(fh))
else:
    load_workbench(path)
"""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # children use a bytecode cache, as an installed package would, instead
    # of compiling the package in every process when the caller disabled it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every child
    return env


class Child(NamedTuple):
    code: int
    wall: float  # s
    cpu: float  # user + system s, from os.wait4
    rss_kib: int
    start_ns: int  # time.monotonic_ns() at spawn and after reaping
    end_ns: int


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> Child:
    """Run one child to completion."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, (end - start) / 1e9, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, start, end)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """The speed probe (``probe.py``) running beside the timed children."""

    def __init__(self, path: Path):
        self.path = path
        self.loops: list[tuple[int, int]] = []  # (start ns, duration ns)

    def __enter__(self) -> "Probe":
        self._out = open(self.path, "wb")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdout=self._out, env=child_env(), cwd=ROOT,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()
        self._out.close()
        with open(self.path, encoding="utf-8") as fh:
            self.loops = [tuple(map(int, line.split())) for line in fh if line.count(" ") == 1]

    def scale(self, child: Child) -> float | None:
        """Factor that scales the child's times to the reference host speed:
        REFERENCE_PROBE_MS over the harmonic mean of the durations in ms of
        the loops that started while the child ran; None if no loop did.

        The loops start at even intervals, so the mean of 1/duration is the
        host's mean speed over the child's run, which is what its time
        depends on.  The durations are bimodal (the host switches between a
        fast and a slow state many times a second), so their median would
        jump between the modes; a preempted loop's long duration adds little
        to the mean of 1/duration."""
        during = [took for start, took in self.loops if child.start_ns <= start < child.end_ns]
        return REFERENCE_PROBE_MS * 1e6 / statistics.harmonic_mean(during) if during else None


def read_output(code: int, stdout: Path, stderr: Path) -> Output:
    return Output(
        code,
        stdout.read_text(encoding="utf-8", errors="replace"),
        stderr.read_text(encoding="utf-8", errors="replace"),
    )


class Tally:
    """Output checks attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, results: list[tuple[str, bool]]) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(name)


def run_checks(wl: Workload, outputs: list[Output]) -> list[tuple[str, bool]]:
    """The workload's output checks; output of an unexpected shape fails."""
    try:
        return wl.check(outputs)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        return [("output has the expected shape", False)]


def until(seconds: float, minimum: int, iteration) -> list:
    """Call ``iteration`` repeatedly for about ``seconds``: stop before an
    iteration that would end past the deadline, after at least ``minimum``."""
    start = time.perf_counter()
    samples, durations = [], []
    while True:
        t0 = time.perf_counter()
        samples.append(iteration(len(samples)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(samples) >= minimum and elapsed + statistics.median(durations) > seconds:
            return samples


def measure(wl: Workload, rundir: Path, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics from fresh-process runs, scaled to the reference
    host speed; returns (metrics, sample counts)."""
    setup_cmd = [sys.executable, "-c", SETUP_SNIPPET, *wl.setup]

    def iteration(_: int) -> list[Child]:
        children, outputs = [], []
        for i, argv in enumerate(wl.invocations):
            out, err = rundir / f"cli{i}.out", rundir / f"cli{i}.err"
            child = spawn([sys.executable, "-m", "partial_actions", *argv], out, err)
            children.append(child)
            outputs.append(read_output(child.code, out, err))
        tally.add(run_checks(wl, outputs))
        return children

    with Probe(rundir / "probe.txt") as probe:
        setup = []
        for rep in range(SETUP_REPS + 1):
            child = spawn(setup_cmd, rundir / "setup.out", rundir / "setup.err")
            tally.add([("set-up exits 0", child.code == 0)])
            if rep:
                setup.append([child])
        samples = until(seconds, MIN_SAMPLES, iteration)

    factors = {child: probe.scale(child) for s in [*setup, *samples] for child in s}
    tally.add([("the speed probe ran during every timed child",
                None not in factors.values())])

    def scaled(children: list[Child], field: str) -> float:
        return sum(getattr(c, field) * (factors[c] or 1.0) for c in children)

    wall = statistics.median(scaled(s, "wall") for s in samples)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": statistics.median(scaled(s, "cpu") for s in samples), "unit": "s"},
        "setup_s": {"value": statistics.median(scaled(s, "wall") for s in setup), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(max(c.rss_kib for c in s) for s in samples) / 1024,
            "unit": "MiB"},
        "items_per_s": {"value": wl.items / wall, "unit": "1/s"},
    }
    counts = {name: len(samples) for name in metrics}
    counts["setup_s"] = len(setup)
    raw = [sum(c.wall for c in s) for s in samples]
    print(f"{wl.name}: unscaled wall_s samples {' '.join(f'{w:.4f}' for w in raw)}")
    print(f"{wl.name}: unscaled medians wall_s {statistics.median(raw):.4f} s, "
          f"setup_s {statistics.median(s[0].wall for s in setup):.4f} s; "
          f"{len(probe.loops)} probe loops")
    return metrics, counts


def in_process(wl: Workload, rundir: Path, trace: bool, run_id: str) -> dict:
    """One in-process run of the workload in a fresh child (see tracer.py)."""
    tag = "traced" if trace else "plain"
    n = len(wl.invocations)
    spec = {
        "root": str(ROOT),
        "trace": trace,
        "workload": wl.name,
        "run_id": run_id,
        "invocations": wl.invocations,
        "stdout": [str(rundir / f"{tag}{i}.out") for i in range(n)],
        "stderr": [str(rundir / f"{tag}{i}.err") for i in range(n)],
        "spans": str(rundir / f"spans-{run_id}.jsonl"),
    }
    spec_path = rundir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path, err_path = rundir / f"{tag}.result", rundir / f"{tag}.result.err"
    child = spawn(
        [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spec_path)],
        result_path, err_path,
    )
    if child.code != 0:
        raise RuntimeError(f"in-process child failed: {err_path.read_text(encoding='utf-8')}")
    result = json.loads(result_path.read_text(encoding="utf-8").splitlines()[-1])
    result["outputs"] = [
        read_output(r["exit_code"], Path(o), Path(e))
        for r, o, e in zip(result["runs"], spec["stdout"], spec["stderr"])
    ]
    return result


def trace_layers(wl: Workload, rundir: Path, seconds: float, seed: int, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced in-process runs, alternating
    which goes first, for about ``seconds``."""

    def iteration(k: int) -> tuple[dict, dict]:
        order = (False, True) if k % 2 == 0 else (True, False)
        pair = {}
        for trace in order:
            pair[trace] = in_process(wl, rundir, trace, f"{wl.name}-s{seed}-{k}")
            tally.add([(f"in-process: {name}", ok) for name, ok in run_checks(wl, pair[trace]["outputs"])])
        return pair[False], pair[True]

    samples = until(seconds, MIN_PAIRS, iteration)
    traced = [t for _, t in samples]
    for name in wl.expect_calls:
        tally.add([(f"traced: {name} records calls", all(t["layers"][name]["calls"] > 0 for t in traced))])
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = {
            "value": statistics.median(t["layers"][name]["calls"] for t in traced), "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(t["layers"][name]["self_s"] for t in traced), "unit": "s"}
    for name in COUNT_RESULTS:
        metrics[f"{name}.accepted"] = {
            "value": statistics.median(t["accepted"].get(name, 0) for t in traced), "unit": "count"}
    metrics["cli.output_bytes"] = {
        "value": statistics.median(sum(r["stdout_bytes"] for r in t["runs"]) for t in traced),
        "unit": "bytes"}
    plain = statistics.median(sum(r["wall_s"] for r in p["runs"]) for p, _ in samples)
    with_spans = statistics.median(sum(r["wall_s"] for r in t["runs"]) for t in traced)
    metrics["trace.overhead_frac"] = {"value": with_spans / plain - 1, "unit": "ratio"}
    return metrics, {name: len(samples) for name in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partial_actions" / "cli.py").is_file():
        print(f"no partial_actions package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running child and the probe are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(f"pinned to CPU {pin_to_one_cpu()}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tally = Tally()
    combined: dict = {}
    for name in names:
        rundir = WORK / f"{name}-s{args.seed}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        wl = WORKLOADS[name](args.seed, rundir)
        print(f"{name}: inputs {json.dumps(wl.properties)}")
        before = (tally.attempted, len(tally.failed))
        if args.trace:
            metrics, counts = trace_layers(wl, rundir, args.seconds, args.seed, tally)
        else:
            metrics, counts = measure(wl, rundir, args.seconds, tally)
        for metric, m in metrics.items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']} (median of {counts[metric]})")
        attempted, failed = tally.attempted - before[0], len(tally.failed) - before[1]
        print(f"{name}: failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")
        for check in sorted(set(tally.failed[before[1]:])):
            print(f"{name}: FAILED {check}")
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{metric}": m for metric, m in metrics.items()})
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
