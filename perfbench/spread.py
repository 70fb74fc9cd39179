#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (Q3 - Q1 over the median).

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]
                                [--out FILE] [--against FILE]

Reads the command, ``run_seconds`` and bounds from ``BENCHMARK.json``.  A
spread below a third of the metric's bound is marked steady.  ``--out``
writes every value with the machine, Python version and commit, plus the
per-layer figures of one traced run per workload at the first seed, so the
file can serve as a baseline; ``--against`` compares medians with such a file
and marks a metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    previous = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None

    record = {
        "machine": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }

    def run(name: str, seed: int, trace: int) -> dict:
        cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took.append(time.monotonic() - start)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        if not result.get("correct"):
            sys.exit(f"{name} seed {seed}: run failed or incorrect\n{proc.stdout}{proc.stderr}")
        return result["metrics"]

    worst = 0
    took: list[float] = []  # seconds per run, set-up included
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in seeds:
            metrics = run(name, seed, 0)
            for metric in bounds:
                values[metric].append(metrics[metric]["value"])
        record["workloads"][name] = {}
        for metric, spec in bounds.items():
            s = summarize(values[metric])
            record["workloads"][name][metric] = s
            note = "steady" if s["spread"] < spec["bound"] / 3 else (
                "within bound" if s["spread"] <= spec["bound"] else "TOO WIDE")
            if metric == "setup_s":
                note += " (spread not bounded)"
            line = (f"{name:15} {metric:12} median {s['median']:.5g} {spec['unit']:4} "
                    f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f} "
                    f"bound {spec['bound']} {note}")
            if previous:
                old = previous["workloads"][name][metric]["median"]
                change = (s["median"] - old) / old
                worse = change if spec["better"] == "lower" else -change
                line += f" | vs {old:.5g}: {change:+.4f}{' WORSE THAN BOUND' if worse > spec['bound'] else ''}"
                if worse > spec["bound"]:
                    worst = 1
            print(line, flush=True)
        print(f"{name:15} runs took {min(took):.1f}-{max(took):.1f} s each", flush=True)
        took.clear()
    if args.out:
        record["per_layer"] = {name: run(name, seeds[0], 1) for name in names}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return worst


if __name__ == "__main__":
    sys.exit(main())
