#!/usr/bin/env python3
"""Recompute the pinned enumerate-z6x4 expectation through the library API.

Enumerates the partial actions of Z6 on 4 points with
``enumerate_partial_actions``, globalizes each with ``globalize_set``, and
compares the count and envelope-size histogram with ``enumerate_z6x4.json``.
It also repeats the count on the seed-1 and seed-2 shuffled tables that
the benchmark feeds the CLI.  Takes about half a minute; not part of the
timed runs.

    python3 perfbench/pin_enumerate.py
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from partial_actions import cyclic_group, enumerate_partial_actions, globalize_set  # noqa: E402
from partial_actions.documents import parse_group  # noqa: E402
from workloads import PINNED_ENUMERATE, build_enumerate  # noqa: E402


def figures(G) -> dict:
    actions = enumerate_partial_actions(G, 4)
    histogram = Counter(globalize_set(a).size for a in actions)
    return {
        "count": len(actions),
        "envelope_size_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }


def main() -> int:
    pinned = json.loads(PINNED_ENUMERATE.read_text(encoding="utf-8"))
    results = {"Z6": figures(cyclic_group(6))}
    workdir = HERE.parent / ".bench_build" / "perfbench" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for seed in (1, 2):
        wl = build_enumerate(seed, workdir)
        with open(wl.setup[1], encoding="utf-8") as fh:
            results[f"seed {seed}"] = figures(parse_group(json.load(fh)))
    ok = True
    for label, got in results.items():
        same = got == pinned
        ok = ok and same
        print(f"{label}: {json.dumps(got)} {'matches' if same else 'DIFFERS FROM'} the pinned copy")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
