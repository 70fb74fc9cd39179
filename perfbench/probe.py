"""Speed probe: how fast the CPU the benchmark runs on is right now.

Run as a script, it times a fixed pure-Python loop (dict and tuple work,
about 0.7 ms on the reference host) every ``PERIOD_S`` and appends one line
``<start, time.monotonic_ns()> <duration ns>`` per loop to standard output,
until it is terminated or its parent exits.

    python3 perfbench/probe.py > probe.txt

The harness pins itself, this probe and every CLI child to one CPU, so the
probe's loop and the child take turns on the same CPU and meet the same
host.  A shared host changes that CPU's speed by up to 2x within seconds;
dividing a child's time by the harmonic mean of the probe's durations
over the same interval removes that change (see ``run.py``).
"""

from __future__ import annotations

import os
import sys
import time

PERIOD_S = 0.02
LOOP_ITERATIONS = 1500


def loop() -> int:
    table: dict = {}
    for i in range(LOOP_ITERATIONS):
        k = (i * 7919) % 509
        key = (k % 13, k >> 2)
        table[key] = table.get(key, 0) + i
    return len(table)


def main() -> None:
    parent = os.getppid()
    out = sys.stdout
    while os.getppid() == parent:
        start = time.monotonic_ns()
        loop()
        took = time.monotonic_ns() - start
        out.write(f"{start} {took}\n")
        out.flush()
        time.sleep(max(0.0, PERIOD_S - took / 1e9))


if __name__ == "__main__":
    main()
