#!/usr/bin/env python3
"""Survey envelope sizes over every enumerable partial action at desk scale.

Covers every group of order at most 6 (Z2, Z3, Z4, the Klein group, Z5, S3
and Z6) on carriers of 1 to ``--max-size`` points.  Prints, per (group,
carrier size), the action count and a histogram of envelope sizes, and
confirms the n*|G| bound along the way.  The default of 4 points is the
enumeration cap and runs in a few seconds.

Usage: python scripts/survey_envelopes.py [--max-size 4]
"""

import argparse
from collections import Counter

from partial_actions import (
    cyclic_group,
    enumerate_partial_actions,
    globalize_set,
    make_group,
    symmetric_group,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=4)
    args = parser.parse_args()

    klein = make_group(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        names=["e", "a", "b", "ab"],
    )
    groups = [
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("K4", klein),
        ("Z5", cyclic_group(5)),
        ("S3", symmetric_group(3)),
        ("Z6", cyclic_group(6)),
    ]
    for name, G in groups:
        for n in range(1, args.max_size + 1):
            actions = enumerate_partial_actions(G, n)
            sizes = Counter()
            for spa in actions:
                size = globalize_set(spa).size
                assert size <= n * G.order
                sizes[size] += 1
            histogram = ", ".join(f"{s}:{c}" for s, c in sorted(sizes.items()))
            print(f"{name} on {n} point(s): {len(actions):5d} actions; envelope sizes {{{histogram}}}")


if __name__ == "__main__":
    main()
