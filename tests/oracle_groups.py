"""Group constructions kept as test oracles, in the form the package replaced.

``symmetric_table`` builds the Cayley table of S_n one product at a time,
each a ∘ b composed as a tuple of a[b[x]] and looked up in the index of
permutations.  The package builds each row with one ``itemgetter`` per
element instead; the two tables must be equal.
"""

from __future__ import annotations

import itertools

from partial_actions.groups import _cycle_notation


def symmetric_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The table of ``symmetric_group(n)``: elements ordered by number of
    moved points, then by cycle-notation label; (a*b)(x) = a(b(x))."""
    perms = list(itertools.permutations(range(n)))
    labeled = [(sum(1 for i, p in enumerate(perm) if p != i), _cycle_notation(perm), perm) for perm in perms]
    labeled.sort(key=lambda t: (t[0], t[1]))
    ordered = [t[2] for t in labeled]
    index = {perm: i for i, perm in enumerate(ordered)}
    return tuple(
        tuple(index[tuple(map(a.__getitem__, b))] for b in ordered)  # a∘b: x -> a[b[x]]
        for a in ordered
    )
