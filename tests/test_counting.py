"""Both enumerators against the closed-form counts of ``oracle_counting``."""

from collections import Counter

import pytest
from oracle_counting import count_partial_actions

from partial_actions.algebra_actions import enumerate_algebra_partial_actions
from partial_actions.block_algebras import Block
from partial_actions.groups import cyclic_group, make_group, symmetric_group
from partial_actions.set_actions import enumerate_partial_actions, globalize_set

GROUPS = {
    **{f"Z{k}": (lambda k=k: cyclic_group(k)) for k in range(1, 7)},
    "K4": lambda: make_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
    "S3": lambda: symmetric_group(3),
}


@pytest.mark.parametrize("name", GROUPS)
def test_counts_and_envelope_histograms(name):
    G = GROUPS[name]()
    for n in range(5):
        actions = enumerate_partial_actions(G, n)
        assert Counter(globalize_set(a).size for a in actions) == count_partial_actions(G, n)


@pytest.mark.parametrize("aut_order", [2, 3])
@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3"])
def test_twisted_counts(name, aut_order):
    G, aut = GROUPS[name](), cyclic_group(aut_order)
    for n in (1, 2, 3):
        actions = enumerate_algebra_partial_actions(G, n, Block("L", aut))
        assert len(actions) == sum(count_partial_actions(G, n, aut).values())
