"""The library takes only exact ints as group sizes, table entries,
positions and automorphism indices, and only strings as element names: a
bool or a float that equals an int is rejected with a
``PartialActionError`` subclass, never coerced or leaked as a bare Python
exception."""

import pytest

from partial_actions.algebra_actions import extend_by_zero_algebra
from partial_actions.block_algebras import Block, block_power, k_line_block
from partial_actions.errors import MalformedInput, NotAGroup, NotAHomomorphism
from partial_actions.groups import cyclic_group, make_group, symmetric_group, whole_group
from partial_actions.set_actions import enumerate_partial_actions

Z2 = cyclic_group(2)
SWAP = [[0, 1], [1, 0]]

CASES = [
    ("cyclic_group(True)", lambda: cyclic_group(True), NotAGroup, "group size True"),
    ("cyclic_group(2.0)", lambda: cyclic_group(2.0), NotAGroup, "group size 2.0"),
    ("symmetric_group(2.0)", lambda: symmetric_group(2.0), NotAGroup, "group size 2.0"),
    ("symmetric_group(True)", lambda: symmetric_group(True), NotAGroup, "group size True"),
    ("float entry", lambda: make_group([[0.0, 1], [1, 0]]), NotAGroup, "table entry 0.0"),
    ("bool entry", lambda: make_group([[0, True], [True, 0]]), NotAGroup, "table entry True"),
    ("string entry", lambda: make_group([[0, "1"], [1, 0]]), NotAGroup, "table entry '1'"),
    ("bool names", lambda: make_group(SWAP, [True, None]), NotAGroup, "element name True"),
    ("int name", lambda: make_group(SWAP, [1, "1"]), NotAGroup, "element name 1 "),
    ("cyclic int names", lambda: cyclic_group(2, [0, 1]), NotAGroup, "element name 0 "),
    ("bool position", lambda: block_power(k_line_block(), 2).ideal({True}), MalformedInput,
     "position True"),
    ("float position", lambda: block_power(k_line_block(), 2).ideal({0, 1.0}), MalformedInput,
     "position 1.0"),
    ("bool carrier", lambda: enumerate_partial_actions(Z2, True), MalformedInput, "carrier True"),
    ("float carrier", lambda: enumerate_partial_actions(Z2, 2.0), MalformedInput, "carrier 2.0"),
    ("bool twist on a scalar line",
     lambda: extend_by_zero_algebra(k_line_block(), whole_group(Z2), {0: 0, 1: True}),
     NotAHomomorphism, "True is not an automorphism index"),
    ("bool twist on Z2",
     lambda: extend_by_zero_algebra(Block("Q", Z2), whole_group(Z2), {0: 0, 1: True}),
     NotAHomomorphism, "True is not an automorphism index"),
    ("float twist on Z2",
     lambda: extend_by_zero_algebra(Block("Q", Z2), whole_group(Z2), {0: 0, 1: 1.0}),
     NotAHomomorphism, "1.0 is not an automorphism index"),
]


@pytest.mark.parametrize("build,error,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_non_int_values_are_rejected(build, error, message):
    """Before: cyclic_group(True) built a group whose document
    ``parse_group`` rejects, symmetric_group(2.0) and
    enumerate_partial_actions(G, 2.0) leaked TypeError, make_group coerced
    entries with int() and names with str(), ideal({True}) was the ideal
    {1}, enumerate_partial_actions(G, True) ran on one point, and a True
    twist leaked IndexError or was stored as a twist."""
    with pytest.raises(error, match=message):
        build()
