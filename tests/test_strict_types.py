"""The library takes only exact ints as group sizes, table entries,
positions, numbers of copies and automorphism indices, only strings as
element names, and only hashable carrier points: a bool or a float that
equals an int, or a list point, is rejected with a ``PartialActionError``
subclass, never coerced or leaked as a bare Python exception."""

import pytest

from partial_actions.algebra_actions import extend_by_zero_algebra
from partial_actions.block_algebras import Block, block_power, k_line_block
from partial_actions.errors import MalformedInput, NotAGroup, NotAHomomorphism
from partial_actions.groups import cyclic_group, make_group, symmetric_group, whole_group
from partial_actions.set_actions import SetPartialAction, enumerate_partial_actions

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
    ("unhashable point", lambda: SetPartialAction(Z2, [[1], 2]), MalformedInput,
     "carrier contains an unhashable point"),
    ("unhashable enumerated point", lambda: enumerate_partial_actions(Z2, [[0], 1]),
     MalformedInput, "carrier contains an unhashable point"),
    ("bool copies", lambda: block_power(k_line_block(), True), MalformedInput,
     "number of copies True"),
    ("float copies", lambda: block_power(k_line_block(), 2.0), MalformedInput,
     "number of copies 2.0"),
    ("string copies", lambda: block_power(k_line_block(), "2"), MalformedInput,
     "number of copies '2'"),
    ("no copies", lambda: block_power(k_line_block(), None), MalformedInput,
     "number of copies None"),
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
    enumerate_partial_actions(G, 2.0) leaked TypeError, as did an
    unhashable carrier point and block_power(B, 2.0), block_power(B, True)
    built one block, make_group coerced
    entries with int() and names with str(), ideal({True}) was the ideal
    {1}, enumerate_partial_actions(G, True) ran on one point, and a True
    twist leaked IndexError or was stored as a twist."""
    with pytest.raises(error, match=message):
        build()
