"""The library takes only exact ints as group sizes, table entries,
positions, numbers of copies and automorphism indices, only strings as
element names and symbols, only hashable points of their carrier point's
type, and only containers where it reads one: a bool or a float that equals
an int, a list point, or a number given as a map or a support is rejected
with a ``PartialActionError`` subclass, never coerced or leaked as a bare
Python exception."""

import pytest
from conftest import whole_group

from partial_actions.algebra_actions import (
    AlgebraPartialAction,
    extend_by_zero_algebra,
    globalize_block_power,
    globalize_extension_by_zero,
    lift_set_action,
    product_partial_action,
    verify_algebra_partial_action,
    verify_enveloping,
)
from partial_actions.block_algebras import (
    Block,
    BlockAlgebra,
    block_power,
    k_line_block,
    wreath_apply,
    wreath_compose,
    wreath_identity,
)
from partial_actions.errors import MalformedInput, NotAGroup, NotAHomomorphism, NotASubgroup
from partial_actions.groups import (
    Subgroup,
    coset_factorize,
    cross_validate_table,
    cyclic_group,
    make_group,
    subgroup_closure,
    symmetric_group,
)
from partial_actions.set_actions import (
    GlobalSetAction,
    SetPartialAction,
    enumerate_partial_actions,
    restrict_global,
    verify_partial_action,
)

Z2 = cyclic_group(2)
SWAP = [[0, 1], [1, 0]]
Z2_SWAP = GlobalSetAction(Z2, [0, 1], {1: {0: 1, 1: 0}})
Q_Z2 = block_power(Block("Q", Z2), 1)
K2 = block_power(k_line_block(), 2)
S3 = symmetric_group(3)
CF_S3 = coset_factorize(S3, subgroup_closure(S3, ["(12)"]))
ID_Q = wreath_identity(Q_Z2.full_ideal())
SWAP_ENVELOPE = globalize_block_power(lift_set_action(Z2_SWAP))


WRONG_CLASS = [("string", "x"), ("int", 5), ("None", None), ("list", [0])]


def apply_identity(payload):
    """wreath_apply of the identity on one Z2-twisted block to payload."""
    return wreath_apply(wreath_identity(Q_Z2.full_ideal()), {0: payload})


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
    *[
        (f"{label} enumerated", lambda value=value: enumerate_partial_actions(value, 2),
         MalformedInput, "enumeration takes a FiniteGroup")
        for label, value in [("string group", "x"), ("int group", 5), ("no group", None),
                             ("list group", [1])]
    ],
    ("unhashable domain point", lambda: SetPartialAction(Z2, [1, 2], {1: [[1]]}),
     MalformedInput, "domain of 1 leaves the carrier"),
    ("unhashable map image",
     lambda: SetPartialAction(Z2, [1, 2], {1: [1, 2]}, {1: {1: [2], 2: 1}}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("bool domain point", lambda: SetPartialAction(Z2, [1, 2], {1: [True, 2]}),
     MalformedInput, "domain of 1 leaves the carrier"),
    ("float domain point", lambda: SetPartialAction(Z2, [1, 2], {1: [1.0]}),
     MalformedInput, "domain of 1 leaves the carrier"),
    ("bool domain point after its equal", lambda: SetPartialAction(Z2, [0, 1], {1: [0, 1, True]}),
     MalformedInput, "domain of 1 leaves the carrier"),
    ("float domain point after its equal", lambda: SetPartialAction(Z2, [1, 2], {1: [1, 1.0]}),
     MalformedInput, "domain of 1 leaves the carrier"),
    ("bool map key", lambda: SetPartialAction(Z2, [1, 2], {1: [1, 2]}, {1: {True: 2, 2: 1}}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("float map image", lambda: SetPartialAction(Z2, [1, 2], {1: [1, 2]}, {1: {1: 2.0, 2: 1}}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("float point, mixed carrier", lambda: SetPartialAction(Z2, [1, 1.5], {1: [1.0]}),
     MalformedInput, "domain of 1 leaves the carrier"),
    ("bool global image", lambda: GlobalSetAction(Z2, [0, 1], {1: {0: True, 1: 0}}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("int map", lambda: SetPartialAction(Z2, [1, 2], {1: [1, 2]}, {1: 5}), MalformedInput,
     "map of 1 leaves the carrier"),
    ("string map", lambda: SetPartialAction(Z2, [1, 2], {1: [1, 2]}, {1: "ab"}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("triple map", lambda: SetPartialAction(Z2, [1, 2], {1: [1, 2]}, {1: [[1, 2, 3]]}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("algebra map that is no wreath map",
     lambda: AlgebraPartialAction(Z2, K2, {1: [0]}, {1: {0: 0}}), MalformedInput,
     "map of 1 is not a wreath map"),
    ("int support", lambda: AlgebraPartialAction(Z2, K2, {1: 5}), MalformedInput,
     "position 5 outside the algebra"),
    ("int carrier", lambda: SetPartialAction(Z2, 5), MalformedInput,
     "carrier is not a sequence of points"),
    ("int domains", lambda: SetPartialAction(Z2, [1, 2], 5), MalformedInput,
     "domains is not a mapping"),
    ("string domains", lambda: SetPartialAction(Z2, [1, 2], "ab"), MalformedInput,
     "domains is not a mapping"),
    ("int maps", lambda: SetPartialAction(Z2, [1, 2], None, 5), MalformedInput,
     "maps is not a mapping"),
    ("string maps", lambda: SetPartialAction(Z2, [1, 2], None, "ab"), MalformedInput,
     "maps is not a mapping"),
    ("int global maps", lambda: GlobalSetAction(Z2, [1, 2], 5), MalformedInput,
     "maps is not a mapping"),
    ("string global maps", lambda: GlobalSetAction(Z2, [1, 2], "ab"), MalformedInput,
     "maps is not a mapping"),
    ("int algebra domains", lambda: AlgebraPartialAction(Z2, K2, 5), MalformedInput,
     "domains is not a mapping"),
    ("string algebra domains", lambda: AlgebraPartialAction(Z2, K2, "ab"), MalformedInput,
     "domains is not a mapping"),
    ("int algebra maps", lambda: AlgebraPartialAction(Z2, K2, None, 5), MalformedInput,
     "maps is not a mapping"),
    ("string algebra maps", lambda: AlgebraPartialAction(Z2, K2, None, "ab"), MalformedInput,
     "maps is not a mapping"),
    ("unhashable global image", lambda: GlobalSetAction(Z2, [1, 2], {1: {1: [2], 2: 1}}),
     MalformedInput, "map of 1 leaves the carrier"),
    ("unhashable global carrier point", lambda: GlobalSetAction(Z2, [[1], 2], {}),
     MalformedInput, "carrier contains an unhashable point"),
    ("unhashable subset point", lambda: restrict_global(Z2_SWAP, [[0]]), MalformedInput,
     "subset leaves the carrier"),
    ("unhashable position", lambda: block_power(k_line_block(), 2).ideal([[0]]),
     MalformedInput, r"position \[0\] outside the algebra"),
    ("twist out of range", lambda: apply_identity((5, "x")), MalformedInput, r"payload \(5, 'x'\)"),
    ("float twist", lambda: apply_identity((1.5, "x")), MalformedInput, r"payload \(1.5, 'x'\)"),
    ("string twist", lambda: apply_identity(("1", "x")), MalformedInput, r"payload \('1', 'x'\)"),
    ("bool twist", lambda: apply_identity((True, "x")), MalformedInput, r"payload \(True, 'x'\)"),
    ("int symbol", lambda: apply_identity((1, 7)), MalformedInput, r"payload \(1, 7\)"),
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
    ("bool members", lambda: Subgroup(Z2, True), NotASubgroup,
     "members are not a collection of element indices"),
    ("float generators", lambda: subgroup_closure(Z2, 1.5), MalformedInput,
     "generators are not a collection of elements"),
    ("bool table", lambda: make_group(True), NotAGroup, "table is not a sequence of rows"),
    ("int row", lambda: make_group([1]), NotAGroup, "table is not a sequence of rows"),
    ("int names", lambda: make_group(SWAP, 5), NotAGroup, "names are not a sequence of strings"),
    ("string hom", lambda: extend_by_zero_algebra(Block("Q", Z2), whole_group(Z2), "x"),
     NotAHomomorphism, "hom is not a mapping"),
    ("list hom", lambda: globalize_extension_by_zero(Block("Q", Z2), whole_group(Z2), [1]),
     NotAHomomorphism, "hom is not a mapping"),
    ("int blocks", lambda: BlockAlgebra(5), MalformedInput, "blocks are not a sequence of blocks"),
    ("bool blocks", lambda: BlockAlgebra(True), MalformedInput,
     "blocks are not a sequence of blocks"),
    ("int claimed rows", lambda: cross_validate_table(CF_S3, 5), MalformedInput,
     r"claimed rows are not \(\(g, g_i\), j, h\) triples"),
    ("string claimed rows", lambda: cross_validate_table(CF_S3, "x"), MalformedInput,
     r"claimed rows are not \(\(g, g_i\), j, h\) triples"),
    ("int claimed row", lambda: cross_validate_table(CF_S3, [5]), MalformedInput,
     r"claimed rows are not \(\(g, g_i\), j, h\) triples"),
    ("int components", lambda: product_partial_action(5), MalformedInput,
     "components are not a sequence of actions"),
    ("string block", lambda: BlockAlgebra(["x"]), MalformedInput, "block 0 is not a block"),
    ("int block", lambda: BlockAlgebra([k_line_block(), 5]), MalformedInput,
     "block 1 is not a block"),
    ("int block power", lambda: block_power(5, 2), MalformedInput, "block 0 is not a block"),
    ("int automorphism group", lambda: Block("Q", 5), MalformedInput,
     "automorphism group must be a FiniteGroup"),
    ("string automorphism group", lambda: Block("Q", "x"), MalformedInput,
     "automorphism group must be a FiniteGroup"),
    ("int block class", lambda: Block(5, Z2), MalformedInput, "block class 5 is not a string"),
    ("no block class", lambda: Block(None, Z2), MalformedInput,
     "block class None is not a string"),
    ("string lifted action", lambda: lift_set_action("x"), MalformedInput,
     "the lift takes a set partial action"),
    ("int lifted action", lambda: lift_set_action(5), MalformedInput,
     "the lift takes a set partial action"),
    ("algebra extended by zero", lambda: extend_by_zero_algebra(Q_Z2, whole_group(Z2), {0: 0}),
     MalformedInput, "extension by zero takes a single Block"),
    ("int subgroup", lambda: extend_by_zero_algebra(Block("Q", Z2), 5, {}), MalformedInput,
     "extension by zero takes a Subgroup"),
    ("int component", lambda: product_partial_action([5]), MalformedInput,
     "component 0 is not an algebra partial action"),
    ("set action component", lambda: product_partial_action([lift_set_action(Z2_SWAP), Z2_SWAP]),
     MalformedInput, "component 1 is not an algebra partial action"),
    *[
        (f"{label} verified as a set action", lambda value=value: verify_partial_action(value),
         MalformedInput, "verify_partial_action takes a set partial action")
        for label, value in WRONG_CLASS + [("algebra action", lift_set_action(Z2_SWAP))]
    ],
    *[
        (f"{label} verified as an algebra action",
         lambda value=value: verify_algebra_partial_action(value), MalformedInput,
         "verify_algebra_partial_action takes an algebra partial action")
        for label, value in WRONG_CLASS + [("set action", Z2_SWAP)]
    ],
    *[
        (f"wreath map composed with {label}", lambda value=value: wreath_compose(ID_Q, value),
         MalformedInput, "wreath_compose takes two wreath maps")
        for label, value in WRONG_CLASS
    ],
    *[
        (f"{label} composed with a wreath map", lambda value=value: wreath_compose(value, ID_Q),
         MalformedInput, "wreath_compose takes two wreath maps")
        for label, value in WRONG_CLASS
    ],
    *[
        (f"{label} enveloped", lambda value=value: verify_enveloping(value, SWAP_ENVELOPE),
         MalformedInput, "verify_enveloping takes an algebra partial action")
        for label, value in WRONG_CLASS + [("set action", Z2_SWAP)]
    ],
    *[
        (f"{label} globalized as a block power", lambda value=value: globalize_block_power(value),
         MalformedInput, "globalize_block_power takes an algebra partial action")
        for label, value in WRONG_CLASS + [("set action", Z2_SWAP)]
    ],
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
    twist leaked IndexError or was stored as a twist.  An unhashable point
    in a domain, a map, a subset or a support leaked TypeError, and
    wreath_apply leaked IndexError on twist 5 and read 1.5, "1" and True
    as twist 1 and the symbol 7 as "7".  A bool or a float point equal to
    an int carrier point was kept as given, so the written document could
    not be read back; a map that is no mapping, or a support that is no
    iterable, leaked TypeError or ValueError, as did a number or a string
    given as the carrier, the domains or the maps, and an algebra map that
    is no wreath map built and failed later in the verifier.  A bool given
    as subgroup members, a float as generators, a bool or a list of ints as
    a table, an int as names, and a string or a list as a hom leaked
    TypeError or ValueError, as did a number as blocks or as components,
    and a number, a string or a list of numbers as claimed rows.  A block
    that is no Block, in an algebra or a block power, a lift of no set
    action, an int subgroup extended by zero, and a component that is no
    algebra action leaked AttributeError.  A Block of an int or a string
    automorphism group built, and its algebra leaked AttributeError; one of
    an int or a None class built an algebra whose class label is no
    string.  enumerate_partial_actions of a string, an int, None or a list
    in place of a group leaked AttributeError, as did wreath_compose with
    either side no wreath map, and verify_enveloping and
    globalize_block_power of no algebra action, a set action included."""
    with pytest.raises(error, match=message):
        build()
