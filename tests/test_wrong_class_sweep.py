"""Every public callable refuses a value of the wrong class with a
``PartialActionError`` subclass, never with a bare Python exception.

``VALID`` holds one valid call per public callable of
``tests/test_public_api.py``; the exception classes are left out, as they
take any message.  The sweep replaces each argument of that call in turn by
each value of ``WRONG``, the other arguments staying valid.  Each such call
must raise a ``PartialActionError`` subclass, or return a value of the class
that the valid call returns: a carrier, a mapping or a name may rightly be
given a string, a list or None.  A public callable without an entry in
``VALID`` fails the sweep, so a new name cannot skip it."""

import pytest
from test_public_api import PUBLIC_NAMES

import partial_actions
from partial_actions import (
    Block,
    GlobalSetAction,
    MalformedInput,
    PartialActionError,
    SetPartialAction,
    Subgroup,
    block_power,
    coset_factorize,
    cyclic_group,
    extend_by_zero_algebra,
    globalize_block_power,
    globalize_set,
    k_line_block,
    lift_set_action,
)

Z2 = cyclic_group(2)
SWAP = GlobalSetAction(Z2, (0, 1), {1: {0: 1, 1: 0}})
PARTIAL = SetPartialAction(Z2, (0, 1), {1: (0,)}, {1: {0: 0}})
K2 = block_power(k_line_block(), 2)
FULL = K2.full_ideal()
SWAP_MAP = partial_actions.WreathMap(FULL, FULL, {0: 1, 1: 0}, {0: 0, 1: 0})
LIFT = lift_set_action(SWAP)
WHOLE, TRIVIAL = Subgroup(Z2, (0, 1)), Subgroup(Z2, (0,))
FACTORS = coset_factorize(Z2, TRIVIAL)
Q = Block("Q", Z2)
HOM = {0: 0, 1: 1}
ENVELOPE = globalize_block_power(LIFT)
SET_ENVELOPE = globalize_set(SWAP)

VALID = {
    # block algebras
    "Block": ("Q", Z2),
    "BlockAlgebra": ((k_line_block(),),),
    "BlockIdeal": (K2, frozenset({0})),
    "WreathMap": (FULL, FULL, {0: 1, 1: 0}, {0: 0, 1: 0}),
    "block_power": (k_line_block(), 2),
    "decompose_isotypic": (K2,),
    "k_line_block": (),
    "symbolic_basis": (FULL,),
    "trivial_group": (),
    "wreath_apply": (SWAP_MAP, {0: "x"}),
    "wreath_compose": (SWAP_MAP, SWAP_MAP),
    "wreath_identity": (FULL,),
    # algebra actions
    "AlgebraPartialAction": (Z2, K2, {1: [0, 1]}, {1: SWAP_MAP}),
    "GlobalizationResult": (ENVELOPE.source, ENVELOPE.envelope, ENVELOPE.provenance,
                            ENVELOPE.action, ENVELOPE.embedding, ENVELOPE.checks),
    "classify_indecomposable": (extend_by_zero_algebra(Q, WHOLE, HOM),),
    "enumerate_algebra_partial_actions": (Z2, 1, k_line_block()),
    "extend_by_zero_algebra": (Q, WHOLE, HOM),
    "globalizations_equivalent": (ENVELOPE, ENVELOPE),
    "globalize_block_power": (LIFT,),
    "globalize_extension_by_zero": (Q, WHOLE, HOM),
    "lift_set_action": (SWAP,),
    "product_partial_action": ([LIFT],),
    "restrict_to_idempotents": (LIFT,),
    "split_partial_action": (LIFT,),
    "verify_algebra_partial_action": (LIFT,),
    "verify_enveloping": (LIFT, ENVELOPE),
    # groups
    "CosetFactorization": (TRIVIAL, FACTORS.reps, FACTORS.j_table, FACTORS.h_table),
    "DiscrepancyReport": (FACTORS, [], []),
    "FiniteGroup": (Z2.table, Z2.identity, Z2.names),
    "Subgroup": (Z2, (0, 1)),
    "all_subgroups": (Z2,),
    "coset_factorize": (Z2, TRIVIAL),
    "cross_validate_table": (FACTORS, [((0, 0), 0, 0)]),
    "cyclic_group": (2,),
    "make_group": ([[0, 1], [1, 0]],),
    "subgroup_closure": (Z2, [1]),
    "symmetric_group": (3,),
    # set actions
    "GlobalSetAction": (Z2, (0, 1), {1: {0: 1, 1: 0}}),
    "SetGlobalization": (SET_ENVELOPE.source, SET_ENVELOPE.envelope, SET_ENVELOPE.embedding,
                         SET_ENVELOPE.orbit_witness),
    "SetPartialAction": (Z2, (0, 1), {1: (0, 1)}, {1: {0: 1, 1: 0}}),
    "enumerate_partial_actions": (Z2, 2),
    "envelopes_equivalent": (SET_ENVELOPE, SET_ENVELOPE),
    "extend_by_zero": (SetPartialAction(TRIVIAL.as_group(), (0,)), TRIVIAL),
    "global_part": (SWAP,),
    "globalize_set": (SWAP,),
    "restrict_global": (SWAP, [0]),
    "verify_partial_action": (PARTIAL,),
    "verify_set_globalization": (SWAP, SET_ENVELOPE),
}

WRONG = [
    ("a str", "x"), ("an int", 5), ("None", None), ("a list", [0]), ("a bool", True),
    ("a float", 1.5), ("a dict", {0: 0}), ("a set action", PARTIAL), ("an algebra action", LIFT),
]

CALLABLES = sorted(
    name for name in PUBLIC_NAMES
    if not (isinstance(getattr(partial_actions, name), type)
            and issubclass(getattr(partial_actions, name), BaseException))
)


def test_every_public_callable_has_a_valid_call():
    assert set(VALID) == set(CALLABLES)


@pytest.mark.parametrize("name", CALLABLES)
def test_a_wrong_class_raises_a_package_error(name):
    func = getattr(partial_actions, name)
    args = VALID[name]
    expected = type(func(*args))
    leaks = []
    for i in range(len(args)):
        for label, value in WRONG:
            try:
                result = func(*args[:i], value, *args[i + 1:])
            except PartialActionError:
                continue
            except Exception as exc:  # the bare exceptions this sweep exists to find
                leaks.append(f"argument {i} as {label}: {type(exc).__name__}: {exc}")
                continue
            if type(result) is not expected:
                leaks.append(f"argument {i} as {label} returned a {type(result).__name__}")
    assert leaks == []


NEW_GUARDS = [
    ("wreath_identity", (5,), "wreath_identity takes a BlockIdeal"),
    ("symbolic_basis", (5,), "symbolic_basis takes a BlockIdeal"),
    ("WreathMap", (5, FULL, {}, {}), "WreathMap takes a source BlockIdeal"),
    ("WreathMap", (FULL, 5, {}, {}), "WreathMap takes a target BlockIdeal"),
    ("WreathMap", (FULL, FULL, 5, {}), "position map is not a mapping"),
    ("WreathMap", (FULL, FULL, {0: 1, 1: 0}, "x"), "twists is not a mapping"),
    ("wreath_apply", (5, {}), "wreath_apply takes a WreathMap"),
    ("wreath_apply", (SWAP_MAP, [0]), "element is not a mapping"),
    ("decompose_isotypic", (5,), "decompose_isotypic takes a BlockAlgebra"),
    ("AlgebraPartialAction", (5, K2), "AlgebraPartialAction takes a FiniteGroup"),
    ("AlgebraPartialAction", (Z2, 5), "AlgebraPartialAction takes a BlockAlgebra"),
    ("classify_indecomposable", (5,), "classify_indecomposable takes an algebra partial action"),
    ("restrict_to_idempotents", (5,), "restrict_to_idempotents takes an algebra partial action"),
    ("split_partial_action", (5,), "split_partial_action takes an algebra partial action"),
    ("all_subgroups", (5,), "all_subgroups takes a FiniteGroup"),
    ("subgroup_closure", (5, []), "subgroup_closure takes a FiniteGroup"),
    ("cross_validate_table", (5, []), "cross_validate_table takes a CosetFactorization"),
    ("verify_set_globalization", (5, SET_ENVELOPE),
     "verify_set_globalization takes a set partial action"),
    ("FiniteGroup", (5, 0, ("0",)), "FiniteGroup takes a tuple of rows and an identity index"),
    ("FiniteGroup", (Z2.table, 5, Z2.names),
     "FiniteGroup takes a tuple of rows and an identity index"),
    ("FiniteGroup", (Z2.table, 0, 5), "FiniteGroup takes a tuple of names"),
]


@pytest.mark.parametrize("name,args,message", NEW_GUARDS,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(NEW_GUARDS)])
def test_a_wrong_class_is_named(name, args, message):
    """Before: each of these leaked AttributeError, TypeError or ValueError."""
    with pytest.raises(MalformedInput) as info:
        getattr(partial_actions, name)(*args)
    assert str(info.value) == message
