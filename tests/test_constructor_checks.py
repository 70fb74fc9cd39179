"""The constructors of ``WreathMap`` and ``GlobalSetAction`` check whole maps
at once; on mutated inputs they must accept exactly what the entry-by-entry
checks in ``oracle_checks`` accept, and raise the same exception type with
the same message."""

import random
from collections import Counter, OrderedDict
from types import MappingProxyType

import pytest
from oracle_checks import global_set_action_checks, wreath_map_checks

from partial_actions.block_algebras import Block, BlockAlgebra, WreathMap, block_power
from partial_actions.errors import MalformedInput
from partial_actions.groups import (
    coset_factorize,
    cyclic_group,
    subgroup_closure,
    symmetric_group,
)
from partial_actions.set_actions import GlobalSetAction


def outcome(build, *args):
    """("ok", None) or (exception type, message) of build(*args)."""
    try:
        build(*args)
    except Exception as exc:  # the comparison covers every exception type
        return type(exc), str(exc)
    return "ok", None


def kind_of(result) -> str:
    """"ok", or the exception's type name and the first two words of its
    message."""
    kind, message = result
    return kind if kind == "ok" else f"{kind.__name__}: {' '.join(message.split()[:2])}"


Z1, Z2, Z3 = cyclic_group(1), cyclic_group(2), cyclic_group(3)
L3, L2, K, M3 = Block("L", Z3), Block("L", Z2), Block("K", Z1), Block("M", Z3)

ALGEBRAS = {
    "single class, Aut Z3": block_power(L3, 4),
    "equal copy of it": BlockAlgebra((Block("L", cyclic_group(3)),) * 4),
    "same label, Aut Z2": block_power(L2, 4),
    "scalar lines": block_power(K, 4),
    "mixed classes and orders": BlockAlgebra((L3, K, L3, M3)),
    "mixed classes, one order": BlockAlgebra((L3, M3, M3, L3)),
}

# twists of every kind: in range, -1, the group's order, booleans, a float
# and a string
TWIST_VALUES = (0, 1, 2, -1, 3, True, False, 1.5, "0")


def wreath_cases(rng: random.Random, count: int):
    """(source, target, position_map, twists) over every ordered pair of
    the algebras above, mostly well formed, with one mutation in most."""
    names = list(ALGEBRAS)
    for _ in range(count):
        a, b = ALGEBRAS[rng.choice(names)], ALGEBRAS[rng.choice(names)]
        size = rng.randint(0, 4)
        src = rng.sample(range(4), size)
        tgt = rng.sample(range(4), size)
        pm = dict(zip(src, tgt))
        order = a.blocks[0].aut_group.order
        tw = {p: rng.randrange(order) for p in pm}
        kind = rng.randrange(8)
        if kind == 0 and pm:  # one twist out of range or of another type
            tw[rng.choice(list(tw))] = rng.choice(TWIST_VALUES)
        elif kind == 1:  # every twist drawn from every kind
            tw = {p: rng.choice(TWIST_VALUES) for p in pm}
        elif kind == 2 and pm:  # twists keyed off the support
            tw.pop(rng.choice(list(tw)))
            tw[rng.choice([p for p in range(4) if p not in pm] or [0])] = 0
        elif kind == 3 and len(pm) > 1:  # two blocks onto one
            p, q = rng.sample(list(pm), 2)
            pm[p] = pm[q]
        elif kind == 4 and pm:  # a key off the support
            pm.pop(rng.choice(list(pm)))
        source = a.ideal(src if kind != 5 else src[:-1])
        yield source, b.ideal(tgt), pm, tw


class TestWreathMap:
    def test_mutated_maps_match_the_oracle(self):
        seen = Counter()
        for source, target, pm, tw in wreath_cases(random.Random(7), 6000):
            got = outcome(WreathMap, source, target, pm, tw)
            want = outcome(wreath_map_checks, source, target, pm, tw)
            assert got == want, (source, target, pm, tw)
            seen[kind_of(got)] += 1
            if got[0] == "ok":
                w = WreathMap(source, target, pm, tw)
                assert list(w.position_map) == sorted(pm) and w.position_map == pm
        # every check fails somewhere and the sample is not all rejections
        assert seen["ok"] > 500
        for kind in ("MalformedInput: position map", "ClassMismatch: position",
                     "ClassMismatch: blocks at", "MalformedInput: twists must",
                     "MalformedInput: twist at"):
            assert any(k.startswith(kind) for k in seen), kind
        # a string twist is no automorphism index, not a failed comparison
        assert not any(k.startswith("TypeError") for k in seen), seen

    @pytest.mark.parametrize(
        "source,target,pm,tw,expected",
        [
            # one label, two automorphism groups: only the full check sees it
            (block_power(L3, 2).ideal({0, 1}), block_power(L2, 2).ideal({0, 1}),
             {0: 1, 1: 0}, {0: 0, 1: 0}, "blocks at 0 and 1 share a label but not automorphisms"),
            (BlockAlgebra((L3, M3)).full_ideal(), BlockAlgebra((L3, M3)).full_ideal(),
             {0: 1, 1: 0}, {0: 0, 1: 0}, "position 0 (L) cannot map onto position 1 (M)"),
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {0: 0, 1: 1}, {0: 0, 1: -1}, "twist at 1 is not an automorphism index"),
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {0: 0, 1: 1}, {0: 3, 1: 0}, "twist at 0 is not an automorphism index"),
            (block_power(K, 2).full_ideal(), block_power(K, 2).full_ideal(),
             {0: 0, 1: 1}, {0: 0, 1: True}, "twist at 1 is not an automorphism index"),
            # True equals 1 and 1.0 equals 1, but neither is a position or a twist
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {0: 0, 1: 1}, {0: True, 1: 2}, "twist at 0 is not an automorphism index"),
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {0: 0, 1: 1}, {0: 0, 1: 1.0}, "twist at 1 is not an automorphism index"),
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {0: 0, 1: 1}, {0: "0", 1: 0}, "twist at 0 is not an automorphism index"),
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {True: 1, 0: 0}, {0: 0, 1: 0}, "position map keys must be exactly the source support"),
            (block_power(L3, 2).full_ideal(), block_power(L3, 2).full_ideal(),
             {0: 0, 1: 1.0}, {0: 0, 1: 0},
             "position map is not a bijection onto the target support"),
        ],
    )
    def test_named_cases(self, source, target, pm, tw, expected):
        want = outcome(wreath_map_checks, source, target, pm, tw)
        assert outcome(WreathMap, source, target, pm, tw) == want
        assert want[1] == expected


def global_actions():
    """(G, carrier, maps) of regular actions and of actions on cosets."""
    out = []
    for G in (cyclic_group(2), cyclic_group(4), cyclic_group(6), symmetric_group(3)):
        out.append((G, tuple(G.elements()), {
            g: {x: G.mul(g, x) for x in G.elements()} for g in G.elements()
        }))
    S3 = symmetric_group(3)
    cf = coset_factorize(S3, subgroup_closure(S3, ["(12)"]))
    names = {r: f"c{r}" for r in cf.reps}
    out.append((S3, tuple(names.values()), {
        g: {names[r]: names[cf.j(g, r)] for r in cf.reps}
        for g in S3.elements()
    }))
    return out


def set_mutants(rng: random.Random, G, carrier, maps):
    """Copies of a global action, each with one fault or none."""
    yield maps
    for _ in range(40):
        m = {g: dict(mg) for g, mg in maps.items()}
        g = rng.choice(list(G.elements()))
        x, y = (rng.sample(carrier, 2) if len(carrier) > 1 else (carrier[0], carrier[0]))
        kind = rng.randrange(9)
        if kind == 0:  # two images swapped: still a bijection
            m[g][x], m[g][y] = m[g][y], m[g][x]
        elif kind == 1:  # swapped in g and, inverted, in g^-1
            m[g][x], m[g][y] = m[g][y], m[g][x]
            m[G.inv(g)] = {v: k for k, v in m[g].items()}
        elif kind == 2:  # two points onto one
            m[g][x] = m[g][y]
        elif kind == 3:  # a point dropped
            m[g].pop(x)
        elif kind == 4:  # a foreign point
            m[g]["zz"] = m[g].pop(x)
        elif kind == 5:  # a foreign image
            m[g][x] = "zz"
        elif kind == 6:  # the identity map left out: it defaults to the identity
            m.pop(G.identity)
        elif kind == 7:  # an element the group does not have
            m[G.order] = dict(m[g])
        else:  # the identity moved by a permutation of the carrier
            m[G.identity] = dict(m[g])
        yield m


def law_failures(G, carrier, maps) -> set:
    """Every (g, t) with t a generator at which the action law fails."""
    return {
        (g, t) for g in G.elements() for t in G.generators for x in carrier
        if maps[g][maps[t][x]] != maps[G.mul(g, t)][x]
    }


def z3_maps(**changes):
    """Z3's regular action on (0, 1, 2), element g as the map x -> x + g,
    with the maps named g0, g1, g2 in ``changes`` replaced."""
    maps = {g: {x: (x + g) % 3 for x in range(3)} for g in range(3)}
    maps.update({int(k[1:]): m for k, m in changes.items()})
    return maps


# (id, carrier, maps): mutations of a valid Z3 action, each of which the
# constructor must decide as the per-entry oracle does
GLOBAL_SET_MUTANTS = [
    ("valid", (0, 1, 2), z3_maps()),
    ("keys out of carrier order", (0, 1, 2), z3_maps(g1={2: 0, 0: 1, 1: 2})),
    ("True key", (0, 1, 2), z3_maps(g1={0: 1, True: 2, 2: 0})),
    ("1.0 key", (0, 1, 2), z3_maps(g1={0: 1, 1.0: 2, 2: 0})),
    ("True image", (0, 1, 2), z3_maps(g2={0: 2, 1: 0, 2: True})),
    ("1.0 image", (0, 1, 2), z3_maps(g2={0: 2, 1: 0, 2: 1.0})),
    ("mixed-type carrier", (0, "a", 2), {
        g: {x: (0, "a", 2)[((0, "a", 2).index(x) + g) % 3] for x in (0, "a", 2)} for g in range(3)
    }),
    ("mixed-type carrier, True key", (0, "a", 2), {0: {0: 0, "a": "a", 2: 2}, True: {}}),
    ("Mapping maps", (0, 1, 2), MappingProxyType(z3_maps())),
    ("Mapping map", (0, 1, 2), z3_maps(g1=MappingProxyType({0: 1, 1: 2, 2: 0}))),
    ("dict subclass map", (0, 1, 2), z3_maps(g2=OrderedDict({0: 2, 1: 0, 2: 1}))),
    ("identity map missing", (0, 1, 2), {1: z3_maps()[1], 2: z3_maps()[2]}),
    ("element map missing", (0, 1, 2), {0: z3_maps()[0], 2: z3_maps()[2]}),
    ("extra element key", (0, 1, 2), {**z3_maps(), 3: {0: 0, 1: 1, 2: 2}}),
    ("True element key", (0, 1, 2), {0: z3_maps()[0], True: z3_maps()[1], 2: z3_maps()[2]}),
    ("map missing a point", (0, 1, 2), z3_maps(g1={0: 1, 1: 2})),
    ("collapsing map", (0, 1, 2), z3_maps(g1={0: 1, 1: 1, 2: 0})),
    ("foreign image", (0, 1, 2), z3_maps(g1={0: 1, 1: 2, 2: 5})),
    ("unhashable image", (0, 1, 2), z3_maps(g1={0: 1, 1: [2], 2: 0})),
    ("duplicate carrier point", (0, 1, 1), z3_maps()),
    ("moved identity", (0, 1, 2), z3_maps(g0={0: 1, 1: 2, 2: 0})),
    ("law failure", (0, 1, 2), z3_maps(g1={0: 1, 1: 0, 2: 2}, g2={0: 1, 1: 0, 2: 2})),
    ("law failure, one map", (0, 1, 2), z3_maps(g2={0: 1, 1: 0, 2: 2})),
]


class TestGlobalSetAction:
    @pytest.mark.parametrize("carrier,maps,expected", [
        ((0, 1), {1: {0: [1], 1: 0}}, "map of 1 leaves the carrier"),
        (([0], 1), {}, "carrier contains an unhashable point"),
    ])
    def test_unhashable_points_match_the_oracle(self, carrier, maps, expected):
        want = outcome(global_set_action_checks, Z2, carrier, maps)
        assert outcome(GlobalSetAction, Z2, carrier, maps) == want
        assert want == (MalformedInput, expected)

    @pytest.mark.parametrize("carrier,maps", [
        ((0, 1), {1: {0: True, 1: 0}}),
        ((0, 1), {1: {True: 0, 0: 1}}),
        ((0, 1.5), {1: {0: 1.5, 1.5: 0.0}}),
        ((0, 1), {1: {0: 1, 1: 0}, 0: {0: 0, 1: 1.0}}),
        ((0, 1), {1: {0: 1.0, 1: 0}, 0: {0: 0, 1: "zz"}}),
        ((0, 1), {1: 5}),
    ])
    def test_points_of_another_type_match_the_oracle(self, carrier, maps):
        want = outcome(global_set_action_checks, Z2, carrier, maps)
        assert outcome(GlobalSetAction, Z2, carrier, maps) == want
        assert want[0] is MalformedInput and want[1].endswith("leaves the carrier")

    def test_mutated_actions_match_the_oracle(self):
        rng = random.Random(11)
        seen = Counter()
        repeated_law_failure = 0
        for G, carrier, maps in global_actions():
            for m in set_mutants(rng, G, carrier, maps):
                got = outcome(GlobalSetAction, G, carrier, m)
                assert got == outcome(global_set_action_checks, G, carrier, m), m
                seen[kind_of(got)] += 1
                if got[1] and got[1].startswith("action law"):
                    repeated_law_failure += len(law_failures(G, carrier, m)) > 1
        assert seen["ok"] > 0
        for kind in ("MalformedInput: unknown group", "MalformedInput: map of",
                     "MalformedInput: identity element", "MalformedInput: action law"):
            assert any(k.startswith(kind) for k in seen), kind
        assert repeated_law_failure > 0

    def test_law_failure_at_several_pairs_names_the_first(self):
        # a swap in one map of S3's regular action breaks the law at several
        # (g, t); the first in g-then-t order, then carrier order, is named
        G, carrier, maps = global_actions()[3]
        maps = {g: dict(m) for g, m in maps.items()}
        g = G.element_by_name("(123)")
        maps[g][0], maps[g][1] = maps[g][1], maps[g][0]
        assert len(law_failures(G, carrier, maps)) > 1
        want = outcome(global_set_action_checks, G, carrier, maps)
        assert want[1].startswith("action law fails: ")
        assert outcome(GlobalSetAction, G, carrier, maps) == want

    @pytest.mark.parametrize("carrier,maps", [m[1:] for m in GLOBAL_SET_MUTANTS],
                             ids=[m[0] for m in GLOBAL_SET_MUTANTS])
    def test_one_pass_mutant_matches_the_oracle(self, carrier, maps):
        want = outcome(global_set_action_checks, Z3, carrier, maps)
        assert outcome(GlobalSetAction, Z3, carrier, maps) == want
        if want[0] == "ok":  # stored as the same data given as a Mapping is stored
            action = GlobalSetAction(Z3, carrier, maps)
            proxied = GlobalSetAction(Z3, carrier, MappingProxyType(dict(maps)))
            assert action == proxied and action.canonical_key() == proxied.canonical_key()
            assert all(list(action.maps[g]) == list(proxied.maps[g]) for g in Z3.elements())

    def test_named_outcomes(self):
        want = {name: outcome(global_set_action_checks, Z3, c, m) for name, c, m in GLOBAL_SET_MUTANTS}
        assert [name for name, got in want.items() if got[0] == "ok"] == [
            "valid", "keys out of carrier order", "mixed-type carrier", "Mapping maps",
            "Mapping map", "dict subclass map", "identity map missing",
        ]
        messages = {name: got[1] for name, got in want.items() if got[0] is MalformedInput}
        assert len(messages) == len(want) - 7
        assert messages["True key"] == messages["unhashable image"] == "map of 1 leaves the carrier"
        assert messages["1.0 image"] == "map of 2 leaves the carrier"
        assert messages["True element key"] == "unknown group element True"
        assert messages["duplicate carrier point"] == "carrier contains duplicate points"
        assert messages["collapsing map"] == "map of 1 is not a bijection of the carrier"
        assert messages["element map missing"] == "map of 1 is not a bijection of the carrier"
        assert messages["moved identity"] == "identity element does not act as the identity map"
        assert messages["law failure"] == "action law fails: 1*1 at 0"
        assert messages["law failure, one map"] == "action law fails: 1*1 at 0"
