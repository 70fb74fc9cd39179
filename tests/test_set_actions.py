import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import oracle_checks
import oracle_globalization
import pytest
from conftest import check_item, whole_group
from hypothesis import given, settings, strategies as st
from oracle_enumeration import brute_force_partial_actions, relabelled

from partial_actions import set_actions
from partial_actions.algebra_actions import (
    enumerate_algebra_partial_actions,
    lift_set_action,
    verify_algebra_partial_action,
)
from partial_actions.block_algebras import Block
from partial_actions.documents import load_workbench, parse_group, set_action_to_doc
from partial_actions.errors import (
    GroupMismatch,
    MalformedInput,
    NotASubgroup,
    SizeLimit,
)
from partial_actions.groups import (
    coset_factorize,
    cyclic_group,
    make_group,
    subgroup_closure,
    symmetric_group,
)
from partial_actions.set_actions import (
    GlobalSetAction,
    SetGlobalization,
    SetPartialAction,
    enumerate_partial_actions,
    envelopes_equivalent,
    extend_by_zero,
    global_part,
    globalize_set,
    restrict_global,
    verify_partial_action,
    verify_set_globalization,
)

PINNED_Z6X4 = Path(__file__).parent.parent / "perfbench" / "enumerate_z6x4.json"
DATA = Path(__file__).parent / "data"

ENUM_GROUPS = {
    **{f"Z{k}": (lambda k=k: cyclic_group(k)) for k in range(1, 7)},
    "K4": lambda: make_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
    "S3": lambda: symmetric_group(3),
    "S3-relabelled": lambda: relabelled(symmetric_group(3)),
}


def perfbench_workloads():
    """perfbench's workload builders, which are not installed with the package."""
    sys.path.insert(0, str(Path(__file__).parent.parent))
    from perfbench import workloads

    return workloads


def left_translation(G):
    """G acting on itself: beta_g(x) = g*x."""
    maps = {g: {x: G.mul(g, x) for x in G.elements()} for g in G.elements()}
    return GlobalSetAction(G, tuple(G.elements()), maps)


def equivalent(a, b):
    """envelopes_equivalent, checked against the oracle's verdict."""
    found = envelopes_equivalent(a, b)
    assert (found is None) == (oracle_checks.envelopes_equivalent(a, b) is None)
    return found


POINTS = tuple(f"p{i}" for i in range(8))
CYCLE = {x: POINTS[(i + 1) % 8] for i, x in enumerate(POINTS)}


class TestVerify:
    def test_global_action_passes(self, z4):
        report = verify_partial_action(left_translation(z4))
        assert report.ok

    def test_identity_domain_failure(self, z2):
        spa = SetPartialAction(z2, ("a", "b"), domains={0: ["a"]}, maps={0: {"a": "a"}})
        report = verify_partial_action(spa)
        assert not report.ok
        item = report.items[0]
        assert "(i)" in item.name and not item.passed and item.witness

    def test_domain_compatibility_failure(self, z4):
        # full domains at e, r, r^3 but not r^2 cannot satisfy the axioms
        X = ("a", "b")
        swap = {"a": "b", "b": "a"}
        spa = SetPartialAction(
            z4,
            X,
            domains={1: X, 3: X},
            maps={1: dict(swap), 3: dict(swap)},
        )
        report = verify_partial_action(spa)
        assert not report.ok
        failed = {item.name for item in report.failures()}
        assert any("(ii)" in name for name in failed)
        assert any("derived" in name for name in failed)

    def test_composition_failure_detected(self, z4):
        # alpha_{r^2} = id conflicts with alpha_r = swap on full domains
        X = ("a", "b")
        swap = {"a": "b", "b": "a"}
        ident = {"a": "a", "b": "b"}
        spa = SetPartialAction(
            z4,
            X,
            domains={1: X, 2: X, 3: X},
            maps={1: dict(swap), 2: dict(swap), 3: dict(swap)},
        )
        report = verify_partial_action(spa)
        assert any("(iii)" in item.name and not item.passed for item in report.items)

    def test_malformed_map_raises(self, z2):
        spa = SetPartialAction(
            z2, ("a", "b"), domains={1: ["a", "b"]}, maps={1: {"a": "a", "b": "a"}}
        )
        with pytest.raises(MalformedInput):
            verify_partial_action(spa)

    def test_map_domain_mismatch_raises(self, z2):
        spa = SetPartialAction(z2, ("a", "b"), domains={1: ["a"]}, maps={1: {"b": "a"}})
        with pytest.raises(MalformedInput):
            verify_partial_action(spa)

    @pytest.mark.parametrize("key", [1.5, 1.0, True, "1", -1, 2], ids=repr)
    @pytest.mark.parametrize("where", ["domains", "maps"])
    def test_element_keys_must_be_element_indices(self, z2, key, where):
        """Only an exact int in 0..order-1 names an element: 1.5 used to be
        dropped, 1.0 and True read as element 1, and "1" leaked TypeError."""
        data = {"domains": {key: ["p"]}, "maps": {key: {"p": "q"}}}
        with pytest.raises(MalformedInput, match=f"^unknown group element {re.escape(repr(key))}$"):
            SetPartialAction(z2, ("p", "q"), **{where: data[where]})

    def test_witnesses_name_the_first_point_in_carrier_order(self, z2):
        # every point fails row (1, 1): alpha_1 is an 8-cycle, not an involution
        spa = SetPartialAction(z2, POINTS, domains={1: POINTS}, maps={1: dict(reversed(CYCLE.items()))})
        witness = {item.name: item.witness for item in verify_partial_action(spa).items}
        assert witness["axiom (iii): composition on overlaps"].startswith("g=1, h=1, x='p0'")
        partial = SetPartialAction(z2, POINTS, domains={0: POINTS[3:]}, maps={0: {x: x for x in POINTS[3:]}})
        assert verify_partial_action(partial).items[0].witness == "D_e omits 'p0'"
        moved = SetPartialAction(z2, POINTS, maps={0: {x: POINTS[-1 - i] for i, x in enumerate(POINTS)}})
        assert verify_partial_action(moved).items[0].witness == "alpha_e moves 'p0'"


class TestRestrictGlobal:
    def test_full_subset_is_the_action(self, s3):
        beta = left_translation(s3)
        spa = restrict_global(beta, beta.carrier)
        assert spa.domains == beta.domains
        assert spa.maps == beta.maps

    def test_left_translation_to_identity_point(self, z4):
        beta = left_translation(z4)
        spa = restrict_global(beta, {z4.identity})
        for g in z4.elements():
            expected = {z4.identity} if g == z4.identity else set()
            assert spa.domains[g] == expected

    def test_double_swap_restriction(self, z2):
        maps = {0: {x: x for x in "abcd"}, 1: {"a": "b", "b": "a", "c": "d", "d": "c"}}
        beta = GlobalSetAction(z2, tuple("abcd"), maps)
        spa = restrict_global(beta, {"a", "c"})
        assert spa.domains[1] == frozenset()

    def test_output_always_verifies(self, s3):
        beta = left_translation(s3)
        spa = restrict_global(beta, {0, 2, 3})
        assert verify_partial_action(spa).ok


class TestExtendByZero:
    def test_whole_group_identity(self, s3):
        H = whole_group(s3)
        action = left_translation(H.as_group())
        assert extend_by_zero(action, H).maps == action.maps

    def test_z2_inside_s3(self, s3, s3_swap_subgroup):
        K = s3_swap_subgroup.as_group()
        action = GlobalSetAction(K, ("p", "q"), {0: {"p": "p", "q": "q"}, 1: {"p": "q", "q": "p"}})
        spa = extend_by_zero(action, s3_swap_subgroup)
        empties = [g for g in s3.elements() if not spa.domains[g]]
        assert len(empties) == 4
        assert verify_partial_action(spa).ok

    def test_trivial_subgroup(self, z2):
        H = subgroup_closure(z2, [])
        action = GlobalSetAction(H.as_group(), ("x",), {0: {"x": "x"}})
        spa = extend_by_zero(action, H)
        assert spa.domains[1] == frozenset()

    def test_group_mismatch(self, s3, z4, s3_swap_subgroup):
        action = left_translation(z4)
        with pytest.raises(NotASubgroup):
            extend_by_zero(action, s3_swap_subgroup)


class TestGlobalPart:
    def test_extension_by_zero_recovers_subgroup(self, s3, s3_swap_subgroup):
        K = s3_swap_subgroup.as_group()
        action = GlobalSetAction(K, ("p",), {0: {"p": "p"}, 1: {"p": "p"}})
        spa = extend_by_zero(action, s3_swap_subgroup)
        H, restricted = global_part(spa)
        assert H.members == s3_swap_subgroup.members
        assert restricted.maps == action.maps

    def test_global_action_returns_whole_group(self, z4):
        beta = left_translation(z4)
        H, _ = global_part(beta)
        assert H.members == tuple(z4.elements())

    def test_z4_restriction_to_even_part(self, z4):
        beta = left_translation(z4)
        spa = restrict_global(beta, {0, 2})
        H, _ = global_part(spa)
        assert H.members == (0, 2)

    @pytest.mark.parametrize(
        "carrier,domains,maps,message",
        [
            ((0,), {1: [0]}, {1: {0: 0}},
             "full-domain set is not a subgroup: not closed under inverse at 1"),
            ((0, 1, 2), {1: [0, 1, 2], 2: [0, 1, 2]},
             {1: {0: 1, 1: 0, 2: 2}, 2: {0: 1, 1: 0, 2: 2}},
             "restriction to H is not an action: action law fails: 1*1 at 0"),
        ],
        ids=["full domains of no subgroup", "full domains of no action"],
    )
    def test_input_that_is_no_partial_action_raises(self, z3, carrier, domains, maps, message):
        spa = SetPartialAction(z3, carrier, domains, maps)
        try:  # verify_partial_action rejects the candidate, by a FAIL or by raising
            assert not verify_partial_action(spa).ok
        except MalformedInput:
            pass
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            global_part(spa)


class TestGlobalize:
    def test_global_input_gives_bijective_embedding(self, s3):
        beta = left_translation(s3)
        sg = globalize_set(beta)
        assert sg.size == len(beta.carrier)
        assert sorted(sg.embedding.values()) == list(range(sg.size))
        assert verify_set_globalization(beta, sg).ok

    def test_single_point_empty_domain(self, z2):
        spa = SetPartialAction(z2, ("p",), domains={1: []})
        sg = globalize_set(spa)
        assert sg.size == 2
        assert sg.envelope.maps[1] == {0: 1, 1: 0}

    def test_s3_cosets_from_one_point(self, s3, s3_swap_subgroup):
        K = s3_swap_subgroup.as_group()
        action = GlobalSetAction(K, ("p",), {0: {"p": "p"}, 1: {"p": "p"}})
        spa = extend_by_zero(action, s3_swap_subgroup)
        sg = globalize_set(spa)
        assert sg.size == 3  # one point per left coset

    def test_extension_of_global_action_has_index_times_carrier_points(
        self, s3, s3_swap_subgroup
    ):
        K = s3_swap_subgroup.as_group()
        action = GlobalSetAction(
            K, ("p", "q"), {0: {"p": "p", "q": "q"}, 1: {"p": "q", "q": "p"}}
        )
        spa = extend_by_zero(action, s3_swap_subgroup)
        sg = globalize_set(spa)
        index = s3.order // s3_swap_subgroup.order
        assert sg.size == index * len(spa.carrier)
        # each class is hit by exactly one (transversal rep, point) pair
        reps = {(g, x) for (g, x) in sg.orbit_witness}
        assert {g for g, _ in reps} <= {0, 2, 3}

    def test_restriction_reproduces_input(self, s3):
        beta = left_translation(s3)
        spa = restrict_global(beta, {0, 1, 4})
        sg = globalize_set(spa)
        emb = sg.embedding
        for g in s3.elements():
            back = {x for x in spa.carrier if emb[x] in {
                sg.envelope.maps[g][emb[y]] for y in spa.carrier}}
            assert back == spa.domains[g]
            for x in spa.domains[s3.inv(g)]:
                assert emb[spa.maps[g][x]] == sg.envelope.maps[g][emb[x]]

    def test_size_bound(self, z4):
        for spa in enumerate_partial_actions(z4, 2):
            assert globalize_set(spa).size <= 2 * z4.order

    def test_equivariance_witness_names_the_first_point_in_carrier_order(self, z2):
        # an envelope whose beta_1 fixes everything fails equivariance at
        # every point of the swap action
        swap = {x: POINTS[i ^ 1] for i, x in reversed(list(enumerate(POINTS)))}
        spa = GlobalSetAction(z2, POINTS, {0: {x: x for x in POINTS}, 1: swap})
        sg = globalize_set(spa)
        fixed = {g: {c: c for c in sg.envelope.carrier} for g in z2.elements()}
        bad = SetGlobalization(
            spa, GlobalSetAction(z2, sg.envelope.carrier, fixed), sg.embedding, sg.orbit_witness
        )
        item = verify_set_globalization(spa, bad).items[-1]
        assert not item.passed and item.witness == "g=1, x='p0'"


def fixed_point_candidate():
    """Z2 fixing "a" and acting on "b" with D_1 = {a}, and its envelope:
    point 0 is a, fixed by 1, and 1 swaps point 1 (b) with point 2."""
    spa = SetPartialAction(cyclic_group(2), ("a", "b"), {1: ["a"]}, {1: {"a": "a"}})
    return spa, globalize_set(spa)


def _set_embedding(embedding):
    return lambda spa, sg: (spa, SetGlobalization(spa, sg.envelope, embedding, sg.orbit_witness))


def _fixed_extra_point(spa, sg):
    maps = {g: {**m, 3: 3} for g, m in sg.envelope.maps.items()}
    envelope = GlobalSetAction(spa.group, (0, 1, 2, 3), maps)
    return spa, SetGlobalization(spa, envelope, sg.embedding, sg.orbit_witness)


def _empty_domains(spa, sg):
    return SetPartialAction(spa.group, spa.carrier), sg


# (id, mutation of the fixed-point candidate, the key of the first failing
# item, its witness)
SET_ENVELOPE_FAULTS = [
    ("collapsing embedding", _set_embedding({"a": 0, "b": 0}), "ideal", "image collapses"),
    ("embedding of another carrier", _set_embedding({"x": 0, "y": 1}), "ideal",
     "embedding is not defined on every point"),
    ("embedding leaves the envelope", _set_embedding({"a": 0, "b": 7}), "ideal",
     "embedding leaves the envelope"),
    ("unreached point", _fixed_extra_point, "covers", "unreached points [3]"),
    ("wrong D_g", _empty_domains, "intersection", "g=1"),
]

# (id, mutation of the fixed-point candidate, MalformedInput's message): a
# candidate the package did not build raises, naming the field at fault
SET_CANDIDATE_FAULTS = [
    ("no candidate", lambda spa, sg: (spa, object()), "candidate has no envelope"),
    ("envelope is 5", lambda spa, sg: (spa, SetGlobalization(
        spa, 5, sg.embedding, sg.orbit_witness
    )), "candidate envelope is not a global set action"),
    ("embedding is 5", lambda spa, sg: (spa, SetGlobalization(spa, sg.envelope, 5, ())),
     "embedding is not a mapping"),
    ("mapping with envelope 5", lambda spa, sg: (spa, {"envelope": 5, "embedding": sg.embedding}),
     "candidate envelope is not a global set action"),
    ("mapping with embedding 5", lambda spa, sg: (spa, {"envelope": sg.envelope, "embedding": 5}),
     "candidate embedding is not a mapping"),
]


class TestVerifySetGlobalization:
    @pytest.mark.parametrize(
        "mutate,key,witness",
        [f[1:] for f in SET_ENVELOPE_FAULTS],
        ids=[f[0] for f in SET_ENVELOPE_FAULTS],
    )
    def test_faulty_candidate_is_rejected(self, mutate, key, witness):
        spa, sg = fixed_point_candidate()
        assert verify_set_globalization(spa, sg).ok
        report = verify_set_globalization(*mutate(spa, sg))
        assert not report.ok
        assert report.failures()[0] == check_item(report, key)
        assert check_item(report, key).witness == witness

    @pytest.mark.parametrize(
        "mutate,message",
        [f[1:] for f in SET_CANDIDATE_FAULTS],
        ids=[f[0] for f in SET_CANDIDATE_FAULTS],
    )
    def test_malformed_candidate_raises(self, mutate, message):
        spa, sg = fixed_point_candidate()
        with pytest.raises(MalformedInput) as info:
            verify_set_globalization(*mutate(spa, sg))
        assert str(info.value) == message

    def test_unhashable_image_raises(self):
        spa, sg = fixed_point_candidate()
        with pytest.raises(MalformedInput, match="unhashable image"):
            verify_set_globalization(*_set_embedding({"a": 0, "b": [1]})(spa, sg))

    @pytest.mark.parametrize("action_order,envelope_order", [(3, 2), (2, 3)])
    def test_envelope_over_another_group_raises(self, action_order, envelope_order):
        spa = SetPartialAction(cyclic_group(action_order), (0, 1))
        other = globalize_set(SetPartialAction(cyclic_group(envelope_order), (0, 1)))
        with pytest.raises(GroupMismatch, match="over a different group"):
            verify_set_globalization(spa, other)


class TestOrbitEngine:
    """globalize_set builds envelopes from one stabilizer and one coset
    space per orbit; it must agree with the union-find quotient kept in
    ``oracle_globalization`` and raise on anything that is not a partial
    action."""

    def test_matches_union_find_oracle(self):
        checked = 0
        for name in ("Z2", "Z3", "Z4", "K4", "S3", "Z6"):
            for n in (0, 1, 2, 3):
                for spa in enumerate_partial_actions(ENUM_GROUPS[name](), n):
                    expected = oracle_globalization.globalize_set(spa)
                    assert oracle_globalization.same_globalization(globalize_set(spa), expected)
                    checked += 1
        assert checked == 1121

    def test_orbit_data(self, s3, s3_swap_subgroup):
        # a point with stabilizer {e, (12)}, and a point moved by nothing
        e, swap = s3_swap_subgroup.members
        spa = SetPartialAction(s3, ("p", "q"), {swap: ["p"]}, {swap: {"p": "p"}})
        orbits, paths = set_actions._orbit_data(s3, spa.carrier, spa.domains, spa.maps)
        assert [(o.base, o.stabilizer) for o in orbits] == [("p", (e, swap)), ("q", (e,))]
        assert paths == {"p": (0, e, None), "q": (1, e, None)}
        assert len(set(orbits[0].coset)) == 3 and len(set(orbits[1].coset)) == 6
        assert globalize_set(spa).size == 9

    def test_non_action_raises(self, z3):
        # alpha_1 and alpha_2 both swap 0 and 1: the union-find quotient
        # returns a 4-point envelope that fails its own check
        spa = SetPartialAction(z3, (0, 1, 2), {1: [1, 0], 2: [0, 1]}, {1: {0: 1, 1: 0}, 2: {1: 0, 0: 1}})
        assert not verify_set_globalization(spa, oracle_globalization.globalize_set(spa)).ok
        with pytest.raises(MalformedInput, match="but the orbit of 0 gives"):
            globalize_set(spa)

    def test_map_off_its_source_raises(self, z2):
        spa = SetPartialAction(z2, (0, 1), {1: [0, 1]}, {1: {0: 1}})
        with pytest.raises(MalformedInput, match="not defined on its stated source"):
            globalize_set(spa)

    def test_map_off_its_source_at_the_orbit_base_raises(self, z2):
        # 0 lies in D_1, the source of alpha_1, which is defined at 1 only
        spa = SetPartialAction(z2, (0, 1), {1: [0, 1]}, {1: {1: 0}})
        with pytest.raises(MalformedInput, match="^map of 1 is not defined on its stated source$"):
            globalize_set(spa)

    def test_unclosed_stabilizer_raises(self, z4):
        # 1 and 3 fix the point, 2 = 1*1 does not act on it
        spa = SetPartialAction(z4, ("p",), {1: ["p"], 3: ["p"]}, {1: {"p": "p"}, 3: {"p": "p"}})
        with pytest.raises(MalformedInput, match="not a subgroup at 1\\*1"):
            globalize_set(spa)

    def test_two_points_on_one_coset_raise(self, z4):
        # H = {0, 2} fixes 0, and 1 sends 0 to 1 while 3 = 1*2 sends it to 2
        spa = SetPartialAction(
            z4, (0, 1, 2), {1: [1, 0], 2: [0], 3: [0, 2]},
            {1: {0: 1, 2: 0}, 2: {0: 0}, 3: {1: 0, 0: 2}},
        )
        with pytest.raises(MalformedInput, match="1 and 2 land on one coset"):
            globalize_set(spa)

    def test_point_in_two_orbits_raises(self, z3):
        # alpha_1 takes 0 to 1 and 1 to 2, but 2 = 1*1 does not act on 0:
        # the orbit of 0 stops at 1, and alpha_2 takes 2 to 1
        spa = SetPartialAction(z3, (0, 1, 2), {1: [1, 2], 2: [0, 1]}, {1: {0: 1, 1: 2}, 2: {2: 1, 1: 0}})
        with pytest.raises(MalformedInput, match="1 lies in the orbits of 2 and of an earlier point"):
            globalize_set(spa)

    def test_raises_exactly_on_non_actions(self):
        enumerated = [
            spa
            for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3))
            for n in (1, 2, 3)
            for spa in enumerate_partial_actions(G, n)
        ]
        raised = 0
        for spa in enumerated + [copy for spa in enumerated for copy in _swapped_copies(spa)]:
            try:
                envelope = globalize_set(spa)
            except MalformedInput:
                assert not verify_partial_action(spa).ok
                raised += 1
            else:
                assert verify_partial_action(spa).ok
                assert verify_set_globalization(spa, envelope).ok
        assert raised > 0


class TestEquivalence:
    def test_identity_equivalence(self, z2):
        spa = SetPartialAction(z2, ("p",), domains={1: []})
        a = globalize_set(spa)
        b = globalize_set(spa)
        assert equivalent(a, b) == {0: 0, 1: 1}

    def test_reordered_construction(self, s3, s3_swap_subgroup):
        K = s3_swap_subgroup.as_group()
        action = GlobalSetAction(K, ("p", "q"), {0: {"p": "p", "q": "q"}, 1: {"p": "q", "q": "p"}})
        spa = extend_by_zero(action, s3_swap_subgroup)
        other = SetPartialAction(
            spa.group,
            tuple(reversed(spa.carrier)),
            {g: spa.domains[g] for g in s3.elements()},
            {g: dict(spa.maps[g]) for g in s3.elements()},
        )
        fwd = equivalent(globalize_set(spa), globalize_set(other))
        assert fwd is not None

    def test_cardinality_obstruction(self, z2):
        a = globalize_set(SetPartialAction(z2, ("p",), domains={1: []}))
        full = GlobalSetAction(z2, ("p",), {0: {"p": "p"}, 1: {"p": "p"}})
        b = globalize_set(full)
        assert a.size == 2 and b.size == 1
        assert equivalent(a, b) is None

    def test_points_outside_the_orbit_are_matched_by_backtracking(self, z2):
        # hand-built envelopes with one extra fixed point each; the orbit of
        # the embedding never reaches it, so propagation alone cannot finish
        source = SetPartialAction(
            z2, ("p",), domains={1: ["p"]}, maps={1: {"p": "p"}}
        )

        def padded(extra_label):
            envelope = GlobalSetAction(
                z2, (0, 1), {0: {0: 0, 1: 1}, 1: {0: 0, 1: 1}}
            )
            return SetGlobalization(
                source,
                envelope,
                embedding={"p": 0},
                orbit_witness=((0, "p"), (0, extra_label)),
            )

        fwd = equivalent(padded("x"), padded("y"))
        assert fwd == {0: 0, 1: 1}

    @pytest.mark.parametrize(
        "mutate,message",
        [f[1:] for f in SET_CANDIDATE_FAULTS],
        ids=[f[0] for f in SET_CANDIDATE_FAULTS],
    )
    @pytest.mark.parametrize("first", [False, True], ids=["second", "first"])
    def test_malformed_candidate_raises(self, mutate, message, first):
        spa, sg = fixed_point_candidate()
        with pytest.raises(MalformedInput) as info:
            pair = (sg, mutate(spa, sg)[1])
            envelopes_equivalent(*(pair[::-1] if first else pair))
        assert str(info.value) == message

    @pytest.mark.parametrize("image", [7, [1]], ids=["leaves", "unhashable"])
    def test_embedding_off_the_envelope_raises(self, image):
        spa, sg = fixed_point_candidate()
        _, bad = _set_embedding({"a": 0, "b": image})(spa, sg)
        for pair in ((sg, bad), (bad, sg)):
            with pytest.raises(MalformedInput, match="^embedding leaves the envelope$"):
                envelopes_equivalent(*pair)


    def test_envelope_that_is_no_global_action_is_refused(self):
        # so that size and repr never meet one
        spa, sg = fixed_point_candidate()
        with pytest.raises(MalformedInput, match="^candidate envelope is not a global set action$"):
            SetGlobalization(spa, 5, sg.embedding, sg.orbit_witness)

    def test_exhausted_search_finds_no_equivalence(self, z2):
        # one embedded fixed point; of the two other points, Z2 swaps them in
        # a and fixes them in b, so no bijection of them is equivariant
        spa = SetPartialAction(z2, ("p",))
        a, b = (
            SetGlobalization(spa, GlobalSetAction(z2, (0, 1, 2), {1: m}), {"p": 0}, ())
            for m in ({0: 0, 1: 2, 2: 1}, {0: 0, 1: 1, 2: 2})
        )
        assert envelopes_equivalent(a, b) is None
        assert envelopes_equivalent(a, a) == {0: 0, 1: 1, 2: 2}

    def test_repr(self, z2):
        sg = globalize_set(SetPartialAction(z2, ("p", "q"), {1: ["p"]}, {1: {"p": "p"}}))
        assert repr(sg) == "SetGlobalization(size=3, embedded=2)"

    def test_envelopes_over_different_groups_raise(self):
        a, b = (globalize_set(SetPartialAction(cyclic_group(n), (0, 1))) for n in (2, 3))
        with pytest.raises(GroupMismatch, match="^envelopes are over different groups$"):
            envelopes_equivalent(a, b)

    def test_envelopes_of_different_carriers_raise(self, z2):
        a, b = (globalize_set(SetPartialAction(z2, (x,))) for x in ("p", "q"))
        with pytest.raises(MalformedInput, match="^envelopes embed different carriers$"):
            envelopes_equivalent(a, b)


def _swapped_copies(spa):
    """One copy of spa per map with two or more points, with the images of
    its first two points (in carrier order) swapped."""
    out = []
    for g in spa.group.elements():
        first, second, *_ = [x for x in spa.carrier if x in spa.maps[g]] + [None, None]
        if second is not None:
            maps = {h: dict(m) for h, m in spa.maps.items()}
            maps[g][first], maps[g][second] = maps[g][second], maps[g][first]
            out.append(SetPartialAction(spa.group, spa.carrier, spa.domains, maps))
    return out


class TestSharedChecks:
    """The set verifier and equivalence search run the code shared with
    block algebras; they must agree with the separate set versions kept in
    ``oracle_checks`` and with the algebra verifier on the lift."""

    @staticmethod
    def flags(report):
        return [item.passed for item in report.items]

    def test_verifier_agrees_with_oracle_and_lift(self):
        enumerated = [
            spa
            for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3))
            for n in (1, 2, 3)
            for spa in enumerate_partial_actions(G, n)
        ]
        assert len(enumerated) == 648
        pool = enumerated + [copy for spa in enumerated for copy in _swapped_copies(spa)]
        failing = Counter()
        for spa in pool:
            expected = self.flags(oracle_checks.verify_partial_action(spa))
            assert self.flags(verify_partial_action(spa)) == expected
            assert self.flags(verify_algebra_partial_action(lift_set_action(spa))) == expected + [True]
            failing.update(i for i, passed in enumerate(expected) if not passed)
        # every item fails on some swapped copy, so failing flags are compared too
        assert set(failing) == {0, 1, 2, 3, 4}

    @staticmethod
    def s4_times_z2():
        """S4 x Z2, order 48, as a Cayley table: (a, b) is element 2a + b."""
        S4 = symmetric_group(4)
        return make_group([
            [2 * S4.mul(x // 2, y // 2) + (x + y) % 2 for y in range(48)] for x in range(48)
        ])

    @pytest.mark.parametrize("name,sample", [
        ("Z1", 1), ("Z2", 1), ("S3", 1), ("S3-file", 1), ("S4", 1), ("S4xZ2", 8),
    ])
    def test_intersection_witness_agrees_with_oracle(self, name, sample):
        """The intersection item's witness text, not only its flag, equals
        the oracle's set form on swapped copies of restrictions of the
        regular action (every ``sample``-th copy), and the lift's flags
        agree; Z1's regular action has one point, so its trivial action on
        two points is added."""
        G = {
            **ENUM_GROUPS,
            "S3-file": lambda: parse_group(
                json.loads((DATA / "group_s3_relabelled.json").read_text())
            ),
            "S4": lambda: symmetric_group(4),
            "S4xZ2": self.s4_times_z2,
        }[name]()
        rng = random.Random(f"intersection:{name}")
        regular = left_translation(G)
        sizes = sorted({max(1, G.order // 2), max(1, G.order - 1), G.order})
        restrictions = [restrict_global(regular, rng.sample(range(G.order), k)) for k in sizes]
        if G.order == 1:
            restrictions.append(SetPartialAction(G, ("a", "b")))
        copies = [copy for spa in restrictions for copy in _swapped_copies(spa)][::sample]
        failing = 0
        for spa in restrictions + copies:
            expected = oracle_checks.verify_partial_action(spa)
            item = verify_partial_action(spa).items[3]
            assert (item.passed, item.witness) == (expected.items[3].passed, expected.items[3].witness)
            lifted = verify_algebra_partial_action(lift_set_action(spa))
            assert self.flags(lifted) == self.flags(expected) + [True]
            failing += not item.passed
        assert (failing > 0) == (G.order > 2)  # whole domains of Z1 and Z2 always pass

    @pytest.mark.parametrize("name", ["Z4", "S3", "S3-relabelled"])
    def test_intersection_witness_on_random_bijections(self, name):
        """Random domains with random bijections D_{g^-1} -> D_g (alpha_g^-1
        for alpha_{g^-1}): the least h is taken over every point of the
        least failing g, not from its first failing point."""
        G = ENUM_GROUPS[name]()
        rng = random.Random(f"random bijections:{name}")
        X = tuple("abcd")
        failing = 0
        for _ in range(300):
            domains, maps = {}, {}
            for g in G.elements():
                if g not in maps:
                    gi = G.inv(g)
                    source = rng.sample(X, rng.randint(0, len(X)))
                    target = source if g == gi else rng.sample(X, len(source))
                    maps[g] = dict(zip(source, rng.sample(target, len(target))))
                    maps[gi] = {y: x for x, y in maps[g].items()}
                    domains[g], domains[gi] = maps[g].values(), source
            spa = SetPartialAction(G, X, domains, maps)
            item = verify_partial_action(spa).items[3]
            expected = oracle_checks.verify_partial_action(spa).items[3]
            assert (item.passed, item.witness) == (expected.passed, expected.witness)
            failing += not item.passed
        assert failing > 100

    def test_order_one_group(self):
        """On Z1, alpha_e swapping two points fails axioms (i) and (iii) and
        passes the intersection item, in the set report and on the lift."""
        spa = SetPartialAction(cyclic_group(1), ("a", "b"), maps={0: {"a": "b", "b": "a"}})
        report = verify_partial_action(spa)
        assert [(item.passed, item.witness) for item in report.items] == [
            (False, "alpha_e moves 'a'"),
            (True, None),
            (False, "g=0, h=0, x='a': alpha_g(alpha_h(x)) != alpha_gh(x)"),
            (True, None),
            (True, None),
        ]
        lifted = verify_algebra_partial_action(lift_set_action(spa))
        assert [(item.passed, item.witness) for item in lifted.items] == [
            (False, "alpha_e is not the identity map"),
            (True, None),
            (False, "g=0, h=0, block 0"),
            (True, None),
            (True, None),
            (True, None),
        ]

    @pytest.mark.parametrize("name,n", [("Z2", 2), ("Z3", 2), ("S3", 1), ("S3", 2), ("Z4", 1)])
    def test_equivalence_agrees_with_oracle(self, name, n):
        envelopes = [globalize_set(spa) for spa in enumerate_partial_actions(ENUM_GROUPS[name](), n)]
        verdicts = Counter(equivalent(a, b) is not None for a in envelopes for b in envelopes)
        assert verdicts[True] >= len(envelopes) and verdicts[False] > 0


class TestCertificate:
    """Both verifiers decide validity from orbit data and run the axiom scan
    only on input that the certificate rejects; every report must equal the
    one the scan alone builds (``oracle_checks.scanned_report``)."""

    def test_valid_input_is_not_scanned(self, monkeypatch, s3, z4):
        def scan(*args):
            raise AssertionError("the axiom scan ran on valid input")

        lifts = enumerate_algebra_partial_actions(z4, 2, Block("L", cyclic_group(2)))
        twisted = next(pa for pa in lifts if any(any(w.twists.values()) for w in pa.maps.values()))
        monkeypatch.setattr(set_actions, "_axiom_witnesses", scan)
        spa = restrict_global(left_translation(s3), [0, 1, 3])
        assert verify_partial_action(spa).ok
        assert verify_algebra_partial_action(lift_set_action(spa)).ok
        assert verify_algebra_partial_action(twisted).ok

    def test_failing_input_is_scanned(self, monkeypatch, z2):
        calls = []
        scan = set_actions._axiom_witnesses
        monkeypatch.setattr(
            set_actions, "_axiom_witnesses", lambda *args: calls.append(args) or scan(*args)
        )
        moved = SetPartialAction(z2, ("a", "b"), maps={0: {"a": "b", "b": "a"}})
        assert not verify_partial_action(moved).ok
        assert not verify_algebra_partial_action(lift_set_action(moved)).ok
        assert len(calls) == 2

    def test_reports_match_the_scan(self):
        enumerated = [
            spa
            for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3))
            for n in (1, 2, 3)
            for spa in enumerate_partial_actions(G, n)
        ]
        pool = enumerated + [copy for spa in enumerated for copy in _swapped_copies(spa)]
        verdicts = Counter()
        for spa in pool:
            report = verify_partial_action(spa).to_dict()
            assert report == oracle_checks.scanned_report(verify_partial_action, spa).to_dict()
            verdicts[report["ok"]] += 1
        assert verdicts == {True: 760, False: 1475}

    @pytest.mark.parametrize("case,carrier,domains,maps,witness", [
        ("D_e omits a point", ("a", "b"), {0: ["b"]}, {0: {"b": "b"}}, "D_e omits 'a'"),
        ("alpha_e moves a point", ("a", "b"), {}, {0: {"a": "b", "b": "a"}}, "alpha_e moves 'a'"),
        ("empty carrier", (), {}, {}, None),
    ])
    def test_named_cases(self, z2, case, carrier, domains, maps, witness):
        spa = SetPartialAction(z2, carrier, domains, maps)
        report = verify_partial_action(spa)
        assert report.to_dict() == oracle_checks.scanned_report(verify_partial_action, spa).to_dict()
        assert report.items[0].witness == witness
        assert report.ok == (witness is None)


class TestEnumerate:
    def test_trivial_group(self):
        G = cyclic_group(1)
        assert len(enumerate_partial_actions(G, 3)) == 1

    def test_z2_on_one_point(self, z2):
        assert len(enumerate_partial_actions(z2, 1)) == 2

    def test_z2_on_two_points(self, z2):
        actions = enumerate_partial_actions(z2, 2)
        assert len(actions) == 5
        keys = [a.canonical_key() for a in actions]
        assert keys == sorted(keys)
        assert len(set(keys)) == 5

    def test_single_point_actions_match_subgroups(self, s3):
        # on one point, a partial action is exactly a subgroup (full domains)
        from partial_actions.groups import all_subgroups

        actions = enumerate_partial_actions(s3, 1)
        subgroup_sets = {H.members for H in all_subgroups(s3)}
        action_sets = {
            tuple(sorted(g for g in s3.elements() if a.domains[g])) for a in actions
        }
        assert action_sets == subgroup_sets

    def test_all_outputs_verify(self, z3):
        for spa in enumerate_partial_actions(z3, 3):
            assert verify_partial_action(spa).ok

    @pytest.mark.parametrize(
        "name,carrier",
        [(name, n) for name in ENUM_GROUPS for n in range(5)]
        + [("S3", ("z", "y", "x")), ("Z6", ("d", 7, "b", "a"))]
        + [(f"enumerate-z6x4 seed {seed}", 4) for seed in (1, 2, 3)],
        ids=str,
    )
    def test_closed_under_canonical_form(self, name, carrier, tmp_path):
        """Outputs are built without the constructor's checks, but already
        normalized: rebuilding one from its own domains and maps gives an
        equal action with the same key, map key order and document."""
        if name.startswith("enumerate-z6x4"):
            workload = perfbench_workloads().build_enumerate(int(name.split()[-1]), tmp_path)
            G = parse_group(json.loads(Path(workload.invocations[0][2]).read_text()))
        else:
            G = ENUM_GROUPS[name]()
        for a in enumerate_partial_actions(G, carrier):
            b = SetPartialAction(G, a.carrier, a.domains, a.maps)
            assert b == a and b.canonical_key() == a.canonical_key()
            assert all(list(b.maps[g]) == list(a.maps[g]) for g in G.elements())
            assert json.dumps(set_action_to_doc(b)) == json.dumps(set_action_to_doc(a))

    def test_size_limits(self, z2):
        with pytest.raises(MalformedInput):
            enumerate_partial_actions(z2, -1)
        with pytest.raises(SizeLimit):
            enumerate_partial_actions(z2, 5)
        with pytest.raises(SizeLimit):
            enumerate_partial_actions(cyclic_group(7), 1)

    def test_duplicate_carrier_rejected_before_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a carrier with duplicate points")

        monkeypatch.setattr(set_actions, "_transitive_pieces", no_search)
        with pytest.raises(MalformedInput, match="duplicate"):
            enumerate_partial_actions(cyclic_group(6), ["a", "a", "b", "c"])

    @pytest.mark.parametrize(
        "name,sizes",
        [(f"Z{k}", (0, 1, 2, 3)) for k in range(1, 7)]
        + [("K4", (0, 1, 2, 3, 4)), ("S3", (0, 1, 2, 3)), ("S3-relabelled", (0, 1, 2, 3))]
        + [(f"Z{k}", (4,)) for k in (2, 3, 4, 5)],
        ids=lambda v: v if isinstance(v, str) else "on-" + "-".join(map(str, v)),
    )
    def test_matches_brute_force_oracle(self, name, sizes):
        """Same list in the same order as the product-and-filter oracle."""
        G = ENUM_GROUPS[name]()
        for n in sizes:
            assert enumerate_partial_actions(G, n) == brute_force_partial_actions(G, n)

    def test_labelled_carrier_matches_oracle(self, s3):
        carrier = ("q", 7)
        assert enumerate_partial_actions(s3, carrier) == brute_force_partial_actions(s3, carrier)

    @pytest.mark.parametrize("name,count", [("Z5", 280), ("K4", 1759), ("S3", 5004), ("Z6", 1628)])
    def test_cap_counts(self, name, count):
        actions = enumerate_partial_actions(ENUM_GROUPS[name](), 4)
        assert len(actions) == count
        keys = [a.canonical_key() for a in actions]
        assert keys == sorted(keys) and len(set(keys)) == count
        if name == "Z6":
            pinned = json.loads(PINNED_Z6X4.read_text(encoding="utf-8"))
            histogram = Counter(globalize_set(a).size for a in actions)
            assert {str(k): histogram[k] for k in sorted(histogram)} == pinned[
                "envelope_size_histogram"
            ]
            assert pinned["count"] == count


class TestEnvelopeSizes:
    """set_actions._stabilizer_sizes on the stabilizers that
    enumerate_partial_actions hands over, against globalize_set on each
    whole action and against the certificate form,
    oracle_globalization.envelope_sizes."""

    @staticmethod
    def handed_over(G, carrier):
        stabilizers = []
        actions = enumerate_partial_actions(G, carrier, _stabilizers=stabilizers)
        assert len(stabilizers) == len(actions)
        return actions, stabilizers

    def check(self, G, carrier):
        actions, stabilizers = self.handed_over(G, carrier)
        sizes = set_actions._stabilizer_sizes(G, stabilizers)
        assert sizes == [globalize_set(a).size for a in actions]
        assert sizes == oracle_globalization.envelope_sizes(actions)

    @pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z4", "K4", "Z5", "S3", "Z6"])
    def test_every_group_of_order_at_most_six(self, name):
        G = ENUM_GROUPS[name]()
        for n in range(5):
            self.check(G, n)

    @pytest.mark.parametrize("name,carrier", [
        ("S3", ("a", "b", "c")),
        ("Z6", ("a", "b", "c")),
        ("relabelled", 3),
        ("relabelled", 4),
    ])
    def test_labelled_carriers_and_identity_off_zero(self, name, carrier):
        if name == "relabelled":  # e is element 5 of this S3
            G = parse_group(json.loads((DATA / "group_s3_relabelled.json").read_text()))
            assert G.identity != 0
        else:
            G = ENUM_GROUPS[name]()
        self.check(G, carrier)

    @pytest.mark.parametrize("name,carrier", [
        *[(name, n) for name in ENUM_GROUPS for n in range(5)],
        ("S3", ("a", "b", "c")),
        ("Z6", ("q", 7, "c", 0)),
    ])
    def test_stabilizers_are_the_certificates(self, name, carrier):
        """For every enumerated action, the handed-over stabilizers are the
        orbit stabilizers of _orbit_data, as a multiset, and handing them
        over leaves the returned list as it is."""
        G = ENUM_GROUPS[name]()
        actions, stabilizers = self.handed_over(G, carrier)
        assert actions == enumerate_partial_actions(G, carrier)
        for a, handed in zip(actions, stabilizers):
            orbits, _ = set_actions._orbit_data(G, a.carrier, a.domains, a.maps)
            assert sorted(handed) == sorted(orbit.stabilizer for orbit in orbits)

    def test_groups_of_one_order_keep_their_own_pieces(self, monkeypatch):
        """Z4 and K4 actions in one list: each group's pieces are globalized
        over that group, once per stabilizer, and the certificate oracle on
        the interleaved list gives the interleaved sizes."""
        z4, k4 = ENUM_GROUPS["Z4"](), ENUM_GROUPS["K4"]()
        seen = []
        real = set_actions.globalize_set
        monkeypatch.setattr(set_actions, "globalize_set", lambda spa: seen.append(spa) or real(spa))
        (z4_actions, z4_stabs), (k4_actions, k4_stabs) = (self.handed_over(G, 3) for G in (z4, k4))
        z4_sizes = set_actions._stabilizer_sizes(z4, z4_stabs)
        k4_sizes = set_actions._stabilizer_sizes(k4, k4_stabs)
        assert {spa.group for spa in seen} == {z4, k4}
        assert len(seen) == len({(spa.group, spa.canonical_key()) for spa in seen})
        actions = [a for pair in zip(z4_actions, k4_actions) for a in pair]
        sizes = [s for pair in zip(z4_sizes, k4_sizes) for s in pair]
        assert oracle_globalization.envelope_sizes(actions) == sizes
        assert sizes == [real(a).size for a in actions]

    def test_pieces_are_globalized_once(self, monkeypatch):
        """On Z6 with 4 points, the orbits of 1,628 actions have 4 distinct
        stabilizers, one per subgroup of Z6; each is globalized once, on
        the single point 0, and the certificate runs only inside those 4."""
        calls, certificates = [], []
        real, real_orbit_data = set_actions.globalize_set, set_actions._orbit_data
        monkeypatch.setattr(set_actions, "globalize_set", lambda spa: calls.append(spa) or real(spa))
        monkeypatch.setattr(set_actions, "_orbit_data",
                            lambda *args: certificates.append(args) or real_orbit_data(*args))
        G = ENUM_GROUPS["Z6"]()
        _, stabilizers = self.handed_over(G, 4)
        assert len(set_actions._stabilizer_sizes(G, stabilizers)) == 1628
        assert len(calls) == len(certificates) == 4
        assert all(spa.carrier == (0,) for spa in calls)

    def test_data_that_is_no_partial_action_raises(self):
        """Where globalize_set rejects an action, so does the certificate
        oracle, with the same message; otherwise both give one size."""
        pool = [copy for G in (cyclic_group(3), symmetric_group(3)) for n in (2, 3)
                for spa in enumerate_partial_actions(G, n) for copy in _damaged_copies(spa)]
        rejected = 0
        for spa in pool:
            try:
                expected = globalize_set(spa).size
            except MalformedInput as exc:
                with pytest.raises(MalformedInput, match=f"^{re.escape(str(exc))}$"):
                    oracle_globalization.envelope_sizes([spa])
                rejected += 1
            else:
                assert oracle_globalization.envelope_sizes([spa]) == [expected]
        assert 0 < rejected < len(pool)

    def test_orbits_that_meet_raise(self, z2):
        """alpha_1 sends both a and c to b: the orbit {a, b} is a partial
        action by itself, and the orbit of c meets it.  The orbit
        certificate refuses alpha_1 as globalize_set does: it is defined on
        c, outside D_1."""
        spa = SetPartialAction(z2, ("a", "b", "c"), {1: ["a", "b"]}, {1: {"a": "b", "b": "a", "c": "b"}})
        with pytest.raises(MalformedInput):
            globalize_set(spa)
        with pytest.raises(MalformedInput, match="^map of 1 is not defined on its stated source$"):
            oracle_globalization.envelope_sizes([spa])


def _damaged_copies(spa):
    """spa's :func:`_swapped_copies`, and per g != e with a nonempty map one
    copy without its first map pair and one with D_g shrunk by its first
    point, each with the other data kept."""
    out = _swapped_copies(spa)
    G = spa.group
    for g in G.elements():
        m = spa.maps[g]
        if g == G.identity or not m:
            continue
        first = next(iter(m))
        maps = {h: {x: y for x, y in n.items() if (h, x) != (g, first)} for h, n in spa.maps.items()}
        out.append(SetPartialAction(G, spa.carrier, spa.domains, maps))
        domains = {**spa.domains, g: spa.domains[g] - {m[first]}}
        out.append(SetPartialAction(G, spa.carrier, domains, spa.maps))
    return out


def _global_action_pool():
    """Small global actions: left translations and a faithful S3 action."""
    pool = []
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)):
        pool.append(left_translation(G))
    s3 = symmetric_group(3)
    perms = {
        0: {0: 0, 1: 1, 2: 2},
        1: {0: 1, 1: 0, 2: 2},
        2: {0: 2, 1: 1, 2: 0},
        3: {0: 0, 1: 2, 2: 1},
        4: {0: 1, 1: 2, 2: 0},
        5: {0: 2, 1: 0, 2: 1},
    }
    pool.append(GlobalSetAction(s3, (0, 1, 2), perms))
    return st.sampled_from(pool)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restriction_always_yields_partial_action(data):
    beta = data.draw(_global_action_pool())
    subset = data.draw(st.sets(st.sampled_from(list(beta.carrier))))
    spa = restrict_global(beta, subset)
    assert verify_partial_action(spa).ok
    sg = globalize_set(spa)
    assert sg.size <= len(spa.carrier) * spa.group.order
    assert verify_set_globalization(spa, sg).ok
    assert oracle_globalization.same_globalization(sg, oracle_globalization.globalize_set(spa))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_global_part_of_restriction_is_subgroup(data):
    beta = data.draw(_global_action_pool())
    subset = data.draw(st.sets(st.sampled_from(list(beta.carrier)), min_size=1))
    spa = restrict_global(beta, subset)
    H, restricted = global_part(spa)
    assert spa.group.identity in H.members
    assert verify_partial_action(restricted).ok


ABADIE_GROUPS = [
    *(cyclic_group(k) for k in (1, 2, 3, 4, 5, 6, 8, 12)),
    ENUM_GROUPS["K4"](),
    symmetric_group(3),
    symmetric_group(4),
    parse_group(json.loads((DATA / "group_s3_relabelled.json").read_text())),
    relabelled(symmetric_group(4)),
]


@st.composite
def _coset_union(draw):
    """A global action β = ⊔ G/H_i on points 0..m-1, G of order <= 24 and
    each H_i generated by at most two drawn elements, with the points of
    each orbit and its index [G:H_i]."""
    G = draw(st.sampled_from(ABADIE_GROUPS))
    maps = {g: {} for g in G.elements()}
    orbits = []
    for _ in range(draw(st.integers(1, 3))):
        gens = draw(st.lists(st.sampled_from(list(G.elements())), max_size=2))
        moved = coset_factorize(G, subgroup_closure(G, gens)).j_table
        offset = sum(len(points) for points in orbits)
        for g, row in enumerate(moved):
            maps[g].update((offset + i, offset + j) for i, j in enumerate(row))
        orbits.append(range(offset, offset + len(moved[0])))
    return GlobalSetAction(G, range(orbits[-1].stop), maps), orbits


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_envelope_of_a_restriction_is_the_saturation(data):
    """Abadie: the envelope of β restricted to X is β restricted to G·X, up
    to an equivalence that fixes X, so it has [G:H_i] points per orbit that
    X meets."""
    beta, orbits = data.draw(_coset_union())
    subset = data.draw(st.sets(st.sampled_from(beta.carrier)))
    G = beta.group
    sg = globalize_set(restrict_global(beta, subset))
    met = [points for points in orbits if not subset.isdisjoint(points)]
    assert sg.size == sum(map(len, met))
    saturation = [p for points in met for p in points]
    saturated = SetGlobalization(
        sg.source,
        GlobalSetAction(G, saturation, {g: {p: beta.maps[g][p] for p in saturation}
                                        for g in G.elements()}),
        {x: x for x in subset},
        (),
    )
    fwd = envelopes_equivalent(sg, saturated)
    assert fwd is not None
    assert all(fwd[sg.embedding[x]] == x for x in subset)


GOLDEN = Path(__file__).parent / "data"


def _order_cases():
    """Every action of a group of order <= 4 on <= 3 points, each also on
    its carrier listed in reverse, and the set actions of both golden
    documents."""
    for G in (*(cyclic_group(k) for k in range(1, 5)), ENUM_GROUPS["K4"]()):
        for n in range(4):
            for spa in enumerate_partial_actions(G, n):
                yield spa
                yield SetPartialAction(G, spa.carrier[::-1], spa.domains, spa.maps)
    for name in ("golden_globalize.json", "golden_relabelled.json"):
        for action in load_workbench(GOLDEN / name).actions.values():
            if isinstance(action, SetPartialAction):
                yield action


def _shuffled(spa, rng):
    """spa rebuilt with every domain listed, and every map keyed, in a
    shuffled order."""
    domains, maps = {}, {}
    for g in spa.group.elements():
        domains[g] = rng.sample(sorted(spa.domains[g], key=repr), len(spa.domains[g]))
        maps[g] = dict(rng.sample(list(spa.maps[g].items()), len(spa.maps[g])))
    return SetPartialAction(spa.group, spa.carrier, domains, maps)


def _derived(spa):
    """What the readers and writers make of spa, in forms that keep order."""
    envelope = globalize_set(spa).envelope
    return (
        json.dumps(verify_partial_action(spa).to_dict()),
        json.dumps(set_action_to_doc(spa)),
        spa.canonical_key(),
        [list(envelope.maps[g].items()) for g in envelope.group.elements()],
    )


def test_maps_are_keyed_in_carrier_order_whatever_the_callers_order():
    rng = random.Random(15)
    cases = 0
    for spa in _order_cases():
        shuffled = _shuffled(spa, rng)
        for g in spa.group.elements():
            keys = list(shuffled.maps[g])
            assert keys == [x for x in spa.carrier if x in shuffled.maps[g]], (spa, g)
        assert shuffled == spa
        assert _derived(shuffled) == _derived(spa)
        cases += 1
    assert cases > 800
