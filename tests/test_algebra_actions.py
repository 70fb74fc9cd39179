import itertools
import json
import re
from collections import Counter
from pathlib import Path

import oracle_checks
import oracle_globalization
import pytest
from conftest import check_item, whole_group, wreath_inverse
from oracle_enumeration import brute_force_algebra_partial_actions, relabelled

from partial_actions import algebra_actions, set_actions
from partial_actions.algebra_actions import (
    AlgebraPartialAction,
    GlobalizationResult,
    classify_indecomposable,
    enumerate_algebra_partial_actions,
    extend_by_zero_algebra,
    globalizations_equivalent,
    globalize_block_power,
    globalize_extension_by_zero,
    lift_set_action,
    product_partial_action,
    restrict_to_idempotents,
    split_partial_action,
    verify_algebra_partial_action,
    verify_enveloping,
)
from partial_actions.block_algebras import (
    Block,
    BlockAlgebra,
    WreathMap,
    block_power,
    k_line_block,
    wreath_identity,
)
from partial_actions.errors import (
    GroupMismatch,
    InternalInconsistency,
    MalformedInput,
    NotAHomomorphism,
    PartialActionError,
    TwistTransportConflict,
)
from partial_actions.groups import (
    all_subgroups,
    cyclic_group,
    make_group,
    subgroup_closure,
    symmetric_group,
)
from partial_actions.cli import main
from partial_actions.documents import algebra_action_to_doc, parse_group
from partial_actions.set_actions import (
    SetPartialAction,
    enumerate_partial_actions,
    globalize_set,
)


@pytest.fixture
def quiver_setup(s3, s3_swap_subgroup):
    block = Block("two_way_quiver", s3_swap_subgroup.as_group())
    hom = {m: k for k, m in enumerate(s3_swap_subgroup.members)}
    return block, s3_swap_subgroup, hom


def all_homs(H_group, aut):
    """Brute-force list of homomorphisms between two small groups."""
    out = []
    for images in itertools.product(range(aut.order), repeat=H_group.order):
        if images[H_group.identity] != aut.identity:
            continue
        if all(
            images[H_group.mul(a, b)] == aut.mul(images[a], images[b])
            for a in H_group.elements()
            for b in H_group.elements()
        ):
            out.append(images)
    return out


class TestVerify:
    def test_global_product_action_passes(self, z2):
        algebra = block_power(Block("L", cyclic_group(2)), 2)
        full = algebra.full_ideal()
        swap = WreathMap(full, full, {0: 1, 1: 0}, {0: 1, 1: 1})
        pa = AlgebraPartialAction(z2, algebra, {0: full, 1: full}, {1: swap})
        assert verify_algebra_partial_action(pa).ok

    def test_proper_identity_domain_fails(self, z2):
        algebra = block_power(k_line_block(), 2)
        ideal = algebra.ideal({0})
        pa = AlgebraPartialAction(
            z2, algebra, {0: ideal}, {0: wreath_identity(ideal)}
        )
        report = verify_algebra_partial_action(pa)
        assert not report.items[0].passed

    def test_composition_failure_on_line_blocks(self, z4):
        # alpha_r = swap forces alpha_{r^2} = id; using swap breaks (iii)
        algebra = block_power(k_line_block(), 2)
        full = algebra.full_ideal()
        swap = WreathMap(full, full, {0: 1, 1: 0}, {0: 0, 1: 0})
        pa = AlgebraPartialAction(
            z4,
            algebra,
            {g: full for g in z4.elements()},
            {1: swap, 2: swap, 3: swap},
        )
        report = verify_algebra_partial_action(pa)
        assert any("(iii)" in i.name and not i.passed for i in report.items)

    def test_twist_composition_checked(self, z2):
        # position maps fine, but an order-two group cannot act by an
        # automorphism of order four
        algebra = block_power(Block("L", cyclic_group(4)), 1)
        full = algebra.full_ideal()
        quarter_turn = WreathMap(full, full, {0: 0}, {0: 1})
        pa = AlgebraPartialAction(z2, algebra, {0: full, 1: full}, {1: quarter_turn})
        report = verify_algebra_partial_action(pa)
        assert any("(iii)" in i.name and not i.passed for i in report.items)

    def test_witness_names_the_first_block_in_position_order(self, z2):
        # alpha_1 is a 4-cycle listed backwards: every block fails row (1, 1)
        algebra = block_power(k_line_block(), 4)
        full = algebra.full_ideal()
        cycle = WreathMap(full, full, {3: 0, 2: 3, 1: 2, 0: 1}, {p: 0 for p in range(4)})
        pa = AlgebraPartialAction(z2, algebra, {1: full}, {1: cycle})
        assert verify_algebra_partial_action(pa).items[2].witness == "g=1, h=1, block 0"

    def test_inverse_twist_checked(self, z3):
        # alpha_2 must undo the twist of alpha_1, so both turning by 1 fails
        algebra = block_power(Block("L", cyclic_group(3)), 1)
        full = algebra.full_ideal()
        turn = WreathMap(full, full, {0: 0}, {0: 1})
        pa = AlgebraPartialAction(z3, algebra, {g: full for g in z3.elements()}, {1: turn, 2: turn})
        item = verify_algebra_partial_action(pa).items[4]
        assert item.name == "derived: alpha_g^-1 = alpha_{g^-1}"
        assert not item.passed and item.witness == "alpha of 2"

    def test_source_mismatch_raises(self, z2):
        algebra = block_power(k_line_block(), 2)
        w = wreath_identity(algebra.ideal({0}))
        pa = AlgebraPartialAction(z2, algebra, {1: algebra.ideal({1})}, {1: w})
        with pytest.raises(MalformedInput):
            verify_algebra_partial_action(pa)

    @pytest.mark.parametrize("key", [1.5, 1.0, True, "1", -1, 2], ids=repr)
    @pytest.mark.parametrize("where", ["domains", "maps"])
    def test_element_keys_must_be_element_indices(self, z2, key, where):
        """Only an exact int in 0..order-1 names an element: 1.5 used to be
        dropped, 1.0 and True read as element 1, and "1" leaked TypeError."""
        algebra = BlockAlgebra((Block("L", cyclic_group(2)),))
        full = algebra.full_ideal()
        data = {"domains": {key: full}, "maps": {key: WreathMap(full, full, {0: 0}, {0: 1})}}
        with pytest.raises(MalformedInput, match=f"^unknown group element {re.escape(repr(key))}$"):
            AlgebraPartialAction(z2, algebra, **{where: data[where]})


class TestGlobalizable:
    """Domains are central-idempotent ideals, so every action globalizes; on
    one block each domain is zero or full."""

    def test_always_globalizable(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0, 1), domains={1: [0]}, maps={1: {0: 0}}))
        assert globalize_block_power(pa).checks.ok

    def test_single_block_dichotomy(self, quiver_setup, s3):
        block, H, hom = quiver_setup
        pa = extend_by_zero_algebra(block, H, hom)
        full_on, _ = classify_indecomposable(pa)
        assert full_on.members == (0, 1)
        for g in s3.elements():
            assert pa.support(g) == (frozenset({0}) if g in full_on.members else frozenset())

    def test_no_dichotomy_for_products(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0, 1), domains={1: [0]}, maps={1: {0: 0}}))
        with pytest.raises(MalformedInput):
            classify_indecomposable(pa)


class TestClassifyIndecomposable:
    def test_global_action(self, z2):
        aut = cyclic_group(2)
        pa = extend_by_zero_algebra(Block("L", aut), whole_group(z2), {0: 0, 1: 1})
        H, hom = classify_indecomposable(pa)
        assert H.members == (0, 1)
        assert hom == {0: 0, 1: 1}

    def test_quiver_example(self, quiver_setup):
        block, H_in, hom_in = quiver_setup
        pa = extend_by_zero_algebra(block, H_in, hom_in)
        H, hom = classify_indecomposable(pa)
        assert H.members == H_in.members
        assert hom == hom_in
        assert extend_by_zero_algebra(block, H, hom) == pa

    def test_all_zero_off_identity(self, s3):
        block = Block("L", cyclic_group(2))
        pa = AlgebraPartialAction(s3, BlockAlgebra((block,)))
        H, hom = classify_indecomposable(pa)
        assert H.members == (s3.identity,)
        assert hom == {s3.identity: 0}

    @staticmethod
    def _kept_by(G, names, twists):
        """One block with Aut = Z2, kept by the named elements under the
        given twists and zero elsewhere."""
        algebra = BlockAlgebra((Block("L", cyclic_group(2)),))
        full = algebra.full_ideal()
        kept = [G.element_by_name(x) for x in names]
        maps = {g: WreathMap(full, full, {0: 0}, {0: f}) for g, f in zip(kept, twists)}
        return AlgebraPartialAction(G, algebra, dict.fromkeys(kept, full), maps)

    def test_unclosed_support_raises_the_orbit_data_error(self, s3):
        # 1, (12) and (13) keep the block, but (12)(13) = (132) does not
        pa = self._kept_by(s3, ["1", "(12)", "(13)"], [0, 0, 0])
        with pytest.raises(MalformedInput) as from_orbits:
            globalize_block_power(pa)
        with pytest.raises(MalformedInput) as got:
            classify_indecomposable(pa)
        assert str(got.value) == str(from_orbits.value)
        assert "the stabilizer of 0 is not a subgroup" in str(got.value)
        assert issubclass(got.type, PartialActionError)

    def test_non_homomorphic_twist_raises_the_orbit_data_error(self, z4):
        # phi(1) = phi(2) = phi(3) = 1 in Z2, but phi(1)phi(1) = 0 != phi(2)
        pa = self._kept_by(z4, ["0", "1", "2", "3"], [0, 1, 1, 1])
        with pytest.raises(TwistTransportConflict) as from_orbits:
            globalize_block_power(pa)
        with pytest.raises(TwistTransportConflict) as got:
            classify_indecomposable(pa)
        assert str(got.value) == str(from_orbits.value)
        assert "not a homomorphism on its stabilizer" in str(got.value)
        assert issubclass(got.type, PartialActionError)


K2 = block_power(k_line_block(), 2)
# (id, call, error, message): rejections of the algebra layer's
# constructors that no other test reaches
CONSTRUCTION_FAULTS = [
    ("hom(e) is no identity",
     lambda: extend_by_zero_algebra(Block("L", cyclic_group(2)), whole_group(cyclic_group(1)),
                                    {0: 1}),
     NotAHomomorphism, "hom must send the identity to the identity"),
    ("domain of another algebra",
     lambda: AlgebraPartialAction(
         cyclic_group(2), K2, {1: block_power(k_line_block(), 3).ideal([0])}
     ),
     MalformedInput, "domain ideal belongs to a different algebra"),
    ("product of nothing", lambda: product_partial_action([]), MalformedInput,
     "need at least one component"),
    ("no copies", lambda: block_power(k_line_block(), 0), MalformedInput,
     "need at least one copy"),
]


@pytest.mark.parametrize(
    "build,error,message",
    [f[1:] for f in CONSTRUCTION_FAULTS],
    ids=[f[0] for f in CONSTRUCTION_FAULTS],
)
def test_construction_fault_is_rejected(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


class TestExtendByZeroAlgebra:
    def test_not_a_homomorphism(self, s3, s3_swap_subgroup):
        block = Block("L", cyclic_group(4))
        with pytest.raises(NotAHomomorphism):
            extend_by_zero_algebra(block, s3_swap_subgroup, {0: 0, 1: 1})

    def test_hom_must_cover_subgroup(self, s3, s3_swap_subgroup):
        block = Block("L", cyclic_group(2))
        with pytest.raises(NotAHomomorphism):
            extend_by_zero_algebra(block, s3_swap_subgroup, {0: 0})

    def test_two_block_algebra_is_refused(self, quiver_setup):
        block, H, hom = quiver_setup
        with pytest.raises(MalformedInput, match="^extension by zero takes a single Block$"):
            extend_by_zero_algebra(BlockAlgebra((block, block)), H, hom)

    def test_domains(self, quiver_setup, s3):
        block, H, hom = quiver_setup
        pa = extend_by_zero_algebra(block, H, hom)
        for g in s3.elements():
            assert pa.support(g) == (frozenset({0}) if g in H.members else frozenset())
        assert verify_algebra_partial_action(pa).ok


class TestGlobalizeExtensionByZero:
    def test_quiver_envelope(self, quiver_setup, s3):
        block, H, hom = quiver_setup
        res = globalize_extension_by_zero(block, H, hom)
        assert res.block_count == 3
        assert res.provenance == ("1", "(13)", "(23)")
        assert res.checks.ok
        beta = res.action[s3.element_by_name("(13)")]
        assert beta.position_map == {0: 1, 1: 0, 2: 2}
        assert beta.twists == {0: 0, 1: 0, 2: 1}

    def test_repr(self, quiver_setup):
        res = globalize_extension_by_zero(*quiver_setup)
        assert repr(res) == "GlobalizationResult(blocks=3, ok=True)"

    def test_envelope_that_is_no_block_algebra_is_refused(self, quiver_setup):
        r = globalize_extension_by_zero(*quiver_setup)
        with pytest.raises(MalformedInput, match="^candidate envelope is not a block algebra$"):
            GlobalizationResult(r.source, 5, r.provenance, r.action, r.embedding, r.checks)

    def test_whole_group_gives_single_block(self, z3):
        block = Block("L", cyclic_group(3))
        res = globalize_extension_by_zero(block, whole_group(z3), {0: 0, 1: 1, 2: 2})
        assert res.block_count == 1
        assert res.action[1].twists == {0: 1}

    def test_trivial_subgroup_gives_regular_swap(self, z2):
        block = Block("L", cyclic_group(2))
        H = subgroup_closure(z2, [])
        res = globalize_extension_by_zero(block, H, {0: 0})
        assert res.block_count == 2
        assert res.action[1].position_map == {0: 1, 1: 0}
        assert set(res.action[1].twists.values()) == {0}

    def test_shared_assembly_matches_the_direct_oracle(self):
        """Every subgroup H of Z2, Z3, Z4, S3, Z6 and of S3 and Z4 relabelled
        so that e is not element 0, with every phi: H -> Aut for Aut = Z1,
        Z2, Z3 and S3: the envelope assembled from column e of the j and h
        tables is the one the transversal assembly builds, block order
        included."""
        groups = [cyclic_group(n) for n in (2, 3, 4)] + [symmetric_group(3), cyclic_group(6)]
        groups += [relabelled(symmetric_group(3)), relabelled(cyclic_group(4))]
        auts = [cyclic_group(n) for n in (1, 2, 3)] + [symmetric_group(3)]
        cases = 0
        for G in groups:
            for H in all_subgroups(G):
                for aut in auts:
                    block = Block("B", aut)
                    for images in all_homs(H.as_group(), aut):
                        phi = dict(zip(H.members, images))
                        got = globalize_extension_by_zero(block, H, phi)
                        want = oracle_globalization.globalize_extension_by_zero(block, H, phi)
                        assert got.provenance == want.provenance
                        assert got.envelope == want.envelope
                        for g in G.elements():
                            assert got.action[g].position_map == want.action[g].position_map
                            assert got.action[g].twists == want.action[g].twists
                        assert got.embedding == want.embedding
                        assert got.checks == want.checks and got.checks.ok
                        cases += 1
        assert cases == 196


def two_class_candidate():
    """Z2 acting on a block of class A and one of class B, both with
    Aut = Z2, where only e acts, and its envelope as a candidate: blocks
    (e, 0), (e, 1), (1, 0) and (1, 1), the first two embedded."""
    G = cyclic_group(2)
    pa = AlgebraPartialAction(G, BlockAlgebra((Block("A", G), Block("B", G))))
    res = globalize_block_power(pa)
    return pa, {"envelope": res.envelope, "action": res.action, "embedding": res.embedding}


def _without_beta_1(candidate):
    return dict(candidate, action={0: candidate["action"][0]})


def _beta_1_on_zero(candidate):
    zero = candidate["envelope"].zero_ideal()
    return dict(candidate, action={**candidate["action"], 1: WreathMap(zero, zero, {}, {})})


def _embedding(position_map, twists):
    return lambda candidate: dict(
        candidate, embedding={"position_map": position_map, "twists": twists}
    )


# (id, mutation of the two-class candidate, the MalformedInput message or
# None, the witness of the ideal check)
ENVELOPE_FAULTS = [
    ("action misses an element", _without_beta_1,
     "action must assign a map to every group element", None),
    ("beta on part of the envelope", _beta_1_on_zero,
     "beta of 1 is not defined on the whole envelope", None),
    ("embedding misses a block", _embedding({0: 0}, {0: 0}), None,
     "embedding is not defined on every block"),
    ("block on another class", _embedding({0: 1, 1: 0}, {0: 0, 1: 0}), None,
     "block 0 lands on a block of another class"),
    ("missing twist", _embedding({0: 0, 1: 1}, {0: 0}), None,
     "twist at block 1 is missing or invalid"),
    ("twist out of range", _embedding({0: 0, 1: 1}, {0: 2, 1: 0}), None,
     "twist at block 0 is missing or invalid"),
]


# (id, a malformed candidate made from the two-class candidate, the
# MalformedInput message, which names the field at fault)
MALFORMED_CANDIDATES = [
    ("no embedding", lambda c: {k: v for k, v in c.items() if k != "embedding"},
     "candidate has no embedding"),
    ("no position map", lambda c: dict(c, embedding={"twists": {0: 0, 1: 0}}),
     "candidate embedding has no position_map"),
    ("position map None", lambda c: dict(c, embedding={"position_map": None, "twists": {}}),
     "embedding position_map is not a mapping"),
    ("twists None", lambda c: dict(c, embedding={"position_map": {0: 0, 1: 1}, "twists": None}),
     "embedding twists is not a mapping"),
    ("action value a dict", lambda c: dict(c, action={**c["action"], 1: {"position_map": {}}}),
     "candidate action of 1 is not a wreath map"),
    ("envelope 5", lambda c: dict(c, envelope=5), "candidate envelope is not a block algebra"),
    ("embedding 5", lambda c: dict(c, embedding=5),
     "candidate embedding is neither a wreath map nor a mapping"),
    ("no candidate", lambda c: object(), "candidate has no envelope"),
    ("unhashable image", _embedding({0: [0], 1: 1}, {0: 0, 1: 0}),
     "the embedding has an unhashable image"),
]


def orphan_block_candidate():
    """The extension by zero of Z2 acting trivially on one block from the
    trivial subgroup, its envelope, and a candidate whose envelope carries
    a third block fixed by Z2 that the orbit of the embedding misses."""
    z2 = cyclic_group(2)
    block = Block("L", z2)
    H = subgroup_closure(z2, [])
    res = globalize_extension_by_zero(block, H, {0: 0})
    pa = extend_by_zero_algebra(block, H, {0: 0})
    bigger = block_power(block, 3)
    full = bigger.full_ideal()
    action = {}
    for g in z2.elements():
        pm = dict(res.action[g].position_map)
        pm[2] = 2
        tw = dict(res.action[g].twists)
        tw[2] = 0
        action[g] = WreathMap(full, full, pm, tw)
    embedding = WreathMap(pa.algebra.full_ideal(), bigger.ideal({0}), {0: 0}, {0: 0})
    return pa, res, {"envelope": bigger, "action": action, "embedding": embedding}


class TestEquivalenceInputs:
    """globalizations_equivalent reads both results as verify_enveloping
    reads a candidate, plus their ``source``."""

    @pytest.mark.parametrize(
        "malformed,message",
        [f[1:] for f in MALFORMED_CANDIDATES],
        ids=[f[0] for f in MALFORMED_CANDIDATES],
    )
    @pytest.mark.parametrize("first", [False, True], ids=["second", "first"])
    def test_malformed_candidate_raises_naming_the_field(self, malformed, message, first):
        pa, candidate = two_class_candidate()
        pair = (globalize_block_power(pa), malformed(dict(candidate, source=pa)))
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            globalizations_equivalent(*(pair[::-1] if first else pair))

    def test_source_that_is_no_action_raises(self):
        pa, candidate = two_class_candidate()
        with pytest.raises(MalformedInput, match="^candidate has no source$"):
            globalizations_equivalent(globalize_block_power(pa), candidate)
        with pytest.raises(
            MalformedInput, match="^candidate source is not an algebra partial action$"
        ):
            globalizations_equivalent(dict(candidate, source=5), globalize_block_power(pa))

    def test_embedding_on_no_ideal_raises(self):
        pa, candidate = two_class_candidate()
        collapsed = dict(candidate, source=pa, embedding={"position_map": {0: 0, 1: 0},
                                                         "twists": {0: 0, 1: 0}})
        with pytest.raises(
            MalformedInput, match="^candidate embedding lands on no ideal: embedding collapses blocks$"
        ):
            globalizations_equivalent(globalize_block_power(pa), collapsed)

    def test_sources_over_different_groups_raise(self):
        results = [
            globalize_block_power(AlgebraPartialAction(cyclic_group(n), block_power(k_line_block(), 2)))
            for n in (2, 3)
        ]
        with pytest.raises(GroupMismatch, match="^envelopes are over different groups$"):
            globalizations_equivalent(*results)

    def test_sources_on_different_algebras_raise(self):
        G = cyclic_group(2)
        results = [
            globalize_block_power(AlgebraPartialAction(G, BlockAlgebra((Block(c, G),) * 2)))
            for c in ("A", "B")
        ]
        with pytest.raises(MalformedInput, match="^envelopes embed different algebras$"):
            globalizations_equivalent(*results)

    def test_different_block_counts_are_not_equivalent(self):
        pa, res, candidate = orphan_block_candidate()
        assert globalizations_equivalent(res, dict(candidate, source=pa)) is None


class TestVerifyEnveloping:
    @pytest.mark.parametrize(
        "malformed,message",
        [f[1:] for f in MALFORMED_CANDIDATES],
        ids=[f[0] for f in MALFORMED_CANDIDATES],
    )
    def test_malformed_candidate_raises_naming_the_field(self, malformed, message):
        pa, candidate = two_class_candidate()
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            verify_enveloping(pa, malformed(candidate))

    @pytest.mark.parametrize(
        "mutate,message,witness",
        [f[1:] for f in ENVELOPE_FAULTS],
        ids=[f[0] for f in ENVELOPE_FAULTS],
    )
    def test_faulty_candidate_is_rejected(self, mutate, message, witness):
        pa, candidate = two_class_candidate()
        assert verify_enveloping(pa, candidate).ok
        if message is not None:
            with pytest.raises(MalformedInput, match=f"^{message}$"):
                verify_enveloping(pa, mutate(candidate))
        else:
            report = verify_enveloping(pa, mutate(candidate))
            assert not check_item(report, "ideal").passed
            assert check_item(report, "ideal").witness == witness

    @pytest.mark.parametrize(
        "twists,block",
        [({0: 2, 1: 0}, 0), ({0: 0, 1: True}, 1), ({0: 0, 1: -1}, 1), ({0: 0}, 1)],
        ids=["out of range", "bool", "negative", "missing"],
    )
    def test_bad_embedding_twist_names_its_block_twice(self, twists, block):
        """An embedding given as a mapping whose twist at one block is no
        automorphism index fails the ideal check there, and the equivariance
        scan meets it first at the identity: the "groups" witness."""
        pa, candidate = two_class_candidate()
        report = verify_enveloping(pa, _embedding({0: 0, 1: 1}, twists)(candidate))
        assert [(item.name, item.passed, item.witness) for item in report.items] == [
            ("ideal", False, f"twist at block {block} is missing or invalid"),
            ("covers", True, None),
            ("intersection", True, None),
            ("equivariance", False, f"g=0, block {block}: twists live in different groups"),
        ]

    def test_bad_embedding_twist_met_first_at_a_moved_block(self):
        """With the identity at index 1, the scan meets beta_s first, and
        there the bad twist at block 0 is only the twist at the source of
        the path 0 -> 1: still the "groups" witness, not an IndexError."""
        G = make_group([[1, 0], [0, 1]], ["s", "e"])
        pa = lift_set_action(SetPartialAction(G, (0, 1), {0: [0, 1]}, {0: {0: 1, 1: 0}}))
        res = globalize_block_power(pa)
        pm = res.embedding.position_map
        candidate = {"envelope": res.envelope, "action": res.action,
                     "embedding": {"position_map": pm, "twists": {0: 1, 1: 0}}}
        report = verify_enveloping(pa, candidate)
        assert [(item.name, item.passed, item.witness) for item in report.items] == [
            ("ideal", False, "twist at block 0 is missing or invalid"),
            ("covers", True, None),
            ("intersection", True, None),
            ("equivariance", False, "g=s, block 0: twists live in different groups"),
        ]

    def test_pipeline_output_passes(self, quiver_setup):
        block, H, hom = quiver_setup
        res = globalize_extension_by_zero(block, H, hom)
        pa = extend_by_zero_algebra(block, H, hom)
        assert verify_enveloping(pa, res).ok

    def test_orphan_block_fails_covers(self):
        pa, _, candidate = orphan_block_candidate()
        report = verify_enveloping(pa, candidate)
        assert not check_item(report, "covers").passed
        assert check_item(report, "ideal").passed

    def test_collapsing_embedding_fails_ideal(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0, 1), domains={1: [0]}, maps={1: {0: 0}}))
        res = globalize_block_power(pa)
        bad_embedding = {"position_map": {0: 0, 1: 0}, "twists": {0: 0, 1: 0}}
        report = verify_enveloping(
            pa, {"envelope": res.envelope, "action": res.action, "embedding": bad_embedding}
        )
        assert not check_item(report, "ideal").passed

    def test_embedding_outside_the_envelope_is_reported(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0, 1), domains={1: [0]}, maps={1: {0: 0}}))
        res = globalize_block_power(pa)
        stray = {"position_map": {0: 0, 1: 7}, "twists": {0: 0, 1: 0}}
        report = verify_enveloping(
            pa, {"envelope": res.envelope, "action": res.action, "embedding": stray}
        )
        assert check_item(report, "ideal").witness == "embedding leaves the envelope"
        assert not any(item.passed for item in report.items)

    def test_changed_twist_fails_equivariance_only(self, quiver_setup, s3):
        # alpha_(12) loses its twist, so beta_(12) twists where alpha does
        # not; an embedding twist changed instead cannot fail, since the
        # block's automorphism group Z2 is abelian
        res = globalize_extension_by_zero(*quiver_setup)
        pa, swap = res.source, s3.element_by_name("(12)")
        w = pa.maps[swap]
        maps = {**pa.maps, swap: WreathMap(w.source, w.target, w.position_map, {0: 0})}
        untwisted = AlgebraPartialAction(s3, pa.algebra, pa.domains, maps)
        report = verify_enveloping(untwisted, res)
        assert [item.passed for item in report.items] == [True, True, True, False]
        assert check_item(report, "equivariance").witness == "g=(12), block 0"

    def test_wrong_restriction_fails_intersection(self, z2):
        # envelope of the empty-domain action used as a candidate for the
        # full swap action: embedded S_sigma does not match the intersection
        algebra = block_power(k_line_block(), 1)
        full = algebra.full_ideal()
        empty = AlgebraPartialAction(z2, algebra)
        res = globalize_block_power(empty)
        swap_action = AlgebraPartialAction(
            z2, algebra, {0: full, 1: full}, {1: wreath_identity(full)}
        )
        report = verify_enveloping(
            pa=swap_action,
            candidate={"envelope": res.envelope, "action": res.action, "embedding": res.embedding},
        )
        assert not check_item(report, "intersection").passed


class TestEnvelopeBlockCount:
    def test_global_action(self, z4):
        block = Block("L", cyclic_group(2))
        pa = extend_by_zero_algebra(block, whole_group(z4), {0: 0, 1: 1, 2: 0, 3: 1})
        assert globalize_block_power(pa).block_count == 1

    def test_quiver_example(self, quiver_setup):
        block, H, hom = quiver_setup
        assert globalize_block_power(extend_by_zero_algebra(block, H, hom)).block_count == 3

    def test_trivial_subgroup_z4(self, z4):
        block = Block("L", cyclic_group(2))
        H = subgroup_closure(z4, [])
        assert globalize_block_power(extend_by_zero_algebra(block, H, {0: 0})).block_count == 4


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
S3_RELABELLED = Path(__file__).parent / "data" / "group_s3_relabelled.json"


class TestIndecomposableCase:
    """The paper's first result, over every single-block action: each is the
    extension by zero of a global action of the subgroup H where it is
    global, and its envelope has [G:H] blocks, one exactly when the action
    is global."""

    @pytest.mark.parametrize("G", [
        *(cyclic_group(n) for n in range(2, 7)),
        make_group(KLEIN),
        symmetric_group(3),
        parse_group(json.loads(S3_RELABELLED.read_text())),
    ], ids=["Z2", "Z3", "Z4", "Z5", "Z6", "K4", "S3", "S3 relabelled"])
    @pytest.mark.parametrize("aut", [1, 2, 3], ids=["Aut 1", "Aut Z2", "Aut Z3"])
    def test_every_action_is_an_extension_by_zero(self, G, aut):
        block = Block("B", cyclic_group(aut))
        actions = enumerate_algebra_partial_actions(G, 1, block)
        assert actions
        for pa in actions:
            H, hom = classify_indecomposable(pa)
            assert extend_by_zero_algebra(block, H, hom) == pa
            result = globalize_extension_by_zero(block, H, hom)
            assert result.block_count == G.order // H.order
            is_global = all(pa.support(g) for g in G.elements())
            assert (result.block_count == 1) == is_global
            assert globalizations_equivalent(result, globalize_block_power(pa)) is not None


ENUMERATED_GROUPS = {
    **{f"Z{n}": cyclic_group(n) for n in range(1, 7)},
    "K4": make_group(KLEIN),
    "S3": symmetric_group(3),
    "S3 relabelled": parse_group(json.loads(S3_RELABELLED.read_text())),
}


class TestOneMoveTable:
    """The set envelope and the block-power envelope are read off one move
    table: on scalar-line blocks, ``globalize_block_power`` of the lift has
    the position maps, provenance pairs and embedding of ``globalize_set``."""

    @pytest.mark.parametrize("size", range(4))
    @pytest.mark.parametrize("name", ENUMERATED_GROUPS)
    def test_lift_has_the_set_envelope(self, name, size):
        G = ENUMERATED_GROUPS[name]
        actions = enumerate_partial_actions(G, size)
        assert actions
        for a in actions:
            sg = globalize_set(a)
            if not size:  # no algebra has zero blocks
                assert sg.size == 0 and sg.embedding == {}
                with pytest.raises(MalformedInput, match="^need at least one copy$"):
                    lift_set_action(a)
                continue
            res = globalize_block_power(lift_set_action(a))
            for g in G.elements():
                assert res.action[g].position_map == sg.envelope.maps[g]
            assert res.provenance == tuple((G.name(t), x) for t, x in sg.orbit_witness)
            assert res.embedding.position_map == sg.embedding


class TestSplitProduct:
    def _two_component_action(self, z2):
        left = Block("L", cyclic_group(2))
        a1 = enumerate_algebra_partial_actions(z2, 2, left)[5]
        a2 = lift_set_action(SetPartialAction(z2, (0,), domains={1: [0]}, maps={1: {0: 0}}))
        return a1, a2

    def test_single_class_is_singleton(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0, 1)))
        parts = split_partial_action(pa)
        assert len(parts) == 1 and parts[0] == pa

    def test_split_product_round_trip(self, z2):
        a1, a2 = self._two_component_action(z2)
        combined = product_partial_action([a1, a2])
        parts = split_partial_action(combined)
        assert parts == [a1, a2]

    def test_zero_domains_split(self, z2):
        combined = product_partial_action(
            [
                AlgebraPartialAction(z2, block_power(Block("L", cyclic_group(2)), 2)),
                AlgebraPartialAction(z2, block_power(k_line_block(), 1)),
            ]
        )
        parts = split_partial_action(combined)
        assert all(not p.support(1) for p in parts)

    def test_group_mismatch(self, z2, z3):
        a = AlgebraPartialAction(z2, block_power(k_line_block(), 1))
        b = AlgebraPartialAction(z3, block_power(Block("L", cyclic_group(2)), 1))
        with pytest.raises(GroupMismatch):
            product_partial_action([a, b])

    def test_non_contiguous_classes_rejected(self, z2):
        blocks = (k_line_block(), Block("L", cyclic_group(2)), k_line_block())
        pa = AlgebraPartialAction(z2, BlockAlgebra(blocks))
        with pytest.raises(MalformedInput):
            split_partial_action(pa)

    def test_split_inverts_product_on_mixed_classes(self, z4):
        """Every pair of a Z2-twisted action on two blocks and a Z3-twisted
        action on one, with and without a scalar line after them."""
        twisted = enumerate_algebra_partial_actions(z4, 2, Block("Q", cyclic_group(2)))
        third = enumerate_algebra_partial_actions(z4, 1, Block("R", cyclic_group(3)))
        line = lift_set_action(enumerate_partial_actions(z4, 1)[-1])
        for a, b in itertools.product(twisted, third):
            assert split_partial_action(product_partial_action([a, b])) == [a, b]
            assert split_partial_action(product_partial_action([a, b, line])) == [a, b, line]

    def test_map_short_of_its_source_domain_raises(self, z2):
        """The map of 1 misses block 1 of S_1 = S_{1^-1}: the K component's
        map is rejected by ``WreathMap`` (this used to leak KeyError)."""
        algebra = BlockAlgebra((Block("L", cyclic_group(2)), k_line_block()))
        half = algebra.ideal({0})
        pa = AlgebraPartialAction(
            z2, algebra, {1: algebra.full_ideal()}, {1: WreathMap(half, half, {0: 0}, {0: 1})}
        )
        with pytest.raises(MalformedInput, match="position map keys must be exactly the source"):
            split_partial_action(pa)


class TestRestrictLift:
    def test_lift_then_restrict_is_identity(self, z2):
        for spa in enumerate_partial_actions(z2, 2):
            assert restrict_to_idempotents(lift_set_action(spa)) == spa

    def test_restrict_then_lift_is_identity_on_line_actions(self, z2):
        for spa in enumerate_partial_actions(z2, 2):
            pa = lift_set_action(spa)
            assert lift_set_action(restrict_to_idempotents(pa)) == pa

    def test_global_action_restricts_globally(self, z2):
        algebra = block_power(Block("L", cyclic_group(2)), 2)
        full = algebra.full_ideal()
        swap = WreathMap(full, full, {0: 1, 1: 0}, {0: 1, 1: 1})
        pa = AlgebraPartialAction(z2, algebra, {0: full, 1: full}, {1: swap})
        gamma = restrict_to_idempotents(pa)
        assert all(gamma.domains[g] == {0, 1} for g in z2.elements())
        assert gamma.maps[1] == {0: 1, 1: 0}

    def test_quiver_restriction_is_single_point(self, quiver_setup, s3):
        block, H, hom = quiver_setup
        pa = extend_by_zero_algebra(block, H, hom)
        gamma = restrict_to_idempotents(pa)
        assert gamma.carrier == (0,)
        assert gamma.domains[1] == frozenset({0})
        assert gamma.domains[2] == frozenset()


class TestGlobalizeBlockPower:
    def test_single_block_agrees_with_extension_pipeline(self, quiver_setup, s3):
        block, H, hom = quiver_setup
        via_extension = globalize_extension_by_zero(block, H, hom)
        via_power = globalize_block_power(extend_by_zero_algebra(block, H, hom))
        assert via_power.block_count == via_extension.block_count
        for g in s3.elements():
            assert via_power.action[g] == via_extension.action[g]
        assert via_power.embedding == via_extension.embedding
        assert globalizations_equivalent(via_extension, via_power) is not None

    def test_global_action_is_its_own_envelope(self, z2):
        algebra = block_power(Block("L", cyclic_group(2)), 2)
        full = algebra.full_ideal()
        swap = WreathMap(full, full, {0: 1, 1: 0}, {0: 1, 1: 1})
        pa = AlgebraPartialAction(z2, algebra, {0: full, 1: full}, {1: swap})
        res = globalize_block_power(pa)
        assert res.block_count == 2
        assert res.action[1].position_map == {0: 1, 1: 0}
        assert res.action[1].twists == {0: 1, 1: 1}

    def test_half_domain_line_action(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0, 1), domains={1: [0]}, maps={1: {0: 0}}))
        res = globalize_block_power(pa)
        assert res.block_count == 3

    def test_mixed_classes_globalize(self, z2, tmp_path, capsys):
        twisted = enumerate_algebra_partial_actions(z2, 2, Block("L", cyclic_group(2)))
        lines = [lift_set_action(spa) for spa in enumerate_partial_actions(z2, 2)]
        for a, b in itertools.product(twisted, lines):
            res = globalize_block_power(product_partial_action([a, b]))
            assert res.checks.ok
            parts = globalize_block_power(a).block_count + globalize_block_power(b).block_count
            assert res.block_count == parts
        doc = {
            "version": "1",
            "actions": {"mixed": algebra_action_to_doc(product_partial_action([a, b]))},
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["globalize", str(path), "--format", "json"]) == 0
        assert all(json.loads(capsys.readouterr().out)["checks"].values())

    def test_twist_transport_conflict_surfaces(self, z2):
        # an order-two element acting with an order-four twist is invalid;
        # the conflict must raise, not be absorbed
        algebra = block_power(Block("L", cyclic_group(4)), 1)
        full = algebra.full_ideal()
        quarter_turn = WreathMap(full, full, {0: 0}, {0: 1})
        pa = AlgebraPartialAction(z2, algebra, {0: full, 1: full}, {1: quarter_turn})
        with pytest.raises(TwistTransportConflict):
            globalize_block_power(pa)

    def test_twisted_inputs_all_verify(self, z3):
        block = Block("L", cyclic_group(3))
        for pa in enumerate_algebra_partial_actions(z3, 2, block):
            res = globalize_block_power(pa)
            assert res.checks.ok
            assert res.block_count <= 2 * z3.order


class TestGlobalizeKBlocks:
    """globalize_block_power on scalar-line (K) blocks, whose envelope is the
    set envelope of the idempotent restriction with identity twists."""

    def test_global_input_unchanged(self, z2):
        spa = SetPartialAction(z2, (0, 1), domains={1: [0, 1]}, maps={1: {0: 1, 1: 0}})
        pa = lift_set_action(spa)
        res = globalize_block_power(pa)
        assert res.block_count == 2

    def test_single_point_zero_domain(self, z2):
        pa = lift_set_action(SetPartialAction(z2, (0,)))
        res = globalize_block_power(pa)
        assert res.block_count == 2
        assert res.action[1].position_map == {0: 1, 1: 0}

    GROUPS = (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3))

    def enumerated(self):
        for G, n in itertools.product(self.GROUPS, (1, 2, 3)):
            for spa in enumerate_partial_actions(G, n):
                yield G, n, spa

    def test_all_enumerated_actions(self):
        checked = 0
        for G, n, spa in self.enumerated():
            res = globalize_block_power(lift_set_action(spa))
            assert res.checks.ok
            assert res.block_count <= n * G.order
            checked += 1
        assert checked == 648

    def test_agrees_with_block_power(self):
        # the set envelope of the idempotent restriction, with identity
        # twists, is what globalize_block_power builds on K blocks
        for G, _, spa in self.enumerated():
            res = globalize_block_power(lift_set_action(spa))
            sg = globalize_set(spa)
            assert res.block_count == sg.size
            assert res.provenance == tuple((G.name(t), x) for t, x in sg.orbit_witness)
            assert res.embedding.position_map == sg.embedding
            for g in G.elements():
                assert res.action[g].position_map == sg.envelope.maps[g]
                assert set(res.action[g].twists.values()) <= {0}


TWISTED_CASES = [(cyclic_group(k), n) for k in (2, 3, 4) for n in (1, 2, 3)] + [
    (symmetric_group(3), n) for n in (1, 2)
]


def retwisted_copies(pa):
    """One copy of pa per nonempty map, with the twist at its first position
    multiplied by a generator of the automorphism group."""
    out = []
    for g in pa.group.elements():
        w = pa.maps[g]
        if w.twists:
            p = min(w.twists)
            aut = pa.algebra.blocks[p].aut_group
            twists = dict(w.twists)
            twists[p] = aut.mul(twists[p], aut.generators[0])
            maps = dict(pa.maps)
            maps[g] = WreathMap(w.source, w.target, w.position_map, twists)
            out.append(AlgebraPartialAction(pa.group, pa.algebra, pa.domains, maps))
    return out


def assert_envelope_twists_match_oracle(pa, sg):
    """The envelope of pa twists beta_g at the block of each witness (t, x)
    of sg, the set envelope of pa's idempotent restriction, by
    oracle(gt, x) oracle(t, x)^-1, from the transport that the breadth-first
    walk of ``oracle_globalization`` assigns to each pair."""
    G = pa.group
    res = globalize_block_power(pa)
    assert res.provenance == tuple((G.name(t), x) for t, x in sg.orbit_witness)
    oracle = oracle_globalization.transport_twists(pa, sg)
    for c, (t, x) in enumerate(sg.orbit_witness):
        aut = pa.algebra.blocks[x].aut_group
        back = aut.inv(oracle[(t, x)])
        for g in G.elements():
            assert res.action[g].twists[c] == aut.mul(oracle[(G.mul(g, t), x)], back)


class TestTwistTransport:
    """The envelope's twists, T_c' phi(b_c'^-1 g b_c) T_c^-1 from one
    anchor per block, against the ratios of the breadth-first transport
    kept in ``oracle_globalization``: the oracle seeds each class as the
    package anchors it, so the twists must agree exactly, not only up to
    an equivalence."""

    @pytest.mark.parametrize("aut_order", [2, 3])
    def test_matches_breadth_first_oracle(self, aut_order):
        block = Block("L", cyclic_group(aut_order))
        checked = 0
        for G, n in TWISTED_CASES:
            for pa in enumerate_algebra_partial_actions(G, n, block):
                assert_envelope_twists_match_oracle(pa, globalize_set(restrict_to_idempotents(pa)))
                checked += 1
        assert checked == {2: 594, 3: 542}[aut_order]

    def test_matches_oracle_when_the_identity_is_not_element_0(self):
        # each embedded class is anchored at its pair (e, x), which is then
        # not its lexicographically least pair
        block = Block("L", cyclic_group(2))
        for G in (relabelled(cyclic_group(4)), relabelled(symmetric_group(3))):
            assert G.identity != 0
            for pa in enumerate_algebra_partial_actions(G, 2, block):
                spa = restrict_to_idempotents(pa)
                sg = globalize_set(spa)
                expected = oracle_globalization.globalize_set(spa)
                assert oracle_globalization.same_globalization(sg, expected)
                assert_envelope_twists_match_oracle(pa, sg)

    def test_raises_exactly_on_non_actions(self):
        block = Block("L", cyclic_group(3))
        raised = 0
        for G, n in TWISTED_CASES:
            if n == 3:
                continue
            for pa in enumerate_algebra_partial_actions(G, n, block):
                for copy in retwisted_copies(pa):
                    try:
                        res = globalize_block_power(copy)
                    except TwistTransportConflict:
                        assert not verify_algebra_partial_action(copy).ok
                        raised += 1
                    else:
                        assert verify_algebra_partial_action(copy).ok and res.checks.ok
        assert raised > 0

    def test_path_twist_disagreeing_with_phi_raises(self, z2):
        # alpha_1 swaps two blocks with twist 1 one way and the identity
        # back: phi is trivial on H = {e}, so tau_1(1) must be tau_1(0)^-1
        algebra = block_power(Block("L", cyclic_group(3)), 2)
        full = algebra.full_ideal()
        swap = WreathMap(full, full, {0: 1, 1: 0}, {0: 1, 1: 0})
        pa = AlgebraPartialAction(z2, algebra, {0: full, 1: full}, {1: swap})
        with pytest.raises(TwistTransportConflict, match="twist of alpha_"):
            globalize_block_power(pa)


class TestOneOrbitComputation:
    """globalize_block_power computes the orbit data once, twists included,
    and still reports position faults as MalformedInput before any twist
    fault, as the set envelope of its idempotent restriction would."""

    @staticmethod
    def z4_action(fixed_by_square):
        # Z4 on three Z3-blocks: alpha_2 fixes block 0 with twist 1, so phi
        # on the stabilizer {0, 2} of block 0 is no homomorphism into Z3
        # (a twist fault in the first orbit); alpha_1 moves block 1 to 2.
        # With ``fixed_by_square`` alpha_2 also fixes block 1, which alpha_1
        # moves: a position fault, found only after the first orbit.
        G = cyclic_group(4)
        algebra = block_power(Block("L", cyclic_group(3)), 3)
        square = {0: 0, 1: 1} if fixed_by_square else {0: 0}
        maps = {
            1: WreathMap(algebra.ideal({1}), algebra.ideal({2}), {1: 2}, {1: 0}),
            3: WreathMap(algebra.ideal({2}), algebra.ideal({1}), {2: 1}, {2: 0}),
            2: WreathMap(algebra.ideal(square), algebra.ideal(square), square,
                         {p: int(p == 0) for p in square}),
        }
        domains = {g: w.target for g, w in maps.items()}
        return AlgebraPartialAction(G, algebra, domains, maps)

    def test_position_fault_wins_over_an_earlier_twist_fault(self):
        pa = self.z4_action(fixed_by_square=True)
        with pytest.raises(MalformedInput) as exc:
            globalize_block_power(pa)
        with pytest.raises(MalformedInput) as set_exc:
            globalize_set(restrict_to_idempotents(pa))
        assert str(exc.value) == str(set_exc.value)

    def test_twist_fault_alone_raises_a_conflict(self):
        pa = self.z4_action(fixed_by_square=False)
        globalize_set(restrict_to_idempotents(pa))  # the positions are an action
        with pytest.raises(TwistTransportConflict, match="not a homomorphism"):
            globalize_block_power(pa)

    def test_position_and_twist_faults_raise_as_the_set_envelope(self):
        # copies with two images swapped in one map (and the twist at its
        # first position changed) against the set envelope of their positions
        block = Block("L", cyclic_group(3))
        raised = 0
        for G, n in TWISTED_CASES:
            if n == 1:
                continue
            for pa in enumerate_algebra_partial_actions(G, n, block)[::5]:
                for g in G.elements():
                    w = pa.maps[g]
                    if len(w.position_map) < 2:
                        continue
                    p, q = sorted(w.position_map)[:2]
                    pm = dict(w.position_map)
                    pm[p], pm[q] = pm[q], pm[p]
                    tw = dict(w.twists)
                    tw[p] = block.aut_group.mul(tw[p], 1)
                    maps = dict(pa.maps)
                    maps[g] = WreathMap(w.source, w.target, pm, tw)
                    copy = AlgebraPartialAction(G, pa.algebra, pa.domains, maps)
                    try:
                        globalize_set(restrict_to_idempotents(copy))
                    except MalformedInput as set_exc:
                        with pytest.raises(MalformedInput) as exc:
                            globalize_block_power(copy)
                        assert str(exc.value) == str(set_exc)
                        raised += 1
        assert raised > 0

    def test_orbit_data_runs_once_per_call(self, monkeypatch):
        calls = []
        real = algebra_actions._orbit_data

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(algebra_actions, "_orbit_data", counted)
        monkeypatch.setattr(set_actions, "_orbit_data", counted)
        block = Block("L", cyclic_group(2))
        pas = enumerate_algebra_partial_actions(symmetric_group(3), 2, block)[::9]
        calls.clear()  # enumeration reads orbit data too
        for pa in pas:
            before = len(calls)
            assert globalize_block_power(pa).checks.ok
            assert len(calls) == before + 1


class TestCertificate:
    """verify_algebra_partial_action decides validity from orbit data, twists
    included; its reports must equal the ones the axiom scan alone builds."""

    @pytest.mark.parametrize("aut_order", [2, 3])
    def test_reports_match_the_scan(self, aut_order):
        block = Block("L", cyclic_group(aut_order))
        verdicts = Counter()
        for G, n in TWISTED_CASES:
            if n == 3:
                continue
            for pa in enumerate_algebra_partial_actions(G, n, block):
                for candidate in [pa] + retwisted_copies(pa):
                    report = verify_algebra_partial_action(candidate).to_dict()
                    scanned = oracle_checks.scanned_report(verify_algebra_partial_action, candidate)
                    assert report == scanned.to_dict()
                    verdicts[report["ok"]] += 1
        assert verdicts == {2: {True: 336, False: 654}, 3: {True: 173, False: 624}}[aut_order]

    def test_identity_with_a_twist(self, z2):
        algebra = block_power(Block("L", cyclic_group(2)), 2)
        full = algebra.full_ideal()
        twisted_e = WreathMap(full, full, {0: 0, 1: 1}, {0: 0, 1: 1})
        pa = AlgebraPartialAction(z2, algebra, {0: full}, {0: twisted_e})
        report = verify_algebra_partial_action(pa)
        assert report.to_dict() == oracle_checks.scanned_report(
            verify_algebra_partial_action, pa
        ).to_dict()
        assert not report.items[0].passed
        assert report.items[0].witness == "alpha_e is not the identity map"


class TestEquivalenceSearch:
    def test_conjugated_envelope_is_equivalent(self, quiver_setup, s3):
        from partial_actions.algebra_actions import GlobalizationResult
        from partial_actions.block_algebras import wreath_compose

        block, H, hom = quiver_setup
        original = globalize_extension_by_zero(block, H, hom)
        pa = original.source
        full = original.envelope.full_ideal()
        # relabel the envelope through a nontrivial wreath map
        conjugator = WreathMap(full, full, {0: 2, 1: 0, 2: 1}, {0: 1, 1: 0, 2: 1})
        action = {
            g: wreath_compose(
                wreath_compose(conjugator, original.action[g]), wreath_inverse(conjugator)
            )
            for g in s3.elements()
        }
        emb = original.embedding
        pm = {p: conjugator.position_map[q] for p, q in emb.position_map.items()}
        aut = block.aut_group
        tw = {
            p: aut.mul(conjugator.twists[q], emb.twists[p])
            for p, q in emb.position_map.items()
        }
        embedding = WreathMap(
            emb.source, original.envelope.ideal(pm.values()), pm, tw
        )
        checks = verify_enveloping(
            pa, {"envelope": original.envelope, "action": action, "embedding": embedding}
        )
        assert checks.ok
        relabeled = GlobalizationResult(
            pa, original.envelope, original.provenance, action, embedding, checks
        )
        iso = globalizations_equivalent(original, relabeled)
        assert iso is not None
        assert not iso.is_identity()

    def test_untwisted_envelope_of_equal_size_is_not_equivalent(self, quiver_setup):
        # the coset action without its twists is a global action on three
        # blocks, but at block 0 beta_(12) twists in one and not the other
        res = globalize_extension_by_zero(*quiver_setup)
        action = {
            g: WreathMap(w.source, w.target, w.position_map, dict.fromkeys(w.twists, 0))
            for g, w in res.action.items()
        }
        candidate = {"source": res.source, "envelope": res.envelope, "action": action,
                     "embedding": res.embedding}
        assert globalizations_equivalent(res, candidate) is None

    def test_invalid_search_result_raises(self, quiver_setup, monkeypatch):
        # a twist outside Aut(block) is a bug in the search, not a verdict
        result = globalize_extension_by_zero(*quiver_setup)
        bogus = ({0: 0, 1: 1, 2: 2}, {0: 0, 1: 0, 2: 5})
        monkeypatch.setattr(algebra_actions, "_equivariant_bijection", lambda *args: bogus)
        with pytest.raises(InternalInconsistency):
            globalizations_equivalent(result, result)


class TestPositionData:
    @pytest.mark.parametrize("aut_order", [2, 3])
    def test_constructor_inverts_position_data(self, aut_order):
        """Every action of every group of order <= 4 on 1-3 blocks comes back
        from its supports, position maps and twists."""
        block = Block("L", cyclic_group(aut_order))
        klein = make_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
        for G in (*(cyclic_group(k) for k in (1, 2, 3, 4)), klein):
            for n in (1, 2, 3):
                for pa in enumerate_algebra_partial_actions(G, n, block):
                    supports, maps, twists, _ = algebra_actions._position_data(pa)
                    rebuilt = algebra_actions._from_position_data(
                        G, pa.algebra, supports, maps, twists
                    )
                    assert rebuilt == pa


class TestEnumerateAlgebraActions:
    def test_single_block_counts_match_subgroup_hom_oracle(self, s3):
        aut = cyclic_group(2)
        block = Block("L", aut)
        actions = enumerate_algebra_partial_actions(s3, 1, block)
        expected = sum(len(all_homs(H.as_group(), aut)) for H in all_subgroups(s3))
        assert len(actions) == expected == 10

    def test_outputs_verify_and_are_distinct(self, z4):
        block = Block("L", cyclic_group(2))
        actions = enumerate_algebra_partial_actions(z4, 2, block)
        for pa in actions:
            assert verify_algebra_partial_action(pa).ok
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                assert a != b

    def test_line_block_reduces_to_set_enumeration(self, z2):
        actions = enumerate_algebra_partial_actions(z2, 2, k_line_block())
        assert len(actions) == len(enumerate_partial_actions(z2, 2))

    @pytest.mark.parametrize("aut_order", [2, 3])
    def test_matches_brute_force_oracle(self, aut_order):
        """Same list in the same order as the product-and-filter oracle."""
        block = Block("L", cyclic_group(aut_order))
        cases = [(cyclic_group(k), n) for k in (2, 3, 4) for n in (1, 2, 3)]
        cases += [(symmetric_group(3), n) for n in (1, 2)]
        klein = make_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
        cases += [(klein, 2), (relabelled(symmetric_group(3)), 2)]
        for G, n in cases:
            expected = brute_force_algebra_partial_actions(G, n, block)
            assert enumerate_algebra_partial_actions(G, n, block) == expected

    def test_twists_follow_positions_not_map_key_order(self, z2, z4):
        block = Block("L", cyclic_group(2))
        forward = SetPartialAction(z2, (0, 1), {1: [0, 1]}, {1: {0: 0, 1: 1}})
        lifts = algebra_actions._twisted_lifts(forward, block_power(block, 2), {})
        assert [tuple(pa.maps[1].twists[p] for p in (0, 1)) for pa in lifts] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        algebra = block_power(block, 3)
        for spa in enumerate_partial_actions(z4, 3):
            backward = SetPartialAction(
                z4, spa.carrier, spa.domains,
                {g: dict(reversed(m.items())) for g, m in spa.maps.items()},
            )
            assert backward == spa
            expected = algebra_actions._twisted_lifts(spa, algebra, {})
            assert algebra_actions._twisted_lifts(backward, algebra, {}) == expected
