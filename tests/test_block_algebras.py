import itertools

import pytest
from conftest import ideals_isomorphic, make_ideal_iso, wreath_inverse
from hypothesis import given, settings, strategies as st
from oracle_checks import wreath_composite

from partial_actions.block_algebras import (
    Block,
    BlockAlgebra,
    block_power,
    decompose_isotypic,
    k_line_block,
    symbolic_basis,
    wreath_apply,
    wreath_compose,
    wreath_identity,
    WreathMap,
)
from partial_actions.errors import (
    ClassMismatch,
    CompositionMismatch,
    MalformedInput,
    SupportViolation,
)
from partial_actions.groups import cyclic_group, make_group, symmetric_group


@pytest.fixture
def k3():
    return block_power(k_line_block(), 3)


@pytest.fixture
def lambda_z2():
    return Block("L", cyclic_group(2))


class TestIdeals:
    def test_psi_zero(self, k3):
        assert k3.zero_ideal().support == frozenset()

    def test_psi_full(self, k3):
        assert k3.full_ideal().support == frozenset({0, 1, 2})

    def test_psi_partial_support(self, k3):
        assert k3.ideal({0, 2}).support == frozenset({0, 2})

    def test_isomorphic_by_cardinality(self, k3):
        assert ideals_isomorphic(k3.ideal({0}), k3.ideal({2}))

    def test_isomorphic_reflexive(self, k3):
        ideal = k3.ideal({1, 2})
        assert ideals_isomorphic(ideal, ideal)

    def test_not_isomorphic_sizes(self, k3):
        assert not ideals_isomorphic(k3.ideal({0}), k3.ideal({0, 1}))

    def test_equivalence_relation_on_line_algebra(self, k3):
        ideals = [k3.ideal(s) for r in range(4) for s in itertools.combinations(range(3), r)]
        for a in ideals:
            assert ideals_isomorphic(a, a)
            for b in ideals:
                assert ideals_isomorphic(a, b) == ideals_isomorphic(b, a)
                for c in ideals:
                    if ideals_isomorphic(a, b) and ideals_isomorphic(b, c):
                        assert ideals_isomorphic(a, c)

    def test_mixed_classes_require_matching_multisets(self, lambda_z2):
        algebra = BlockAlgebra((lambda_z2, lambda_z2, k_line_block()))
        assert not ideals_isomorphic(algebra.ideal({0}), algebra.ideal({2}))
        assert ideals_isomorphic(algebra.ideal({0}), algebra.ideal({1}))

    def test_out_of_range_support(self, k3):
        with pytest.raises(MalformedInput):
            k3.ideal({5})


class TestMakeIdealIso:
    def test_identity(self, k3):
        iso = make_ideal_iso(k3.ideal({0, 1}), k3.ideal({0, 1}), {0: 0, 1: 1})
        assert iso.is_identity()

    def test_relabeling(self, k3):
        iso = make_ideal_iso(k3.ideal({0}), k3.ideal({2}), {0: 2})
        out = wreath_apply(iso, {0: "a"})
        assert out == {2: (0, "a")}

    def test_class_mismatch(self, lambda_z2):
        algebra = BlockAlgebra((lambda_z2, k_line_block()))
        with pytest.raises(ClassMismatch):
            make_ideal_iso(algebra.ideal({0}), algebra.ideal({1}), {0: 1})

    def test_non_bijection_rejected(self, k3):
        with pytest.raises(MalformedInput):
            make_ideal_iso(k3.ideal({0, 1}), k3.ideal({0, 1}), {0: 0, 1: 0})


class TestWreathApply:
    def test_identity_map(self, lambda_z2):
        algebra = block_power(lambda_z2, 2)
        w = wreath_identity(algebra.full_ideal())
        elem = symbolic_basis(algebra.full_ideal())
        assert wreath_apply(w, elem) == elem

    def test_swap_without_twists(self, lambda_z2):
        algebra = block_power(lambda_z2, 2)
        full = algebra.full_ideal()
        w = WreathMap(full, full, {0: 1, 1: 0}, {0: 0, 1: 0})
        out = wreath_apply(w, {0: "a", 1: "b"})
        assert out == {1: (0, "a"), 0: (0, "b")}

    def test_swap_with_twists(self, lambda_z2):
        algebra = block_power(lambda_z2, 2)
        full = algebra.full_ideal()
        w = WreathMap(full, full, {0: 1, 1: 0}, {0: 1, 1: 1})
        out = wreath_apply(w, {0: "a"})
        assert out == {1: (1, "a")}

    def test_twists_accumulate(self, lambda_z2):
        algebra = block_power(lambda_z2, 1)
        full = algebra.full_ideal()
        w = WreathMap(full, full, {0: 0}, {0: 1})
        once = wreath_apply(w, {0: "a"})
        twice = wreath_apply(w, once)
        assert once == {0: (1, "a")}
        assert twice == {0: (0, "a")}  # the twist has order two

    def test_bare_symbol_is_untwisted_when_the_identity_is_not_element_0(self):
        # element 1 is the identity of this Z2; a bare symbol used to be read
        # as twist 0, the token twisted by s
        z2r = make_group([[1, 0], [0, 1]], ["s", "e"])
        algebra = BlockAlgebra((Block("Q", z2r),))
        w = wreath_identity(algebra.full_ideal())
        assert symbolic_basis(algebra.full_ideal()) == {0: (1, "x0")}
        assert wreath_apply(w, {0: "x0"}) == {0: (1, "x0")}
        assert wreath_apply(w, {0: (0, "x0")}) == {0: (0, "x0")}

    def test_support_violation(self, lambda_z2):
        algebra = block_power(lambda_z2, 2)
        w = WreathMap(algebra.ideal({0}), algebra.ideal({0}), {0: 0}, {0: 0})
        with pytest.raises(SupportViolation):
            wreath_apply(w, {1: "b"})


# one class of a nonabelian automorphism group, so that the order of the
# twists' product counts, one of Z3 and one scalar line
_BLOCKS = (Block("L", symmetric_group(3)), Block("M", cyclic_group(3)), k_line_block())


@st.composite
def composable_maps(draw):
    """(w2, w1, kind) with w1.target == w2.source.  Each map moves the
    blocks of its algebra by a drawn permutation into the next algebra:
    the same object, or an equal copy, when the permutation keeps every
    class, else the permuted algebra.  The source is a drawn support, the
    zero ideal included, and the twists are drawn.  ``kind`` names the
    case."""
    n = draw(st.integers(1, 5))
    classes = draw(st.sampled_from(["one class", "mixed classes"]))
    pool = _BLOCKS[:1] if classes == "one class" else _BLOCKS
    algebras = [BlockAlgebra(tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))]
    perms = []
    for _ in range(2):
        perm = draw(st.permutations(range(n)))
        blocks = [None] * n
        for p, q in enumerate(perm):
            blocks[q] = algebras[-1].blocks[p]
        same = tuple(blocks) == algebras[-1].blocks and draw(st.booleans())
        algebras.append(algebras[-1] if same else BlockAlgebra(tuple(blocks)))
        perms.append(perm)
    support = draw(st.sets(st.integers(0, n - 1)))
    maps = []
    for a, b, perm in zip(algebras, algebras[1:], perms):
        keys = draw(st.permutations(sorted(support)))  # the constructor sorts them
        twists = {p: draw(st.integers(0, a.blocks[p].aut_group.order - 1)) for p in keys}
        maps.append(WreathMap(a.ideal(support), b.ideal({perm[p] for p in support}),
                              {p: perm[p] for p in keys}, twists))
        support = {perm[p] for p in support}
    between = "one algebra" if algebras[0] is algebras[2] else "two algebras"
    kind = (classes, between, "zero ideal" if not maps[0].source.support else "nonzero")
    return maps[1], maps[0], kind


class TestWreathCompose:
    @settings(max_examples=200, deadline=None)
    @given(composable_maps())
    def test_matches_the_constructor_built_composite(self, drawn):
        """``wreath_compose`` builds its composite unchecked; the oracle
        builds it through the constructor, which would refuse a broken one.
        The two agree in value and in the order of their keys."""
        w2, w1, _ = drawn
        got, want = wreath_compose(w2, w1), wreath_composite(w2, w1)
        assert type(got) is WreathMap
        assert got == want
        assert list(got.position_map) == list(want.position_map)
        assert list(got.twists) == list(want.twists)
        assert got.source is w1.source and got.target is w2.target

    def test_drawn_maps_cover_every_kind(self):
        """The strategy reaches mixed classes, maps between two algebras
        and the zero ideal, each with and without the others."""
        kinds = set()

        @settings(max_examples=200, deadline=None, database=None)
        @given(composable_maps())
        def collect(drawn):
            kinds.add(drawn[2])

        collect()
        for part in ("one class", "mixed classes", "one algebra", "two algebras",
                     "zero ideal", "nonzero"):
            assert any(part in kind for kind in kinds), part
        assert ("mixed classes", "two algebras", "nonzero") in kinds

    def test_compose_with_identity(self, lambda_z2):
        algebra = block_power(lambda_z2, 3)
        full = algebra.full_ideal()
        w = WreathMap(full, full, {0: 1, 1: 2, 2: 0}, {0: 1, 1: 0, 2: 1})
        ident = wreath_identity(full)
        assert wreath_compose(w, ident) == w
        assert wreath_compose(ident, w) == w

    def test_disjoint_transpositions(self, lambda_z2):
        algebra = block_power(lambda_z2, 4)
        full = algebra.full_ideal()
        w1 = WreathMap(full, full, {0: 1, 1: 0, 2: 2, 3: 3}, {0: 1, 1: 0, 2: 0, 3: 0})
        w2 = WreathMap(full, full, {0: 0, 1: 1, 2: 3, 3: 2}, {0: 0, 1: 1, 2: 1, 3: 0})
        c = wreath_compose(w2, w1)
        elem = symbolic_basis(full)
        assert wreath_apply(c, elem) == wreath_apply(w2, wreath_apply(w1, elem))

    def test_inverse_composes_to_identity(self, lambda_z2):
        algebra = block_power(lambda_z2, 3)
        full = algebra.full_ideal()
        w = WreathMap(full, full, {0: 2, 1: 0, 2: 1}, {0: 1, 1: 1, 2: 0})
        assert wreath_compose(w, wreath_inverse(w)).is_identity()
        assert wreath_compose(wreath_inverse(w), w).is_identity()

    def test_mismatch(self, lambda_z2):
        algebra = block_power(lambda_z2, 2)
        w1 = WreathMap(algebra.ideal({0}), algebra.ideal({1}), {0: 1}, {0: 0})
        w2 = WreathMap(algebra.ideal({0}), algebra.ideal({0}), {0: 0}, {0: 0})
        with pytest.raises(CompositionMismatch):
            wreath_compose(w2, w1)

    def test_apply_respects_composition_exhaustively(self):
        # all wreath maps on two blocks with an order-2 automorphism group
        algebra = block_power(Block("L", cyclic_group(2)), 2)
        full = algebra.full_ideal()
        maps = []
        for pm in ({0: 0, 1: 1}, {0: 1, 1: 0}):
            for t0 in (0, 1):
                for t1 in (0, 1):
                    maps.append(WreathMap(full, full, dict(pm), {0: t0, 1: t1}))
        elem = symbolic_basis(full)
        for w1 in maps:
            for w2 in maps:
                assert wreath_apply(wreath_compose(w2, w1), elem) == wreath_apply(
                    w2, wreath_apply(w1, elem)
                )


class TestWreathGroupStructure:
    @pytest.mark.parametrize("n,aut_order", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_full_support_maps_form_group(self, n, aut_order):
        algebra = block_power(Block("L", cyclic_group(aut_order)), n)
        full = algebra.full_ideal()
        perms = list(itertools.permutations(range(n)))
        maps = []
        for perm in perms:
            for twists in itertools.product(range(aut_order), repeat=n):
                maps.append(
                    WreathMap(full, full, {i: perm[i] for i in range(n)}, dict(enumerate(twists)))
                )
        import math

        assert len(maps) == math.factorial(n) * aut_order**n
        sample = maps[:: max(1, len(maps) // 12)]
        table_closed = all(
            any(wreath_compose(a, b) == c for c in maps) for a in sample for b in sample
        )
        assert table_closed
        for w in sample:
            assert wreath_compose(w, wreath_inverse(w)).is_identity()

    def test_no_map_between_mismatched_multisets(self, lambda_z2):
        algebra = BlockAlgebra((lambda_z2, k_line_block()))
        a = algebra.ideal({0})
        b = algebra.ideal({1})
        for theta in ({0: 1},):
            with pytest.raises(ClassMismatch):
                WreathMap(a, b, theta, {0: 0})


class TestDecompose:
    def test_single_class(self, k3):
        assert decompose_isotypic(k3) == [("K", (0, 1, 2))]

    def test_two_classes(self, lambda_z2):
        algebra = BlockAlgebra((lambda_z2, lambda_z2, k_line_block()))
        assert decompose_isotypic(algebra) == [("L", (0, 1)), ("K", (2,))]

    def test_five_line_blocks(self):
        algebra = block_power(k_line_block(), 5)
        assert decompose_isotypic(algebra) == [("K", (0, 1, 2, 3, 4))]


class TestValidation:
    def test_same_label_same_aut_required(self, lambda_z2):
        other = Block("L", symmetric_group(2))
        with pytest.raises(MalformedInput):
            BlockAlgebra((lambda_z2, other))

    def test_empty_algebra_rejected(self):
        with pytest.raises(MalformedInput):
            BlockAlgebra(())

    def test_twist_keys_must_match_source(self, lambda_z2):
        algebra = block_power(lambda_z2, 2)
        with pytest.raises(MalformedInput):
            WreathMap(algebra.ideal({0}), algebra.ideal({1}), {0: 1}, {1: 0})
