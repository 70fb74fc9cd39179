import itertools

import oracle_groups
import pytest
from conftest import trivial_subgroup, whole_group
from hypothesis import given, settings, strategies as st
from oracle_enumeration import relabelled

from partial_actions import groups
from partial_actions.errors import (
    InternalInconsistency,
    NotAGroup,
    NotASubgroup,
    SizeLimit,
    UnknownElement,
)
from partial_actions.groups import (
    FiniteGroup,
    Subgroup,
    _cosets,
    all_subgroups,
    coset_factorize,
    cross_validate_table,
    cyclic_group,
    make_group,
    subgroup_closure,
    symmetric_group,
)

# Latin square of order 6 with identity 0 and two-sided inverses that fails
# associativity at (1,1,1): (1*1)*1 = 3*1 = 4 but 1*(1*1) = 1*3 = 2.
NONASSOC_LOOP_6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 3, 4, 2, 5, 0],
    [2, 5, 1, 0, 3, 4],
    [3, 4, 0, 5, 1, 2],
    [4, 2, 5, 1, 0, 3],
    [5, 0, 3, 4, 2, 1],
]


S3 = symmetric_group(3)
S3_SWAP = Subgroup(S3, (0, 1))  # {1, (12)}
# (id, call, error, message): rejections of the group layer that no other
# test reaches
GROUP_FAULTS = [
    ("short row", lambda: make_group([[0, 1], [1]]), NotAGroup, "row 1 has length 1, expected 2"),
    ("column no permutation", lambda: make_group([[0, 1], [0, 1]]), NotAGroup,
     r"column 0 is not a permutation of 0..1"),
    ("first bad column is column 2", lambda: make_group(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 1]]
    ), NotAGroup, r"column 2 is not a permutation of 0..3"),
    ("empty table", lambda: make_group([]), NotAGroup, "empty table"),
    ("too few names", lambda: make_group([[0, 1], [1, 0]], ["a"]), NotAGroup,
     "1 names for 2 elements"),
    ("cyclic order 0", lambda: cyclic_group(0), NotAGroup, "order must be positive"),
    ("symmetric n 0", lambda: symmetric_group(0), NotAGroup, "n must be positive"),
    ("members without e", lambda: Subgroup(S3, (1,)), NotASubgroup,
     "does not contain the identity"),
    ("members not closed", lambda: Subgroup(S3, (0, 1, 2)), NotASubgroup,
     r"not closed under multiplication at \(12\)\*\(13\)"),
    ("subgroup of another group", lambda: coset_factorize(cyclic_group(6), S3_SWAP),
     NotASubgroup, "subgroup belongs to a different group"),
    ("sweep above order 12", lambda: all_subgroups(cyclic_group(13)), SizeLimit,
     "subgroup sweep is capped at order 12"),
]


@pytest.mark.parametrize(
    "build,error,message", [f[1:] for f in GROUP_FAULTS], ids=[f[0] for f in GROUP_FAULTS]
)
def test_group_fault_is_rejected(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


class TestMakeGroup:
    def test_trivial(self):
        G = make_group([[0]])
        assert G.order == 1 and G.identity == 0

    def test_z2_table(self):
        G = make_group([[0, 1], [1, 0]])
        assert G.mul(1, 1) == 0
        assert G.inv(1) == 1

    def test_subtraction_quasigroup_is_rejected(self):
        # (a - b) mod 5 is a Latin square but has no two-sided identity
        table = [[(a - b) % 5 for b in range(5)] for a in range(5)]
        with pytest.raises(NotAGroup):
            make_group(table)

    def test_nonassociative_loop_is_rejected(self):
        # order 5 admits no non-associative loop with two-sided inverses, so
        # the associativity scan is exercised at order 6
        with pytest.raises(NotAGroup, match="associativity"):
            make_group(NONASSOC_LOOP_6)

    def test_not_latin(self):
        with pytest.raises(NotAGroup):
            make_group([[0, 0], [1, 1]])

    def test_size_cap(self):
        n = 65
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        with pytest.raises(SizeLimit):
            make_group(table)

    def test_cyclic_size_cap(self):
        assert cyclic_group(720).order == 720
        with pytest.raises(SizeLimit):
            cyclic_group(721)


class TestSymmetricGroup:
    def test_s3_labels(self, s3):
        assert s3.names == ("1", "(12)", "(13)", "(23)", "(123)", "(132)")
        assert s3.identity == 0

    def test_trivial(self):
        assert symmetric_group(1).order == 1

    def test_right_to_left_composition(self, s3):
        a = s3.element_by_name("(23)")
        b = s3.element_by_name("(13)")
        assert s3.name(s3.mul(a, b)) == "(123)"

    def test_orders(self, s3):
        r, t, e = s3.element_by_name("(123)"), s3.element_by_name("(12)"), s3.identity
        assert s3.mul(r, s3.mul(r, r)) == e and e not in (r, s3.mul(r, r))
        assert s3.mul(t, t) == e != t

    def test_cap(self):
        with pytest.raises(SizeLimit):
            symmetric_group(7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_is_composition_of_the_named_permutations(self, n):
        # each name is read back as a permutation of 0..n-1 and every product
        # is composed directly, right to left: (a*b)(x) = a(b(x))
        G = symmetric_group(n)

        def permutation(name):
            perm = list(range(n))
            for cycle in name.strip("()").split(")(") if name != "1" else []:
                points = [int(c) - 1 for c in cycle]
                for x, y in zip(points, points[1:] + points[:1]):
                    perm[x] = y
            return tuple(perm)

        perms = [permutation(name) for name in G.names]
        assert len(set(perms)) == G.order == len(list(itertools.permutations(range(n))))
        index = {perm: i for i, perm in enumerate(perms)}
        for a, pa in enumerate(perms):
            row = tuple([index[tuple([pa[y] for y in pb])] for pb in perms])
            assert G.table[a] == row

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_matches_the_product_by_product_oracle(self, n):
        assert symmetric_group(n).table == oracle_groups.symmetric_table(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_axioms_via_make_group(self, n):
        G = symmetric_group(n)
        rebuilt = make_group(G.table, G.names)
        assert rebuilt.identity == G.identity
        assert rebuilt.inverses == G.inverses


class TestSubgroups:
    def test_closure_single_transposition(self, s3):
        H = subgroup_closure(s3, ["(12)"])
        assert [s3.name(m) for m in H.members] == ["1", "(12)"]

    def test_closure_empty(self, s3):
        assert subgroup_closure(s3, []).members == (s3.identity,)

    def test_closure_three_cycle(self, s3):
        H = subgroup_closure(s3, ["(123)"])
        assert [s3.name(m) for m in H.members] == ["1", "(123)", "(132)"]

    def test_invalid_members_rejected(self, s3):
        with pytest.raises(NotASubgroup):
            Subgroup(s3, (0, s3.element_by_name("(123)")))  # not closed

    def test_as_group_multiplication(self, s3):
        H = subgroup_closure(s3, ["(123)"])
        K = H.as_group()
        for a in K.elements():
            for b in K.elements():
                assert H.members[K.mul(a, b)] == s3.mul(H.members[a], H.members[b])

    def test_all_subgroups_s3(self, s3):
        subs = all_subgroups(s3)
        assert [H.order for H in subs] == [1, 2, 2, 2, 3, 6]


class TestElementReferences:
    @pytest.mark.parametrize("ref", [True, False, 1.0, None, [], -1, 6, "(45)"])
    def test_unknown_reference_rejected(self, s3, ref):
        with pytest.raises(UnknownElement):
            s3.resolve(ref)
        with pytest.raises(UnknownElement):
            s3.element_by_name(ref)

    @pytest.mark.parametrize(
        "G",
        [symmetric_group(3), symmetric_group(4), cyclic_group(5), relabelled(symmetric_group(3))],
        ids=["S3", "S4", "Z5", "S3-relabelled"],
    )
    def test_every_name_and_index_resolves(self, G):
        for i, name in enumerate(G.names):
            assert G.resolve(name) == G.element_by_name(name) == G.names.index(name) == i
            assert G.resolve(i) == i

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_group(cyclic_group(2).table, ["a", "a"]),
            lambda: make_group([[0, 1], [1, 0]], ["a", "a"]),
            lambda: make_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], ["e", "a", "a"]),
        ],
    )
    def test_repeated_names_rejected(self, build):
        with pytest.raises(NotAGroup, match=r"^duplicate element name 'a'$"):
            build()

    @pytest.mark.parametrize("gen", [True, 1.0])
    def test_closure_of_a_non_index_rejected(self, s3, gen):
        with pytest.raises(UnknownElement):
            subgroup_closure(s3, [gen])

    @pytest.mark.parametrize("member", [1.5, True, None, [], "1", -1, 6])
    def test_subgroup_member_must_be_an_index(self, s3, member):
        with pytest.raises(NotASubgroup, match="is not an element index"):
            Subgroup(s3, (0, member))


class TestTransversal:
    def test_s3_transversal(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        assert [s3.name(r) for r in cf.reps] == ["1", "(13)", "(23)"]

    def test_whole_group(self, s3):
        assert coset_factorize(s3, whole_group(s3)).reps == (s3.identity,)

    def test_z4_index_two(self, z4):
        assert coset_factorize(z4, subgroup_closure(z4, [2])).reps == (0, 1)

    def test_deterministic(self, s3, s3_swap_subgroup):
        a = coset_factorize(s3, s3_swap_subgroup)
        b = coset_factorize(s3, s3_swap_subgroup)
        assert a == b and repr(a) == repr(b)

    def test_coset_position_covers(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        for g in s3.elements():
            h = s3.mul(s3.inv(cf.j(g, s3.identity)), g)
            assert h in s3_swap_subgroup

    @pytest.mark.parametrize("G", [
        symmetric_group(3), cyclic_group(6),
        relabelled(symmetric_group(3)), relabelled(cyclic_group(4)), relabelled(cyclic_group(6)),
    ], ids=["S3", "Z6", "S3-relabelled", "Z4-relabelled", "Z6-relabelled"])
    def test_numbering_on_every_subgroup(self, G):
        """reps[0] is e, also where e is not element 0; the other
        representatives are their cosets' least elements, ascending; and the
        coset numbering is constant on each gH and 0 on H."""
        for H in all_subgroups(G):
            reps = coset_factorize(G, H).reps
            numbered, coset = _cosets(G, H.members)
            assert reps == tuple(numbered) and reps[0] == G.identity
            blocks = [{G.mul(r, h) for h in H.members} for r in reps]
            assert [min(b) for b in blocks[1:]] == sorted(reps[1:]) == list(reps[1:])
            assert sorted(x for b in blocks for x in b) == list(G.elements())
            for i, b in enumerate(blocks):
                assert {coset[x] for x in b} == {i}
            assert {coset[h] for h in H.members} == {0}


def every_subgroup(G):
    """Every subgroup of G, as the closures of pairs of elements: the
    subgroups of S3, S4 and the cyclic groups are generated by two."""
    closures = {}
    for pair in itertools.combinations_with_replacement(G.elements(), 2):
        H = subgroup_closure(G, pair)
        closures.setdefault(H.members, H)
    return list(closures.values())


def test_every_subgroup_finds_them_all():
    for G in (symmetric_group(3), cyclic_group(6), relabelled(cyclic_group(4))):
        assert sorted(H.members for H in every_subgroup(G)) == sorted(
            H.members for H in all_subgroups(G)
        )
    assert len(every_subgroup(symmetric_group(4))) == 30  # the subgroups of S4


def _loop(table):
    """A Latin square with identity 0 and two-sided inverses, built directly
    so that no associativity scan runs."""
    return FiniteGroup(tuple(map(tuple, table)), 0, tuple(map(str, range(len(table)))))


class TestFactorizationSelfChecks:
    """Each law that coset_factorize verifies still fires on a numbering or
    a table that breaks it."""

    def _patched(self, monkeypatch, wrong):
        real = groups._cosets
        monkeypatch.setattr(groups, "_cosets", lambda G, members: wrong(*real(G, members)))

    def test_h_outside_the_subgroup(self, monkeypatch, s3, s3_swap_subgroup):
        # cosets 1 and 2 swap numbers, so g_j^-1*g*g_i leaves H
        self._patched(monkeypatch, lambda reps, coset: (reps, [(3 - c) % 3 for c in coset]))
        with pytest.raises(InternalInconsistency, match="^factor h landed outside the subgroup$"):
            coset_factorize(s3, s3_swap_subgroup)

    def test_j_not_a_permutation(self, monkeypatch, s3, s3_swap_subgroup):
        # a second representative of coset 1: j(1, .) hits position 1 twice
        self._patched(monkeypatch, lambda reps, coset: (reps + reps[1:2], coset))
        with pytest.raises(InternalInconsistency, match=r"^g_i -> j\(1,g_i\) is not a permutation$"):
            coset_factorize(s3, s3_swap_subgroup)

    def test_defining_equality(self):
        # 2 = 1*4 lies in the coset of 1, and 1^-1*2 = 1*2 = 3 lies in
        # H = {0, 3, 4}, but 1*3 = 5, not 2
        G = _loop([
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 5, 2, 4],
            [2, 4, 0, 1, 5, 3],
            [3, 2, 5, 4, 0, 1],
            [4, 5, 1, 0, 3, 2],
            [5, 3, 4, 2, 1, 0],
        ])
        with pytest.raises(InternalInconsistency, match=r"^defining equality g\*g_i = j\*h fails$"):
            coset_factorize(G, Subgroup(G, (0, 3, 4)))

    def test_h_cocycle(self):
        # the row checks pass, and on this non-associative table the h
        # identity fails at a pair where the j identity still holds
        G = _loop([
            [0, 1, 2, 3, 4, 5],
            [1, 0, 5, 4, 3, 2],
            [2, 3, 0, 1, 5, 4],
            [3, 4, 1, 5, 2, 0],
            [4, 5, 3, 2, 0, 1],
            [5, 2, 4, 0, 1, 3],
        ])
        with pytest.raises(InternalInconsistency, match="^cocycle identity for h fails$"):
            coset_factorize(G, Subgroup(G, (0, 3, 5)))

    def test_the_least_failing_t_is_named(self):
        # with generators (1, 5) the h identity fails at (g, t) = (2, 1) and
        # the j identity at (1, 5), first with g as the outer loop: t is the
        # outer loop, so h is named
        G = _loop([
            [0, 1, 2, 3, 4, 5, 6, 7],
            [1, 2, 3, 0, 5, 6, 7, 4],
            [2, 3, 0, 1, 6, 7, 4, 5],
            [3, 0, 7, 2, 1, 4, 5, 6],
            [4, 7, 6, 5, 0, 1, 2, 3],
            [5, 6, 1, 4, 7, 2, 3, 0],
            [6, 5, 4, 7, 2, 3, 0, 1],
            [7, 4, 5, 6, 3, 0, 1, 2],
        ])
        assert G.generators == (1, 5)
        with pytest.raises(InternalInconsistency, match="^cocycle identity for h fails$"):
            coset_factorize(G, Subgroup(G, (0, 6)))


class TestCosetFactorization:
    def test_reference_table_row(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        g = s3.element_by_name("(23)")
        gi = s3.element_by_name("(13)")
        assert s3.name(cf.j(g, gi)) == "(13)"
        assert s3.name(cf.h(g, gi)) == "(12)"

    def test_identity_rows(self):
        # coset_factorize does not check these rows: they hold by construction
        for G in (
            symmetric_group(3), symmetric_group(4), cyclic_group(6), relabelled(symmetric_group(3)),
            relabelled(cyclic_group(4)), relabelled(cyclic_group(6)),
        ):
            for H in every_subgroup(G):
                cf = coset_factorize(G, H)
                for gi in cf.reps:
                    assert cf.j(G.identity, gi) == gi
                    assert cf.h(G.identity, gi) == G.identity

    def test_row_absent_from_reference_table(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        g = s3.element_by_name("(12)")
        gi = s3.element_by_name("(13)")
        assert s3.name(cf.j(g, gi)) == "(23)"
        assert s3.name(cf.h(g, gi)) == "(12)"

    def test_defining_equality_everywhere(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        for g, gi, j, h in cf.rows():
            assert s3.mul(g, gi) == s3.mul(j, h)

    def test_whole_group_factorization(self, s3):
        cf = coset_factorize(s3, whole_group(s3))
        assert len(cf.reps) == 1
        for g in s3.elements():
            assert cf.h(g, s3.identity) == g

    @pytest.mark.parametrize(
        "make,gens",
        [
            (lambda: symmetric_group(3), ["(12)"]),
            (lambda: cyclic_group(6), [3]),
            (lambda: cyclic_group(4), [2]),
            (lambda: symmetric_group(3), ["(123)"]),
            (lambda: symmetric_group(5), ["(12)", "(34)"]),
        ],
    )
    def test_cocycle_identities_exhaustive(self, make, gens):
        G = make()
        H = subgroup_closure(G, gens)
        cf = coset_factorize(G, H)
        reps = cf.reps
        for g in G.elements():
            for t in G.elements():
                gt = G.mul(g, t)
                for gi in reps:
                    assert cf.j(gt, gi) == cf.j(g, cf.j(t, gi))
                    assert cf.h(gt, gi) == G.mul(cf.h(g, cf.j(t, gi)), cf.h(t, gi))

    def test_cocycle_identities_checked_above_order_24(self):
        # NONASSOC_LOOP_6 x Z5 (order 30), built directly so no associativity
        # scan runs; with the trivial subgroup j(g, g_i) is g*g_i, so the j
        # identity is associativity itself
        n = 30
        table = tuple(
            tuple(NONASSOC_LOOP_6[a // 5][c // 5] * 5 + (a + c) % 5 for c in range(n))
            for a in range(n)
        )
        G = FiniteGroup(table, 0, tuple(map(str, range(n))))
        with pytest.raises(InternalInconsistency, match="cocycle identity for j fails"):
            coset_factorize(G, trivial_subgroup(G))

    def test_j_row_is_permutation(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        t = len(cf.reps)
        for g in s3.elements():
            assert sorted(cf.j_table[g]) == list(range(t))


class TestCrossValidate:
    def test_match_row(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        report = cross_validate_table(cf, [(("(123)", "(23)"), "1", "(12)")])
        assert report.checked[0].matches

    def test_mismatch_row_with_correction(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        report = cross_validate_table(cf, [(("(23)", "1"), "(23)", "(23)")])
        row = report.checked[0]
        assert not row.matches
        assert s3.name(row.computed_j) == "(23)"
        assert s3.name(row.computed_h) == "1"

    def test_missing_rows_listed(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        report = cross_validate_table(cf, [(("1", "1"), "1", "1")])
        assert len(report.missing) == 17

    def test_unknown_element(self, s3, s3_swap_subgroup):
        cf = coset_factorize(s3, s3_swap_subgroup)
        with pytest.raises(UnknownElement):
            cross_validate_table(cf, [(("(12345)", "1"), "1", "1")])
        with pytest.raises(UnknownElement):
            # g_i must be a transversal representative
            cross_validate_table(cf, [(("1", "(12)"), "1", "1")])


def _group_pool():
    return st.sampled_from(
        [cyclic_group(n) for n in (1, 2, 3, 4, 5, 6)]
        + [symmetric_group(n) for n in (2, 3)]
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factorization_laws_random_subgroups(data):
    G = data.draw(_group_pool())
    gens = data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
    H = subgroup_closure(G, gens)
    cf = coset_factorize(G, H)
    g = data.draw(st.integers(0, G.order - 1))
    t = data.draw(st.integers(0, G.order - 1))
    for gi in cf.reps:
        assert G.mul(g, gi) == G.mul(cf.j(g, gi), cf.h(g, gi))
        assert cf.h(g, gi) in H
        assert cf.j(G.mul(g, t), gi) == cf.j(g, cf.j(t, gi))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transversal_first_rep_is_identity(data):
    G = data.draw(_group_pool())
    gens = data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
    H = subgroup_closure(G, gens)
    reps = coset_factorize(G, H).reps
    assert reps[0] == G.identity
    assert len(reps) * H.order == G.order
