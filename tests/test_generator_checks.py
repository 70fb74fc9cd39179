"""The homomorphism checks that run over a generating set agree with the
exhaustive oracles in ``oracle_checks``: same inputs accepted, same rejected.
``make_group`` and ``coset_factorize`` also name the failure that the
generator loops kept there find first, and ``groups._law_failures`` yields
exactly the failing pairs of the law checked for every t.

Inputs are valid tables and actions, and perturbations of them: intercalate
switches of group tables (a 2x2 subsquare a b / b a swapped to b a / a b,
which keeps the table a Latin square), two images swapped in one map of a
global set or wreath action, or one twist of a wreath action or of a
twisted coset action changed.

The same perturbed actions, restricted to a drawn subset, check that the
verifiers' orbit-data certificate gives the reports of the axiom scan.
"""

import functools
import math
import re
from pathlib import Path
from unittest import mock

import pytest
from conftest import trivial_subgroup, whole_group
from hypothesis import assume, given, settings, strategies as st
from oracle_checks import (
    action_law_failures,
    associativity_failure,
    cocycle_failure,
    factor_tables,
    generator_cocycle_failure,
    lights_test_failure,
    scanned_report,
    set_action_law_failure,
    transversal_reps,
    wreath_action_law_failure,
)

from partial_actions import groups
from partial_actions.algebra_actions import (
    AlgebraPartialAction,
    enumerate_algebra_partial_actions,
    globalize_block_power,
    verify_algebra_partial_action,
    verify_enveloping,
)
from partial_actions.block_algebras import Block, WreathMap
from partial_actions.documents import load_workbench
from partial_actions.errors import InternalInconsistency, MalformedInput, NotAGroup
from partial_actions.groups import (
    FiniteGroup,
    _law_failures,
    coset_factorize,
    cyclic_group,
    make_group,
    subgroup_closure,
    symmetric_group,
)
from partial_actions.set_actions import GlobalSetAction, SetPartialAction, verify_partial_action

GOLDEN = Path(__file__).parent / "data" / "golden_globalize.json"


def direct_product(A, B):
    """A x B with (a, b) at index a*|B| + b; identity at index 0 when both
    factors have identity 0."""
    m = B.order
    n = A.order * m
    return make_group(
        [
            [A.mul(x // m, y // m) * m + B.mul(x % m, y % m) for y in range(n)]
            for x in range(n)
        ]
    )


@functools.cache
def base_groups():
    """Groups with elements of order 2 (so their tables have intercalates),
    each with identity 0."""
    z2 = cyclic_group(2)
    return (
        symmetric_group(3),
        cyclic_group(8),
        direct_product(z2, cyclic_group(4)),
        direct_product(z2, symmetric_group(3)),
        symmetric_group(4),
        direct_product(z2, z2),
    )


def intercalates(table):
    """Every 2x2 subsquare (r1, r2, c1, c2) with r1 < r2, c1 < c2, outside
    row and column 0, whose entries read a b / b a."""
    n = len(table)
    column_of = [{x: c for c, x in enumerate(row)} for row in table]
    out = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = column_of[r2][table[r1][c1]]
                if c2 > c1 and table[r1][c2] == table[r2][c1]:
                    out.append((r1, r2, c1, c2))
    return out


def switch(table, square):
    r1, r2, c1, c2 = square
    rows = [list(row) for row in table]
    a, b = rows[r1][c1], rows[r1][c2]
    rows[r1][c1] = rows[r2][c2] = b
    rows[r1][c2] = rows[r2][c1] = a
    return rows


@st.composite
def perturbed_tables(draw, max_switches=3):
    table = draw(st.sampled_from(base_groups())).table
    for _ in range(draw(st.integers(0, max_switches))):
        squares = intercalates(table)
        if not squares:
            break
        table = switch(table, draw(st.sampled_from(squares)))
    return table


def two_sided_inverses(table):
    """Inverses with respect to identity 0, or None if some element has no
    unique two-sided inverse."""
    n = len(table)
    inverses = []
    for a in range(n):
        found = [b for b in range(n) if table[a][b] == 0 and table[b][a] == 0]
        if len(found) != 1:
            return None
        inverses.append(found[0])
    return tuple(inverses)


class TestGenerators:
    @pytest.mark.parametrize(
        "G",
        [cyclic_group(n) for n in (1, 2, 6, 12, 720)]
        + [symmetric_group(n) for n in (1, 2, 3, 4, 5, 6)]
        + list(base_groups()),
        ids=repr,
    )
    def test_generate_by_left_bracketed_products(self, G):
        S = G.generators
        assert G.identity not in S
        assert list(S) == sorted(set(S))
        assert len(S) <= math.log2(G.order)
        reached = {G.identity}
        frontier = [G.identity]
        while frontier:
            x = frontier.pop()
            for s in S:
                y = G.mul(x, s)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(G.elements())

    @pytest.mark.parametrize("n,names", [
        (3, ["(12)", "(123)"]),
        (4, ["(1234)", "(1243)"]),
        (5, ["(12)(345)", "(123)(45)"]),
        (6, ["(12)(345)", "(12)(346)", "(123)(45)"]),
    ])
    def test_known_sets(self, n, names):
        # elements of large order are tried first, and the set is sorted
        G = symmetric_group(n)
        assert [G.name(s) for s in G.generators] == names

    @pytest.mark.parametrize("n", [1, 2, 6, 9, 12, 720])
    def test_cyclic_groups_get_one_generator(self, n):
        assert cyclic_group(n).generators == ((1,) if n > 1 else ())

    @pytest.mark.parametrize("n", [2, 6, 12, 64])
    def test_relabelled_cyclic_tables_get_one_generator(self, n):
        # element i stands for i - 1 mod n, so the identity is element 1
        G = make_group([[(a + b - 1) % n for b in range(n)] for a in range(n)])
        assert len(G.generators) == 1 and subgroup_closure(G, G.generators).order == n

    def test_outside_equality_and_hash(self):
        a, b = symmetric_group(3), symmetric_group(3)
        assert a.generators
        assert a == b and hash(a) == hash(b)


@settings(max_examples=150, deadline=None)
@given(table=perturbed_tables())
def test_lights_test_matches_exhaustive_associativity(table):
    expected_ok = two_sided_inverses(table) is not None and associativity_failure(table) is None
    try:
        make_group(table)
    except NotAGroup as exc:
        assert not expected_ok
        m = re.match(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(exc))
        if m:
            a, b, c = map(int, m.groups())
            assert table[table[a][b]][c] != table[a][table[b][c]]
    else:
        assert expected_ok


@settings(max_examples=200, deadline=None)
@given(table=perturbed_tables())
def test_lights_test_names_the_oracles_first_triple(table):
    # intercalate switches keep the Latin square and the identity 0
    assume(two_sided_inverses(table) is not None)
    failure = lights_test_failure(table, 0)
    if failure is None:
        make_group(table)
    else:
        a, b, c = failure
        message = f"associativity fails at ({a},{b},{c}): ({a}*{b})*{c} != {a}*({b}*{c})"
        with pytest.raises(NotAGroup, match=f"^{re.escape(message)}$"):
            make_group(table)


def loop_of(table):
    """The table as a FiniteGroup built directly, so that no associativity
    scan runs, or None without two-sided inverses."""
    if two_sided_inverses(table) is None:
        return None
    return FiniteGroup(tuple(map(tuple, table)), 0, tuple(map(str, range(len(table)))))


@settings(max_examples=200, deadline=None)
@given(table=perturbed_tables(), data=st.data())
def test_coset_factorize_names_the_oracles_first_cocycle_failure(table, data):
    G = loop_of(table)
    assume(G is not None and associativity_failure(table) is not None)
    H = subgroup_closure(G, data.draw(st.sets(st.integers(0, G.order - 1), max_size=2)))
    try:  # the tables coset_factorize builds, with its law check left out
        with mock.patch.object(groups, "_law_failures", lambda *args: iter(())):
            cf = coset_factorize(G, H)
    except InternalInconsistency as exc:  # a row check fails first
        with pytest.raises(InternalInconsistency, match=f"^{re.escape(str(exc))}$"):
            coset_factorize(G, H)
        return
    failure = generator_cocycle_failure(G, cf.j_table, cf.h_table)
    if failure is None:
        assert coset_factorize(G, H) == cf
    else:
        message = f"cocycle identity for {failure[2]} fails"
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            coset_factorize(G, H)


@functools.cache
def law_data():
    """(G, carrier, maps, images, twists, mul) of global actions in the data
    layout of ``groups._law_failures``: the regular action on positions,
    coset actions on positions with and without the twists h, H = G (index
    1) and the trivial subgroup included, dicts on points, an empty and a
    one-point carrier, and the trivial group."""
    out = []
    for G in (cyclic_group(1), cyclic_group(5)) + base_groups()[:4]:
        n = G.order
        out.append((G, tuple(range(n)), G.table, G.table, None, None))
        out.append((G, (), ((),) * n, ((),) * n, None, None))
        out.append((G, (0,), ((0,),) * n, ((0,),) * n, None, None))
        for H in (whole_group(G), trivial_subgroup(G), subgroup_closure(G, G.generators[-1:])):
            cf = coset_factorize(G, H)
            positions = tuple(range(len(cf.reps)))
            out.append((G, positions, cf.j_table, cf.j_table, None, None))
            out.append((G, positions, cf.j_table, cf.j_table, cf.h_table, G.table))
    for G, carrier, maps in global_set_actions():
        images = tuple(tuple(maps[g][x] for x in carrier) for g in G.elements())
        out.append((G, carrier, tuple(maps[g] for g in G.elements()), images, None, None))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_law_failures_match_the_law_for_every_t(data):
    """On a global action with two images swapped or one twist changed in
    one map half of the time, ``_law_failures`` yields exactly the failing
    pairs of the exhaustive law with t a generator, t-major; given
    beta_e = id, it finds one exactly when the law fails for some t."""
    G, carrier, maps, images, twists, mul = data.draw(st.sampled_from(law_data()))
    maps, images = list(maps), list(images)
    twists = twists and [list(row) for row in twists]
    if data.draw(st.booleans()):
        g = data.draw(st.sampled_from(list(G.elements())))
        if twists and carrier and len(mul) > 1 and data.draw(st.booleans()):
            p = data.draw(st.sampled_from(carrier))
            others = [f for f in range(len(mul)) if f != twists[g][p]]
            twists[g][p] = data.draw(st.sampled_from(others))
        elif len(carrier) > 1:
            pair = st.lists(st.sampled_from(carrier), min_size=2, max_size=2, unique=True)
            x, y = data.draw(pair)
            m = dict(zip(carrier, images[g]))
            m[x], m[y] = m[y], m[x]
            images[g] = tuple(m[z] for z in carrier)
            maps[g] = images[g] if isinstance(maps[g], tuple) else m
    twists = twists and [tuple(row) for row in twists]
    found = list(_law_failures(G.table, G.generators, maps, images, twists, mul))
    everywhere = action_law_failures(G.table, maps, images, twists, mul)
    assert set(found) == {(g, t) for g, t in everywhere if t in G.generators}
    assert found == sorted(found, key=lambda gs: (G.generators.index(gs[1]), gs[0]))
    e = G.identity
    if images[e] == carrier and (twists is None or set(twists[e]) <= {e}):
        assert bool(found) == bool(everywhere)


@settings(max_examples=80, deadline=None)
@given(table=perturbed_tables(), data=st.data())
def test_cocycle_identities_match_oracle(table, data):
    G = loop_of(table)  # a perturbed table may be a non-associative loop
    if G is None:
        return
    if associativity_failure(table) is None:
        gens = data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
        H = subgroup_closure(G, gens)
    else:
        H = trivial_subgroup(G)
    failure = cocycle_failure(G, *factor_tables(G, H, transversal_reps(G, H)))
    try:
        coset_factorize(G, H)
    except InternalInconsistency as exc:
        assert "cocycle identity" in str(exc)
        assert failure is not None
    else:
        assert failure is None


@functools.cache
def global_set_actions():
    """Regular actions and actions on left cosets, as (G, carrier, maps)."""
    out = []
    for G in base_groups()[:4] + (cyclic_group(5),):
        regular = {g: {x: G.mul(g, x) for x in G.elements()} for g in G.elements()}
        out.append((G, tuple(G.elements()), regular))
        cf = coset_factorize(G, subgroup_closure(G, G.generators[-1:]))
        on_cosets = {g: {x: cf.j(g, x) for x in cf.reps} for g in G.elements()}
        out.append((G, cf.reps, on_cosets))
    return tuple(out)


def draw_set_action(data):
    """(G, carrier, maps) of a global set action, with two images swapped in
    one map half of the time."""
    G, carrier, maps = data.draw(st.sampled_from(global_set_actions()))
    maps = {g: dict(m) for g, m in maps.items()}
    if len(carrier) > 1 and data.draw(st.booleans()):
        g = data.draw(st.sampled_from(list(G.elements())))
        x, y = data.draw(st.lists(st.sampled_from(carrier), min_size=2, max_size=2, unique=True))
        maps[g][x], maps[g][y] = maps[g][y], maps[g][x]
    return G, carrier, maps


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_set_action_law_matches_oracle(data):
    G, carrier, maps = draw_set_action(data)
    failure = set_action_law_failure(G, carrier, maps)
    try:
        GlobalSetAction(G, carrier, maps)
    except MalformedInput as exc:
        assert failure is not None, str(exc)
    else:
        assert failure is None


@functools.cache
def global_wreath_actions():
    """Envelopes of the golden document's algebra actions and of enumerated
    Z2-twisted actions, as GlobalizationResults."""
    wb = load_workbench(str(GOLDEN))
    sources = [a for a in wb.actions.values() if hasattr(a, "algebra")]
    twisted = Block("B", cyclic_group(2))
    for G, n in ((cyclic_group(3), 2), (symmetric_group(3), 1), (cyclic_group(4), 2)):
        sources += enumerate_algebra_partial_actions(G, n, twisted)[::7]
    return tuple(globalize_block_power(pa) for pa in sources)


def draw_wreath_action(data):
    """(result, action): a GlobalizationResult and its envelope action, with
    two positions swapped or one twist changed in one map half of the time."""
    result = data.draw(st.sampled_from(global_wreath_actions()))
    G = result.source.group
    action = dict(result.action)
    if data.draw(st.booleans()):
        g = data.draw(st.sampled_from(list(G.elements())))
        w = action[g]
        pm, tw = dict(w.position_map), dict(w.twists)
        blocks = result.envelope.blocks
        swappable = [(p, q) for p in pm for q in pm if p < q and blocks[p] == blocks[q]]
        twistable = [p for p in tw if blocks[p].aut_group.order > 1]
        if swappable and (not twistable or data.draw(st.booleans())):
            p, q = data.draw(st.sampled_from(swappable))
            pm[p], pm[q] = pm[q], pm[p]
        elif twistable:
            p = data.draw(st.sampled_from(twistable))
            aut = blocks[p].aut_group
            tw[p] = data.draw(st.sampled_from([f for f in aut.elements() if f != tw[p]]))
        action[g] = WreathMap(w.source, w.target, pm, tw)
    return result, action


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_wreath_action_law_matches_oracle(data):
    result, action = draw_wreath_action(data)
    G = result.source.group
    failure = wreath_action_law_failure(G, action)
    candidate = {"envelope": result.envelope, "action": action, "embedding": result.embedding}
    try:
        verify_enveloping(result.source, candidate)
    except MalformedInput as exc:
        assert failure is not None, str(exc)
    else:
        assert failure is None


def assert_matches_scan(verify, action):
    """verify(action) gives the report of the scan alone, or both raise
    MalformedInput."""
    try:
        certified = verify(action).to_dict()
    except MalformedInput:
        with pytest.raises(MalformedInput):
            scanned_report(verify, action)
    else:
        assert certified == scanned_report(verify, action).to_dict()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_set_certificate_agrees_with_scan(data):
    # the perturbed action restricted to a drawn subset, with D_g the image
    # of the restricted map: a perturbation can break that map's fit too
    G, carrier, maps = draw_set_action(data)
    kept = data.draw(st.sets(st.sampled_from(carrier)))
    sub = [x for x in carrier if x in kept]
    maps = {g: {x: y for x, y in m.items() if x in kept and y in kept} for g, m in maps.items()}
    spa = SetPartialAction(G, sub, {g: m.values() for g, m in maps.items()}, maps)
    assert_matches_scan(verify_partial_action, spa)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_algebra_certificate_agrees_with_scan(data):
    result, action = draw_wreath_action(data)
    algebra = result.envelope
    kept = data.draw(st.sets(st.sampled_from(algebra.positions()), min_size=1))
    domains, maps = {}, {}
    for g, w in action.items():
        pm = {p: q for p, q in w.position_map.items() if p in kept and q in kept}
        tw = {p: w.twists[p] for p in pm}
        domains[g] = algebra.ideal(pm.values())
        maps[g] = WreathMap(algebra.ideal(pm), domains[g], pm, tw)
    pa = AlgebraPartialAction(result.source.group, algebra, domains, maps)
    assert_matches_scan(verify_algebra_partial_action, pa)
