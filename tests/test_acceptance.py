"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from partial_actions.algebra_actions import (
    enumerate_algebra_partial_actions,
    extend_by_zero_algebra,
    globalizations_equivalent,
    globalize_block_power,
    globalize_extension_by_zero,
    lift_set_action,
    restrict_to_idempotents,
    verify_enveloping,
)
from partial_actions.block_algebras import Block, trivial_group
from partial_actions.cli import main
from partial_actions.groups import (
    Subgroup,
    all_subgroups,
    coset_factorize,
    cross_validate_table,
    cyclic_group,
    subgroup_closure,
    symmetric_group,
)
from partial_actions.s3_example import (
    BETA_FORMULAS,
    CLAIMED_ROWS,
    envelope,
    formula_of,
)
from partial_actions.set_actions import enumerate_partial_actions


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {description}")


ENUM_GROUPS = (
    ("Z2", lambda: cyclic_group(2)),
    ("Z3", lambda: cyclic_group(3)),
    ("Z4", lambda: cyclic_group(4)),
    ("S3", lambda: symmetric_group(3)),
)


@pytest.fixture(scope="module")
def enumerated_universe():
    """Every partial action of Z2, Z3, Z4, S3 on carriers of size 1..3."""
    universe = {}
    for name, make in ENUM_GROUPS:
        G = make()
        for n in (1, 2, 3):
            universe[(name, n)] = (G, enumerate_partial_actions(G, n))
    return universe


def test_criterion_1_factorization_table(capsys):
    with criterion(1, "18-row j/h table, 15 match / 2 mismatch / 1 missing vs the claimed rows"):
        start = time.perf_counter()
        assert main(["factorize", "--group", "S3", "--subgroup", "(12)"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        lines = out.splitlines()
        sep = next(i for i, l in enumerate(lines) if set(l.strip()) == {"-"}) + 1
        assert len([l for l in lines[sep:] if l.startswith("(")]) == 18
        assert elapsed < 1.0

        G = symmetric_group(3)
        H = subgroup_closure(G, ["(12)"])
        report = cross_validate_table(coset_factorize(G, H), CLAIMED_ROWS)
        assert report.match_count == 15
        mismatches = {
            (G.name(r.g), G.name(r.g_i)): (G.name(r.computed_j), G.name(r.computed_h))
            for r in report.checked
            if not r.matches
        }
        assert mismatches == {
            ("(12)", "1"): ("1", "(12)"),
            ("(23)", "1"): ("(23)", "1"),
        }
        missing = [
            (G.name(g), G.name(gi), G.name(j), G.name(h)) for g, gi, j, h in report.missing
        ]
        assert missing == [("(12)", "(13)", "(23)", "(12)")]


def test_criterion_2_beta_formulas():
    with criterion(2, "all six enveloping-action formulas exact, block order (1,(13),(23))"):
        result = envelope()
        assert result.provenance == ("1", "(13)", "(23)")
        G = result.source.group
        for name, expected in BETA_FORMULAS.items():
            assert formula_of(result, G.element_by_name(name)) == expected


def test_criterion_3_enveloping_soundness(enumerated_universe):
    with criterion(3, "all four enveloping checks pass for every enumerated action, size bound holds"):
        start = time.perf_counter()
        checked = 0
        for (name, n), (G, actions) in enumerated_universe.items():
            for spa in actions:
                pa = lift_set_action(spa)
                result = globalize_block_power(pa)
                report = verify_enveloping(
                    pa,
                    {
                        "envelope": result.envelope,
                        "action": result.action,
                        "embedding": result.embedding,
                    },
                )
                assert report.ok, (name, n)
                assert result.block_count <= n * G.order, (name, n)
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == sum(len(a) for _, a in enumerated_universe.values())
        assert elapsed < 30.0


def test_criterion_4_counting_and_bijection():
    with criterion(4, "exactly 5 partial actions of Z2 on 2 points; lift/restrict is a bijection"):
        Z2 = cyclic_group(2)

        # independent oracle: a domain choice plus an involutive bijection of it
        def involution_count(points):
            count = 0
            for perm in itertools.permutations(points):
                mapping = dict(zip(points, perm))
                if all(mapping[mapping[x]] == x for x in points):
                    count += 1
            return count

        oracle = sum(
            involution_count(subset)
            for r in range(3)
            for subset in itertools.combinations(range(2), r)
        )
        assert oracle == 5

        actions = enumerate_partial_actions(Z2, 2)
        assert len(actions) == 5
        lifted = [lift_set_action(a) for a in actions]
        back = [restrict_to_idempotents(p) for p in lifted]
        assert back == actions
        assert [lift_set_action(b) for b in back] == lifted


def test_criterion_5_cocycle_identities():
    with criterion(5, "cocycle identities hold for 100% of triples on all four (G, H) pairs"):
        cases = [
            (symmetric_group(3), ["(12)"]),
            (cyclic_group(6), [3]),
            (cyclic_group(4), [2]),
            (symmetric_group(3), ["(123)"]),
        ]
        for G, gens in cases:
            H = subgroup_closure(G, gens)
            cf = coset_factorize(G, H)
            total = 0
            for g in G.elements():
                for t in G.elements():
                    gt = G.mul(g, t)
                    for gi in cf.reps:
                        assert cf.j(gt, gi) == cf.j(g, cf.j(t, gi))
                        assert cf.h(gt, gi) == G.mul(cf.h(g, cf.j(t, gi)), cf.h(t, gi))
                        total += 1
            assert total == G.order**2 * len(cf.reps)


def test_criterion_6_global_parts_are_subgroups(enumerated_universe):
    with criterion(6, "the full-domain set of every enumerated action passes the subgroup check"):
        for (name, n), (G, actions) in enumerated_universe.items():
            for spa in actions:
                X = frozenset(spa.carrier)
                members = tuple(g for g in G.elements() if spa.domains[g] == X)
                Subgroup(G, members)  # raises NotASubgroup on failure


def test_criterion_7_envelope_uniqueness():
    with criterion(7, "both pipelines give equivalent envelopes for every extension by zero, |G| <= 6"):
        groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [symmetric_group(3)]
        aut_groups = [trivial_group(), cyclic_group(2), cyclic_group(3)]
        pairs_checked = 0
        for G in groups:
            for H in all_subgroups(G):
                for aut in aut_groups:
                    block = Block("L", aut)
                    sub = H.as_group()
                    for images in itertools.product(range(aut.order), repeat=H.order):
                        hom_sub = {m: images[k] for k, m in enumerate(H.members)}
                        if hom_sub[G.identity] != aut.identity:
                            continue
                        if not all(
                            hom_sub[G.mul(a, b)] == aut.mul(hom_sub[a], hom_sub[b])
                            for a in H.members
                            for b in H.members
                        ):
                            continue
                        via_ext = globalize_extension_by_zero(block, H, hom_sub)
                        via_power = globalize_block_power(
                            extend_by_zero_algebra(block, H, hom_sub)
                        )
                        assert globalizations_equivalent(via_ext, via_power) is not None
                        pairs_checked += 1
        assert pairs_checked > 50


def test_criterion_8_envelope_size_depends_only_on_restriction():
    with criterion(8, "equal idempotent restrictions give equal envelope block counts (m = m')"):
        block = Block("L", cyclic_group(2))
        nontrivial_groups = 0
        for name, make in ENUM_GROUPS:
            G = make()
            for n in (1, 2, 3):
                by_restriction = defaultdict(list)
                for pa in enumerate_algebra_partial_actions(G, n, block):
                    key = restrict_to_idempotents(pa).canonical_key()
                    by_restriction[key].append(globalize_block_power(pa).block_count)
                for counts in by_restriction.values():
                    assert len(set(counts)) == 1
                nontrivial_groups += sum(1 for v in by_restriction.values() if len(v) > 1)
        assert nontrivial_groups > 0  # the check is not vacuous


def test_criterion_9_envelope_indecomposable_iff_global():
    with criterion(9, "envelope has one block exactly for global single-block actions"):
        groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [symmetric_group(3)]
        for G in groups:
            for aut in (trivial_group(), cyclic_group(2)):
                block = Block("L", aut)
                for pa in enumerate_algebra_partial_actions(G, 1, block):
                    is_global = all(pa.support(g) for g in G.elements())
                    assert (globalize_block_power(pa).block_count == 1) == is_global
