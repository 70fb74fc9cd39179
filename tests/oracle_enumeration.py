"""Brute-force enumerators kept as test oracles.

These build the full product of the per-slot options and filter it with the
whole-candidate axiom check, with no pruning.  They are slow (Z6 on 4 points
takes about 10 s, S3 on 4 points more than a minute) and exist only to pin
the enumerators' output, order included.
"""

from __future__ import annotations

import itertools

from partial_actions.algebra_actions import AlgebraPartialAction
from partial_actions.block_algebras import WreathMap, block_power
from partial_actions.groups import make_group
from partial_actions.set_actions import SetPartialAction


def relabelled(G):
    """G with element a renamed |G|-1-a, so that e is not element 0."""
    last = G.order - 1
    return make_group([[last - G.table[last - a][last - b] for b in G.elements()] for a in G.elements()])


def _involution_options(points: tuple[int, ...]) -> list[tuple[frozenset, dict]]:
    """All (domain, involutive bijection on it) pairs over the given points."""
    out = []
    points = tuple(points)
    n = len(points)
    for r in range(n + 1):
        for dom in itertools.combinations(points, r):
            for m in _involutions_on(list(dom)):
                out.append((frozenset(dom), m))
    return out


def _involutions_on(points: list) -> list[dict]:
    if not points:
        return [{}]
    first, rest = points[0], points[1:]
    result = []
    for m in _involutions_on(rest):
        fixed = dict(m)
        fixed[first] = first
        result.append(fixed)
    for i, partner in enumerate(rest):
        others = rest[:i] + rest[i + 1 :]
        for m in _involutions_on(others):
            paired = dict(m)
            paired[first] = partner
            paired[partner] = first
            result.append(paired)
    return result


def _bijection_options(points: tuple[int, ...]) -> list[tuple[frozenset, frozenset, dict]]:
    """All (target domain D_g, source domain D_{g^-1}, map) triples."""
    out = []
    n = len(points)
    for r in range(n + 1):
        for src in itertools.combinations(points, r):
            for tgt in itertools.combinations(points, r):
                for images in itertools.permutations(tgt):
                    out.append((frozenset(tgt), frozenset(src), dict(zip(src, images))))
    return out


def brute_force_partial_actions(G, carrier) -> list[SetPartialAction]:
    """Every partial action of G on the carrier, by product and filter."""
    carrier = tuple(range(carrier)) if isinstance(carrier, int) else tuple(carrier)
    n = len(carrier)
    points = tuple(range(n))
    e = G.identity
    inv = [G.inv(g) for g in G.elements()]
    mul = G.table

    slots = []  # one slot per {g, g^-1} pair, g != e
    seen = set()
    for g in G.elements():
        if g == e or g in seen:
            continue
        seen.add(g)
        gi = inv[g]
        if gi == g:
            options = [
                ((g,), (dom,), (m,), (tuple(m.items()),))
                for dom, m in _involution_options(points)
            ]
        else:
            seen.add(gi)
            options = []
            for tgt, src, m in _bijection_options(points):
                m_inv = {v: k for k, v in m.items()}
                options.append(
                    ((g, gi), (tgt, src), (m, m_inv), (tuple(m.items()), tuple(m_inv.items())))
                )
        slots.append(options)

    full = frozenset(points)
    id_map = {x: x for x in points}
    non_identity = [g for g in G.elements() if g != e]

    def consistent(dom, mp, items) -> bool:
        for g in non_identity:
            mg = mp[g]
            Dg_inv = dom[inv[g]]
            row = mul[g]
            for h in non_identity:
                gh = row[h]
                m_gh = mp[gh]
                D_ghinv = dom[inv[gh]]
                for p, y in items[h]:
                    if y in Dg_inv:
                        if p not in D_ghinv:
                            return False
                        if mg[y] != m_gh[p]:
                            return False
        return True

    actions = []
    for choice in itertools.product(*slots):
        dom = [frozenset()] * G.order
        mp = [id_map] * G.order
        items: list = [()] * G.order
        dom[e] = full
        items[e] = tuple(id_map.items())
        for elems, doms, ms, its in choice:
            for g, D, m, it in zip(elems, doms, ms, its):
                dom[g] = D
                mp[g] = m
                items[g] = it
        if consistent(dom, mp, items):
            domains = {g: frozenset(carrier[i] for i in dom[g]) for g in G.elements()}
            maps = {g: {carrier[k]: carrier[v] for k, v in mp[g].items()} for g in G.elements()}
            actions.append(SetPartialAction(G, carrier, domains, maps))
    actions.sort(key=lambda a: a.canonical_key())
    return actions


def _involution_twists(spa, g, aut) -> list[dict]:
    """Every twist assignment of alpha_g, g self-inverse, with
    f(alpha_g(p)) = f(p)^-1: involutive twists on the fixed points, then one
    free twist per 2-cycle, positions ascending, in product order."""
    pos = {x: i for i, x in enumerate(spa.carrier)}
    moved = {pos[p]: pos[q] for p, q in spa.maps[g].items()}
    fixed = [p for p in sorted(moved) if moved[p] == p]
    pairs = [(p, moved[p]) for p in sorted(moved) if p < moved[p]]
    involutions = [f for f in aut.elements() if aut.mul(f, f) == aut.identity]
    out = []
    for on_fixed in itertools.product(involutions, repeat=len(fixed)):
        for on_pairs in itertools.product(aut.elements(), repeat=len(pairs)):
            tw = dict(zip(fixed, on_fixed))
            for (p, q), f in zip(pairs, on_pairs):
                tw[p], tw[q] = f, aut.inv(f)
            out.append(tw)
    return out


def brute_force_algebra_partial_actions(G, n, block) -> list[AlgebraPartialAction]:
    """Every partial action of G on the n-th power of a block: each set
    action from the oracle above, decorated with every twist assignment that
    passes the whole-candidate twist check."""
    aut = block.aut_group
    e = G.identity
    inv = [G.inv(g) for g in G.elements()]
    out = []
    for spa in brute_force_partial_actions(G, n):
        pos = {x: i for i, x in enumerate(spa.carrier)}
        slots = []
        seen = set()
        for g in G.elements():
            if g == e or g in seen:
                continue
            seen.add(g)
            gi = inv[g]
            src = sorted(pos[x] for x in spa.domains[gi])
            if gi == g:
                slots.append(((g,), [(tw,) for tw in _involution_twists(spa, g, aut)]))
            else:
                seen.add(gi)
                opts = []
                for choice in itertools.product(aut.elements(), repeat=len(src)):
                    tw_g = dict(zip(src, choice))
                    tw_gi = {
                        pos[spa.maps[g][spa.carrier[p]]]: aut.inv(f) for p, f in tw_g.items()
                    }
                    opts.append((tw_g, tw_gi))
                slots.append(((g, gi), opts))
        maps_pos = {g: {pos[x]: pos[y] for x, y in spa.maps[g].items()} for g in G.elements()}
        dom_pos = {g: frozenset(pos[x] for x in spa.domains[g]) for g in G.elements()}

        def twists_consistent(tw) -> bool:
            for g in G.elements():
                Dg_inv = dom_pos[inv[g]]
                for h in G.elements():
                    tw_gh = tw[G.mul(g, h)]
                    for p, y in maps_pos[h].items():
                        if y in Dg_inv and aut.mul(tw[g][y], tw[h][p]) != tw_gh[p]:
                            return False
            return True

        for combo in itertools.product(*(opts for _, opts in slots)):
            tw = {e: {p: aut.identity for p in range(n)}}
            for (elems, _), choice in zip(slots, combo):
                tw.update(zip(elems, choice))
            if not twists_consistent(tw):
                continue
            algebra = block_power(block, n)
            maps = {
                g: WreathMap(
                    algebra.ideal(dom_pos[inv[g]]),
                    algebra.ideal(dom_pos[g]),
                    dict(maps_pos[g]),
                    dict(tw[g]),
                )
                for g in G.elements()
            }
            out.append(AlgebraPartialAction(G, algebra, dict(dom_pos), maps))
    return out
