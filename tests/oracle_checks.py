"""Checks kept as test oracles, in the form the package replaced.

The package checks associativity, the set and wreath action laws and the
cocycle identities of a coset factorization with the middle or right factor
restricted to a generating set.  These are the exhaustive scans they replace:
every triple, or every pair (g, t).  Each returns the first failure it finds,
or None.  ``action_law_failures`` returns every failing pair of the law
that ``groups._law_failures`` checks, point by point over all t.

``lights_test_failure`` and ``generator_cocycle_failure`` are the loops of
``make_group`` and ``coset_factorize`` over a generating set, as they were
before both called ``groups._law_failures``: the middle factor, or t, is
the outer loop, and the j identity is checked before the h identity.  The
package must name the failure these loops find first.

The set-layer axiom verifier and envelope equivalence search below are the
separate set versions that the package now runs through the code it shares
with block algebras.  They take witnesses in set iteration order, so only
their pass/fail flags and None-or-not results are compared.

Both verifiers decide valid input from orbit data and scan the axioms only
for witnesses; ``scanned_report`` runs them with that certificate refused,
so that the scan decides every item, as it did before the certificate.

``wreath_composite`` is ``wreath_compose`` as it was before it built its
composite without the constructor's checks: the composite goes through the
``WreathMap`` constructor.

``wreath_map_checks`` and ``global_set_action_checks`` are the constructor
checks of ``WreathMap`` and ``GlobalSetAction`` entry by entry, in the form
the package replaced with whole-set and whole-list operations.  They raise
what the constructors raise, with the same messages.

``_name_index``, ``_resolve_element`` and ``resolve_twist_name`` are the
document parser's own element resolution, which rebuilt a name index for
every action and every twist entry; the parser now resolves through
``FiniteGroup.resolve`` and ``FiniteGroup.element_by_name``.  Unlike the
group, ``_resolve_element`` takes a bool as the index it equals.
"""

from __future__ import annotations

from typing import Optional
from unittest import mock

from partial_actions import set_actions
from partial_actions.block_algebras import WreathMap, wreath_compose
from partial_actions.errors import (
    ClassMismatch,
    CompositionMismatch,
    DocumentError,
    GroupMismatch,
    MalformedInput,
)
from partial_actions.groups import _right_generators
from partial_actions.reporting import VerificationReport


def _refuse(*args):
    raise MalformedInput("certificate refused")


def scanned_report(verify, action) -> VerificationReport:
    """verify(action) with the orbit-data certificate refused, so that the
    axiom scan alone builds the report."""
    with mock.patch.object(set_actions, "_orbit_data", _refuse):
        return verify(action)


def wreath_map_checks(source, target, position_map, twists) -> None:
    """The checks of the ``WreathMap`` constructor, one position at a time:
    support, bijection, class and automorphism group of every pair of
    blocks, twist keys, then the type and range of every twist.  Positions
    and twists are exact ints: a bool or a float equal to one is none."""
    pm = dict(position_map)
    tw = dict(twists)
    if set(pm) != set(source.support) or any(type(p) is not int for p in pm):
        raise MalformedInput("position map keys must be exactly the source support")
    images = list(pm.values())
    if (
        set(images) != set(target.support) or len(set(images)) != len(pm)
        or any(type(q) is not int for q in images)
    ):
        raise MalformedInput("position map is not a bijection onto the target support")
    for p, q in pm.items():
        src_block = source.algebra.blocks[p]
        tgt_block = target.algebra.blocks[q]
        if src_block.iso_class != tgt_block.iso_class:
            raise ClassMismatch(
                f"position {p} ({src_block.iso_class}) cannot map onto "
                f"position {q} ({tgt_block.iso_class})"
            )
        if src_block.aut_group != tgt_block.aut_group:
            raise ClassMismatch(f"blocks at {p} and {q} share a label but not automorphisms")
    if set(tw) != set(pm):
        raise MalformedInput("twists must be indexed exactly by the source support")
    for p, f in tw.items():
        if not (type(f) is int and 0 <= f < source.algebra.blocks[p].aut_group.order):
            raise MalformedInput(f"twist at {p} is not an automorphism index")


def wreath_composite(w2, w1) -> WreathMap:
    """w2 ∘ w1 built through the constructor, which checks it: positions
    compose, and the twist at p is tw2[q] * tw1[p] in the table of the
    block at p."""
    if w1.target != w2.source:
        raise CompositionMismatch("target of the first map differs from source of the second")
    blocks = w1.source.algebra.blocks
    pm = {p: w2.position_map[q] for p, q in w1.position_map.items()}
    tw = {p: blocks[p].aut_group.mul(w2.twists[q], w1.twists[p])
          for p, q in w1.position_map.items()}
    return WreathMap(w1.source, w2.target, pm, tw)


def global_set_action_checks(group, carrier, maps) -> None:
    """The checks of the ``GlobalSetAction`` constructor, one entry at a
    time: the carrier and element checks of ``SetPartialAction`` (a missing
    identity map is the identity; every point lies in the carrier, then
    every point has the type of the carrier point it equals), every map a
    bijection of the carrier, the identity acting trivially, then the action
    law for every g, every generator t and every point x, g the outer loop."""
    carrier = tuple(carrier)
    try:
        distinct = len(set(carrier))
    except TypeError:
        raise MalformedInput("carrier contains an unhashable point") from None
    if distinct != len(carrier):
        raise MalformedInput("carrier contains duplicate points")
    full = frozenset(carrier)
    maps = dict(maps)
    for g in maps:
        if type(g) is not int or not 0 <= g < group.order:
            raise MalformedInput(f"unknown group element {g!r}")
    e = group.identity
    normalized = {}
    for g in group.elements():
        try:
            m = dict(maps[g]) if g in maps else {x: x for x in full} if g == e else {}
        except (TypeError, ValueError):  # 5 or "ab" is no map
            raise MalformedInput(f"map of {group.name(g)} leaves the carrier") from None
        for k, v in m.items():
            try:
                inside = k in full and v in full
            except TypeError:  # an unhashable point lies in no carrier
                inside = False
            if not inside:
                raise MalformedInput(f"map of {group.name(g)} leaves the carrier")
        normalized[g] = m
    point = {x: x for x in carrier}  # True equals 1, but is not the point 1
    for g in group.elements():
        for k, v in normalized[g].items():
            if type(k) is not type(point[k]) or type(v) is not type(point[v]):
                raise MalformedInput(f"map of {group.name(g)} leaves the carrier")
    for g in group.elements():
        m = normalized[g]
        if set(m) != full or set(m.values()) != full:
            raise MalformedInput(f"map of {group.name(g)} is not a bijection of the carrier")
    if any(normalized[e][x] != x for x in carrier):
        raise MalformedInput("identity element does not act as the identity map")
    for g in group.elements():
        for t in group.generators:
            gt = group.mul(g, t)
            for x in carrier:
                if normalized[g][normalized[t][x]] != normalized[gt][x]:
                    raise MalformedInput(
                        f"action law fails: {group.name(g)}*{group.name(t)} at {x!r}"
                    )


def associativity_failure(table):
    """First (a, b, c) with (a*b)*c != a*(b*c), over all triples."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def lights_test_failure(table, identity):
    """First (a, b, c) with (a*b)*c != a*(b*c), b over the generating set
    that ``make_group`` uses, then a, then c."""
    n = len(table)
    for b in _right_generators(table, identity):
        for a in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def action_law_failures(table, maps, images, twists=None, mul=None):
    """Every (g, t), over all pairs, where beta_g∘beta_t != beta_gt at some
    point p of the order of ``images``, in the data layout of
    ``groups._law_failures``; with twists, p is also the position."""
    failures = set()
    for g in range(len(table)):
        for t in range(len(table)):
            gt = table[g][t]
            for p, y in enumerate(images[t]):
                if maps[g][y] != images[gt][p] or (
                    twists is not None and mul[twists[g][y]][twists[t][p]] != twists[gt][p]
                ):
                    failures.add((g, t))
    return failures


def set_action_law_failure(group, carrier, maps):
    """First (g, t, x) with alpha_g(alpha_t(x)) != alpha_gt(x), over all pairs;
    (e, e, x) when the identity moves x."""
    e = group.identity
    for x in carrier:
        if maps[e][x] != x:
            return (e, e, x)
    for g in group.elements():
        for t in group.elements():
            gt = group.mul(g, t)
            for x in carrier:
                if maps[g][maps[t][x]] != maps[gt][x]:
                    return (g, t, x)
    return None


def wreath_action_law_failure(group, action):
    """First (g, t) with beta_g∘beta_t != beta_gt, over all pairs; (e, e) when
    beta_e is not the identity."""
    e = group.identity
    if not action[e].is_identity():
        return (e, e)
    for g in group.elements():
        for t in group.elements():
            if wreath_compose(action[g], action[t]) != action[group.mul(g, t)]:
                return (g, t)
    return None


def transversal_reps(G, H):
    """The identity, then the least element of every other left coset of H,
    ascending: each element joins when no earlier representative r has
    r^-1*g in H."""
    reps = [G.identity]
    for g in G.elements():
        if all(G.mul(G.inv(r), g) not in H for r in reps):
            reps.append(g)
    return reps


def factor_tables(G, H, reps):
    """j and h tables of g*g_i = j*h, computed directly from the table, in the
    layout of ``CosetFactorization``: j as positions in ``reps``, h as
    elements.  The coset of p = g*g_i is found by brute force, as the first
    i with reps[i]^-1*p in H."""
    j_table, h_table = [], []
    for g in G.elements():
        j_row, h_row = [], []
        for g_i in reps:
            p = G.mul(g, g_i)
            pos = next(i for i, r in enumerate(reps) if G.mul(G.inv(r), p) in H)
            j_row.append(pos)
            h_row.append(G.mul(G.inv(reps[pos]), p))
        j_table.append(j_row)
        h_table.append(h_row)
    return j_table, h_table


def cocycle_failure(G, j_table, h_table):
    """First (g, t, i) where j(gt,g_i) = j(g,j(t,g_i)) or
    h(gt,g_i) = h(g,j(t,g_i))*h(t,g_i) fails, over all pairs."""
    for g in G.elements():
        for t in G.elements():
            gt = G.mul(g, t)
            for i in range(len(j_table[0])):
                mid = j_table[t][i]
                if j_table[gt][i] != j_table[g][mid]:
                    return (g, t, i)
                if h_table[gt][i] != G.mul(h_table[g][mid], h_table[t][i]):
                    return (g, t, i)
    return None


def generator_cocycle_failure(G, j_table, h_table):
    """First (g, t, identity) where the j or the h cocycle identity fails,
    t over ``G.generators``, then g, the j identity before h; identity is
    "j" or "h"."""
    for t in G.generators:
        j_t, h_t = j_table[t], h_table[t]
        for g in G.elements():
            gt = G.mul(g, t)
            if list(j_table[gt]) != [j_table[g][mid] for mid in j_t]:
                return (g, t, "j")
            if list(h_table[gt]) != [G.mul(h_table[g][mid], h) for mid, h in zip(j_t, h_t)]:
                return (g, t, "h")
    return None


def _alpha_inverse_image(spa, h, points) -> set:
    """alpha_h^-1 of the given points, by inverting the map of h directly."""
    inv_items = {v: k for k, v in spa.maps[h].items()}
    return {inv_items[y] for y in points if y in inv_items}


def verify_partial_action(candidate) -> VerificationReport:
    """The set axioms and derived identities, itemized, as a separate scan."""
    G = candidate.group
    X = frozenset(candidate.carrier)
    e = G.identity
    for g in G.elements():
        m = candidate.maps[g]
        src = candidate.domains[G.inv(g)]
        tgt = candidate.domains[g]
        if set(m) != src:
            raise MalformedInput(
                f"map of {G.name(g)} is defined on {sorted(map(repr, m))}, "
                f"not on its stated source D_{{{G.name(G.inv(g))}}}"
            )
        if set(m.values()) != tgt or len(set(m.values())) != len(m):
            raise MalformedInput(
                f"map of {G.name(g)} is not a bijection onto its stated codomain"
            )
    report = VerificationReport("set partial action")

    witness = None
    if candidate.domains[e] != X:
        missing = next(iter(X - candidate.domains[e]))
        witness = f"D_e omits {missing!r}"
    elif any(candidate.maps[e][x] != x for x in X):
        x = next(x for x in X if candidate.maps[e][x] != x)
        witness = f"alpha_e moves {x!r}"
    report.add("axiom (i): identity domain and map", witness is None, witness)

    witness_ii = None
    witness_iii = None
    for g in G.elements():
        if witness_ii and witness_iii:
            break
        Dg_inv = candidate.domains[G.inv(g)]
        for h in G.elements():
            gh = G.mul(g, h)
            overlap = candidate.domains[h] & Dg_inv
            pre = _alpha_inverse_image(candidate, h, overlap)
            for x in pre:
                if x not in candidate.domains[G.inv(gh)]:
                    if witness_ii is None:
                        witness_ii = (
                            f"g={G.name(g)}, h={G.name(h)}: {x!r} outside "
                            f"D_{{({G.name(g)}{G.name(h)})^-1}}"
                        )
                    continue
                if candidate.maps[g][candidate.maps[h][x]] != candidate.maps[gh][x]:
                    if witness_iii is None:
                        witness_iii = (
                            f"g={G.name(g)}, h={G.name(h)}, x={x!r}: "
                            f"alpha_g(alpha_h(x)) != alpha_gh(x)"
                        )
    report.add("axiom (ii): domain compatibility", witness_ii is None, witness_ii)
    report.add("axiom (iii): composition on overlaps", witness_iii is None, witness_iii)

    witness_int = None
    for g in G.elements():
        for h in G.elements():
            lhs = {
                candidate.maps[g][x]
                for x in candidate.domains[G.inv(g)] & candidate.domains[h]
            }
            rhs = candidate.domains[g] & candidate.domains[G.mul(g, h)]
            if lhs != rhs:
                witness_int = (
                    f"g={G.name(g)}, h={G.name(h)}: alpha_g(D_g^-1 ∩ D_h) != D_g ∩ D_gh"
                )
                break
        if witness_int:
            break
    report.add("derived: alpha_g(D_g^-1 ∩ D_h) = D_g ∩ D_gh", witness_int is None, witness_int)

    witness_inv = None
    for g in G.elements():
        inverse_of_map = {v: k for k, v in candidate.maps[g].items()}
        if candidate.maps[G.inv(g)] != inverse_of_map:
            witness_inv = f"alpha_{{{G.name(G.inv(g))}}} is not the inverse of alpha_{{{G.name(g)}}}"
            break
    report.add("derived: alpha_g^-1 = alpha_{g^-1}", witness_inv is None, witness_inv)
    return report


def envelopes_equivalent(a, b) -> Optional[dict[int, int]]:
    """An equivariant bijection between two set envelopes commuting with the
    embeddings, or None: propagation from the embeddings, then backtracking."""
    if a.envelope.group != b.envelope.group:
        raise GroupMismatch("envelopes are over different groups")
    if set(a.embedding) != set(b.embedding):
        raise MalformedInput("envelopes embed different carriers")
    G = a.envelope.group
    pa, pb = list(a.envelope.carrier), list(b.envelope.carrier)
    if len(pa) != len(pb):
        return None

    def propagate(fwd: dict[int, int]) -> Optional[dict[int, int]]:
        fwd = dict(fwd)
        used = set(fwd.values())
        if len(used) != len(fwd):
            return None
        queue = list(fwd)
        while queue:
            p = queue.pop()
            for g in G.elements():
                q = a.envelope.maps[g][p]
                target = b.envelope.maps[g][fwd[p]]
                if q in fwd:
                    if fwd[q] != target:
                        return None
                else:
                    if target in used:
                        return None
                    fwd[q] = target
                    used.add(target)
                    queue.append(q)
        return fwd

    seed = {a.embedding[x]: b.embedding[x] for x in a.embedding}
    if len(set(seed.values())) != len(set(seed.keys())):
        return None
    base = propagate(seed)
    if base is None:
        return None

    def extend(fwd: dict[int, int]) -> Optional[dict[int, int]]:
        remaining = [p for p in pa if p not in fwd]
        if not remaining:
            return fwd
        p = remaining[0]
        used = set(fwd.values())
        for q in pb:
            if q in used:
                continue
            nxt = propagate({**fwd, p: q})
            if nxt is not None:
                result = extend(nxt)
                if result is not None:
                    return result
        return None

    full = extend(base)
    if full is None:
        return None
    # final sanity: bijective and equivariant
    if sorted(full.values()) != sorted(pb):
        return None
    for g in G.elements():
        for p in pa:
            if full[a.envelope.maps[g][p]] != b.envelope.maps[g][full[p]]:
                return None
    return full


def _name_index(G, path: str) -> dict[str, int]:
    index = {}
    for i, name in enumerate(G.names):
        if name in index:
            raise DocumentError(f"duplicate element name {name!r}", path)
        index[name] = i
    return index


def _resolve_element(G, names: dict[str, int], ref, path: str) -> int:
    if isinstance(ref, str) and ref in names:
        return names[ref]
    if isinstance(ref, int) and 0 <= ref < G.order:
        return ref
    raise DocumentError(f"unknown group element {ref!r}", path)


def resolve_twist_name(aut, ref: str, path: str) -> int:
    """A twist given by name, as the parser resolved it."""
    aut_names = _name_index(aut, path)
    if ref not in aut_names:
        raise DocumentError(f"unknown automorphism {ref!r}", path)
    return aut_names[ref]
