"""Globalization kept as a test oracle, in the form the package replaced.

The package builds envelopes from orbit data: one stabilizer and one coset
space per orbit of positions.  These are the versions it replaced: a
union-find quotient of G x X that joins (g, x) with (gs, alpha_{s^-1}(x))
for every s, and a breadth-first transport of twists along those same
edges.  Both cost O(|G|^2 n).  They skip malformed data instead of raising,
so they are compared with the package on valid input only.  The envelope of
an extension by zero is kept too, assembled directly from the transversal
and the j and h tables, beside the package's one shared assembly.  And the
envelope sizes of a list of actions, from the orbit certificate run on
each, as ``enumerate --envelopes`` computed them before the enumerator
handed over each action's stabilizers.
"""

from __future__ import annotations

from typing import Iterable, Optional

from partial_actions import set_actions
from partial_actions.algebra_actions import (
    GlobalizationResult,
    extend_by_zero_algebra,
    verify_enveloping,
)
from partial_actions.block_algebras import WreathMap, block_power
from partial_actions.errors import InternalInconsistency, TwistTransportConflict
from partial_actions.groups import coset_factorize
from partial_actions.set_actions import GlobalSetAction, SetGlobalization, SetPartialAction


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:  # keep the smallest pair id as root: canonical reps for free
                ra, rb = rb, ra
            self.parent[rb] = ra


def globalize_set(spa) -> SetGlobalization:
    """Envelope of a set partial action via the quotient of G x X.

    Pairs (g, x) and (t, y) are identified when x ∈ D_{g^-1 t} and
    alpha_{t^-1 g}(x) = y; the envelope action is t·[g, x] = [tg, x] and the
    embedding sends x to [e, x].
    """
    G = spa.group
    X = spa.carrier
    n = len(X)
    pos = {x: i for i, x in enumerate(X)}
    uf = _UnionFind(G.order * n)
    # (g, x) ~ (g*s, alpha_{s^-1}(x)) for every x in D_s
    for s in G.elements():
        m = spa.maps[G.inv(s)]  # alpha_{s^-1}: D_s -> D_{s^-1}
        for x in spa.domains[s]:
            y = m.get(x)
            if y is None:
                continue
            for g in G.elements():
                uf.union(g * n + pos[x], G.mul(g, s) * n + pos[y])
    roots = sorted({uf.find(i) for i in range(G.order * n)})
    class_of_root = {root: c for c, root in enumerate(roots)}
    pair_class = {}
    for g in G.elements():
        for i, x in enumerate(X):
            pair_class[(g, x)] = class_of_root[uf.find(g * n + i)]
    witnesses: list[Optional[tuple]] = [None] * len(roots)
    for g in G.elements():
        for x in X:
            c = pair_class[(g, x)]
            if witnesses[c] is None:
                witnesses[c] = (g, x)  # scan order is (g, position): lex least
    maps = {
        t: {c: pair_class[(G.mul(t, g), x)] for c, (g, x) in enumerate(witnesses)}
        for t in G.elements()
    }
    envelope = GlobalSetAction(G, tuple(range(len(roots))), maps)
    embedding = {x: pair_class[(G.identity, x)] for x in X}
    return SetGlobalization(spa, envelope, embedding, tuple(witnesses))


def pair_classes(sg) -> dict:
    """The class of every (g, x) pair of a set globalization, read off its
    move table as beta_g of the embedded x."""
    maps, embedding = sg.envelope.maps, sg.embedding
    return {(g, x): maps[g][c] for g in maps for x, c in embedding.items()}


def same_globalization(a, b) -> bool:
    """Equal witnesses, pair classes, envelope maps and embedding."""
    return (a.orbit_witness, pair_classes(a), a.envelope.maps, a.embedding) == (
        b.orbit_witness, pair_classes(b), b.envelope.maps, b.embedding
    )


def transport_twists(pa, sg) -> dict[tuple[int, int], int]:
    """The twist with which a payload placed at each (g, position) pair's
    envelope block arrives, found breadth first along the identification
    edges from one seed per class: the embedded pair (e, x) when the class
    has one, else its witness, both with the identity twist.

    Raises:
        TwistTransportConflict: two paths give one pair different twists.
    """
    G = pa.group
    e = G.identity
    seeds: dict[int, tuple[int, int]] = {}
    for x in range(pa.algebra.n_blocks):
        seeds.setdefault(sg.embedding[x], (e, x))
    transport: dict[tuple[int, int], int] = {}
    for c, witness in enumerate(sg.orbit_witness):
        seed = seeds.get(c, witness)
        aut = pa.algebra.blocks[seed[1]].aut_group
        transport[seed] = aut.identity
        queue = [seed]
        while queue:
            t, x = queue.pop()
            base = transport[(t, x)]
            for s in G.elements():
                if x not in pa.support(s):
                    continue
                back = pa.maps[G.inv(s)]  # alpha_{s^-1}: S_s -> S_{s^-1}
                nb = (G.mul(t, s), back.position_map[x])
                value = aut.mul(base, aut.inv(back.twists[x]))
                known = transport.get(nb)
                if known is None:
                    transport[nb] = value
                    queue.append(nb)
                elif known != value:
                    raise TwistTransportConflict(f"pair {nb} receives twists {known} and {value}")
    return transport


def globalize_extension_by_zero(block, subgroup, hom) -> GlobalizationResult:
    """Envelope of the extension by zero of a global subgroup action on one
    block: one copy of the block per transversal representative, with beta_g
    moving the g_i component to the j(g,g_i) component under the twist
    hom(h(g,g_i)), and the block embedded at the identity's component."""
    pa = extend_by_zero_algebra(block, subgroup, hom)
    blk = pa.algebra.blocks[0]
    G = subgroup.parent
    cf = coset_factorize(G, subgroup)
    m = len(cf.reps)
    envelope = block_power(blk, m)
    full = envelope.full_ideal()
    hom = dict(hom)
    action = {}
    for g in G.elements():
        pm = {i: cf.j_table[g][i] for i in range(m)}
        twists = {i: hom[cf.h_table[g][i]] for i in range(m)}
        action[g] = WreathMap(full, full, pm, twists)
    embedding = WreathMap(
        pa.algebra.full_ideal(),
        envelope.ideal({0}),
        {0: 0},
        {0: blk.aut_group.identity},
    )
    candidate = {"envelope": envelope, "action": action, "embedding": embedding}
    checks = verify_enveloping(pa, candidate)
    if not checks.ok:
        raise InternalInconsistency("constructed envelope failed its own checks")
    provenance = tuple(G.name(r) for r in cf.reps)
    return GlobalizationResult(pa, envelope, provenance, action, embedding, checks)


def envelope_sizes(actions: Iterable[SetPartialAction]) -> list[int]:
    """``globalize_set(a).size`` for each action, from the stabilizers of
    the orbit certificate ``set_actions._orbit_data`` run on each, and one
    package ``globalize_set`` per distinct (group, stabilizer) on the point
    0.  An action that is no partial action raises MalformedInput from the
    certificate, with its message."""
    memos: dict = {}  # group -> stabilizer -> envelope size
    sizes = []
    for a in actions:
        G = a.group
        memo = memos.setdefault(G, {})
        size = 0
        for orbit in set_actions._orbit_data(G, a.carrier, a.domains, a.maps)[0]:
            H = orbit.stabilizer
            if H not in memo:
                point = SetPartialAction(G, (0,), dict.fromkeys(H, (0,)), dict.fromkeys(H, {0: 0}))
                memo[H] = set_actions.globalize_set(point).size
            size += memo[H]
        sizes.append(size)
    return sizes
