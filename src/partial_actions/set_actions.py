"""Partial actions of a finite group on a finite set.

A partial action assigns to each group element g a domain D_g of the carrier
and a bijection alpha_g from D_{g^-1} onto D_g, subject to three axioms:

  (i)   D_e is the whole carrier and alpha_e is the identity;
  (ii)  D_{(gh)^-1} contains alpha_h^-1(D_h ∩ D_{g^-1});
  (iii) alpha_g(alpha_h(x)) = alpha_{gh}(x) on that same set.

Domains are stored totally: every group element has an entry, empty domains
included.  Two derived identities, alpha_g(D_{g^-1} ∩ D_h) = D_g ∩ D_{gh}
and alpha_{g^-1} = alpha_g^-1, are consequences of the axioms and are checked
alongside them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    GroupMismatch,
    InternalInconsistency,
    MalformedInput,
    NotASubgroup,
    SizeLimit,
)
from .groups import FiniteGroup, Subgroup
from .reporting import VerificationReport

Point = Hashable

ENUM_MAX_GROUP = 6
ENUM_MAX_CARRIER = 4


class SetPartialAction:
    """Candidate partial action data; run :func:`verify_partial_action` to
    check the axioms.

    Construction normalizes the data (missing domains become empty, the
    identity defaults to the full carrier with the identity map) and rejects
    references to unknown group elements or points, but deliberately does not
    enforce the axioms, so that broken candidates can be built and reported
    on.
    """

    def __init__(
        self,
        group: FiniteGroup,
        carrier: Sequence[Point],
        domains: Optional[Mapping[int, Iterable[Point]]] = None,
        maps: Optional[Mapping[int, Mapping[Point, Point]]] = None,
    ):
        self.group = group
        self.carrier = tuple(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise MalformedInput("carrier contains duplicate points")
        carrier_set = frozenset(self.carrier)
        e = group.identity
        doms: dict[int, frozenset] = {}
        mps: dict[int, dict] = {}
        domains = dict(domains or {})
        maps = dict(maps or {})
        for g in list(domains) + list(maps):
            if not (0 <= g < group.order):
                raise MalformedInput(f"unknown group element {g}")
        for g in group.elements():
            if g in domains:
                D = frozenset(domains[g])
            elif g == e:
                D = carrier_set
            else:
                D = frozenset()
            if not D <= carrier_set:
                raise MalformedInput(f"domain of {group.name(g)} leaves the carrier")
            doms[g] = D
        for g in group.elements():
            if g in maps:
                m = dict(maps[g])
            elif g == e:
                m = {x: x for x in doms[e]}
            else:
                m = {}
            for k, v in m.items():
                if k not in carrier_set or v not in carrier_set:
                    raise MalformedInput(f"map of {group.name(g)} leaves the carrier")
            mps[g] = m
        self.domains = doms
        self.maps = mps
        self._pos = {x: i for i, x in enumerate(self.carrier)}

    def is_global(self) -> bool:
        full = frozenset(self.carrier)
        return all(self.domains[g] == full for g in self.group.elements())

    def canonical_key(self):
        """Deterministic sort key; two actions are equal iff keys are equal
        (given the same group and carrier)."""
        key = []
        for g in self.group.elements():
            dom = tuple(sorted(self._pos[x] for x in self.domains[g]))
            pairs = tuple(sorted((self._pos[k], self._pos[v]) for k, v in self.maps[g].items()))
            key.append((dom, pairs))
        return tuple(key)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartialAction)
            and self.group == other.group
            and self.carrier == other.carrier
            and self.domains == other.domains
            and self.maps == other.maps
        )

    def __repr__(self) -> str:
        nonempty = sum(1 for g in self.group.elements() if self.domains[g])
        return (
            f"{type(self).__name__}(group_order={self.group.order}, "
            f"carrier={list(self.carrier)!r}, nonempty_domains={nonempty})"
        )


class GlobalSetAction(SetPartialAction):
    """An ordinary group action: every domain is the full carrier.

    The constructor checks that every map is a bijection of the carrier, that
    the identity acts trivially and that the action law
    alpha_g(alpha_t(x)) = alpha_gt(x) holds, and raises MalformedInput when
    one fails.  The law is checked for every g and x and for t in
    ``group.generators``, which is exact: every t is t's with s a generator
    and t' shorter (or t = e, covered by the identity check), and by
    induction on the length of t, since composition of maps is associative,
    alpha_g∘alpha_t = (alpha_g∘alpha_t')∘alpha_s = alpha_gt'∘alpha_s = alpha_gt.
    """

    def __init__(self, group, carrier, maps):
        super().__init__(
            group,
            carrier,
            domains={g: carrier for g in group.elements()},
            maps=maps,
        )
        full = frozenset(self.carrier)
        for g in group.elements():
            m = self.maps[g]
            if set(m) != full or set(m.values()) != full:
                raise MalformedInput(f"map of {group.name(g)} is not a bijection of the carrier")
        e = group.identity
        if any(self.maps[e][x] != x for x in self.carrier):
            raise MalformedInput("identity element does not act as the identity map")
        for g in group.elements():
            for t in group.generators:
                gt = group.mul(g, t)
                for x in self.carrier:
                    if self.maps[g][self.maps[t][x]] != self.maps[gt][x]:
                        raise MalformedInput(
                            f"action law fails: {group.name(g)}*{group.name(t)} at {x!r}"
                        )


def _alpha_inverse_image(spa: SetPartialAction, h: int, points: Iterable[Point]) -> set:
    """alpha_h^-1 of the given points, by inverting the map of h directly."""
    inv_items = {v: k for k, v in spa.maps[h].items()}
    return {inv_items[y] for y in points if y in inv_items}


def verify_partial_action(candidate: SetPartialAction) -> VerificationReport:
    """Check the partial-action axioms and derived identities, itemized.

    Raises:
        MalformedInput: a map is not a bijection from D_{g^-1} onto D_g.
    """
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


def restrict_global(global_action: GlobalSetAction, subset: Iterable[Point]) -> SetPartialAction:
    """Restrict a global action to a subset: D_g = subset ∩ beta_g(subset)."""
    sub = frozenset(subset)
    if not sub <= frozenset(global_action.carrier):
        raise MalformedInput("subset leaves the carrier")
    G = global_action.group
    order = [x for x in global_action.carrier if x in sub]
    domains = {}
    maps = {}
    for g in G.elements():
        beta_g = global_action.maps[g]
        domains[g] = sub & {beta_g[y] for y in sub}
        maps[g] = {x: beta_g[x] for x in sub if beta_g[x] in sub}
    return SetPartialAction(G, tuple(order), domains, maps)


def extend_by_zero(action_of_h: SetPartialAction, subgroup: Subgroup) -> SetPartialAction:
    """Extend a partial action of a subgroup H to all of G by empty domains.

    ``action_of_h`` must be an action of ``subgroup.as_group()``; element k of
    that group corresponds to ``subgroup.members[k]``.

    Raises:
        NotASubgroup: the action's group does not match the subgroup.
    """
    H = subgroup
    G = H.parent
    if action_of_h.group != H.as_group():
        raise NotASubgroup("the action is not over the given subgroup")
    domains = {}
    maps = {}
    for k, member in enumerate(H.members):
        domains[member] = action_of_h.domains[k]
        maps[member] = dict(action_of_h.maps[k])
    return SetPartialAction(G, action_of_h.carrier, domains, maps)


def global_part(spa: SetPartialAction) -> tuple[Subgroup, GlobalSetAction]:
    """The subgroup H = {h : D_h = X} together with the restricted action,
    which is a genuine global action of H.

    Raises:
        InternalInconsistency: if H fails the subgroup check or the
            restriction fails the action law, which cannot happen for a valid
            partial action.
    """
    G = spa.group
    X = frozenset(spa.carrier)
    members = tuple(g for g in G.elements() if spa.domains[g] == X)
    try:
        H = Subgroup(G, members)
    except NotASubgroup as exc:
        raise InternalInconsistency(f"full-domain set is not a subgroup: {exc}") from exc
    sub_maps = {k: dict(spa.maps[member]) for k, member in enumerate(H.members)}
    try:
        action = GlobalSetAction(H.as_group(), spa.carrier, sub_maps)
    except MalformedInput as exc:
        raise InternalInconsistency(f"restriction to H is not an action: {exc}") from exc
    return H, action


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


class SetGlobalization:
    """A global action enveloping a set partial action.

    The envelope carrier is 0..m-1, one point per equivalence class of
    (g, x) pairs; ``orbit_witness[c]`` is a pair (g, x) with point c equal to
    beta_g(embedding[x]) — the lexicographically least pair of the class.
    ``pair_class[(g, x)]`` resolves every pair to its class.
    """

    def __init__(
        self,
        source: SetPartialAction,
        envelope: GlobalSetAction,
        embedding: dict[Point, int],
        orbit_witness: tuple[tuple[int, Point], ...],
        pair_class: dict[tuple[int, Point], int],
    ):
        self.source = source
        self.envelope = envelope
        self.embedding = dict(embedding)
        self.orbit_witness = orbit_witness
        self.pair_class = dict(pair_class)

    @property
    def size(self) -> int:
        return len(self.envelope.carrier)

    def __repr__(self) -> str:
        return f"SetGlobalization(size={self.size}, embedded={len(self.embedding)})"


def globalize_set(spa: SetPartialAction) -> SetGlobalization:
    """Envelope of a set partial action via the quotient of G x X.

    Pairs (g, x) and (t, y) are identified when x ∈ D_{g^-1 t} and
    alpha_{t^-1 g}(x) = y; the envelope action is t·[g, x] = [tg, x] and the
    embedding sends x to [e, x].  The restriction of the envelope to the
    embedded carrier reproduces the input exactly, and the envelope has at
    most |G|·|X| points.
    """
    G = spa.group
    X = spa.carrier
    n = len(X)
    order = G.order
    pos = {x: i for i, x in enumerate(X)}
    uf = _UnionFind(order * n)
    # (g, x) ~ (g*s, alpha_{s^-1}(x)) for every x in D_s
    for s in G.elements():
        s_inv = G.inv(s)
        m = spa.maps[s_inv]  # alpha_{s^-1}: D_s -> D_{s^-1}
        for x in spa.domains[s]:
            y = m.get(x)
            if y is None:
                continue  # malformed candidate; surfaced via the action-law check
            yi = pos[y]
            xi = pos[x]
            for g in G.elements():
                uf.union(g * n + xi, G.mul(g, s) * n + yi)
    roots = sorted({uf.find(i) for i in range(order * n)})
    class_of_root = {root: c for c, root in enumerate(roots)}
    pair_class = {}
    for g in G.elements():
        for i, x in enumerate(X):
            pair_class[(g, x)] = class_of_root[uf.find(g * n + i)]
    witnesses: list[Optional[tuple[int, Point]]] = [None] * len(roots)
    for g in G.elements():
        for x in X:
            c = pair_class[(g, x)]
            if witnesses[c] is None:
                witnesses[c] = (g, x)  # scan order is (g, position): lex least
    maps = {}
    for t in G.elements():
        maps[t] = {
            c: pair_class[(G.mul(t, g), x)] for c, (g, x) in enumerate(witnesses)
        }
    envelope = GlobalSetAction(G, tuple(range(len(roots))), maps)
    e = G.identity
    embedding = {x: pair_class[(e, x)] for x in X}
    return SetGlobalization(spa, envelope, embedding, tuple(witnesses), pair_class)


def verify_set_globalization(spa: SetPartialAction, sg: SetGlobalization) -> VerificationReport:
    """Check the enveloping-action conditions transported to sets: injective
    embedding, orbit coverage, D_g = image ∩ beta_g(image), equivariance."""
    G = spa.group
    report = VerificationReport("set globalization")
    image = set(sg.embedding.values())
    inj = len(image) == len(spa.carrier) and set(sg.embedding) == set(spa.carrier)
    report.add("embedding is injective on the carrier", inj, None if inj else "image collapses")

    covered = set()
    for g in G.elements():
        covered |= {sg.envelope.maps[g][p] for p in image}
    covers = covered == set(sg.envelope.carrier)
    report.add(
        "orbit of the embedded carrier covers the envelope",
        covers,
        None if covers else f"unreached points {sorted(set(sg.envelope.carrier) - covered)}",
    )

    witness = None
    for g in G.elements():
        lhs = {sg.embedding[x] for x in spa.domains[g]}
        rhs = image & {sg.envelope.maps[g][p] for p in image}
        if lhs != rhs:
            witness = f"g={G.name(g)}"
            break
    report.add("embedded D_g = image ∩ beta_g(image)", witness is None, witness)

    witness = None
    for g in G.elements():
        for x in spa.domains[G.inv(g)]:
            if sg.embedding[spa.maps[g][x]] != sg.envelope.maps[g][sg.embedding[x]]:
                witness = f"g={G.name(g)}, x={x!r}"
                break
        if witness:
            break
    report.add("beta_g extends alpha_g on embedded domains", witness is None, witness)
    return report


def envelopes_equivalent(a: SetGlobalization, b: SetGlobalization) -> Optional[dict[int, int]]:
    """An equivariant bijection between two envelopes commuting with the
    embeddings, or None when no such bijection exists.

    Assignments forced by the embeddings are propagated through the group
    action first; any points left over (possible only when an envelope is not
    covered by the orbit of its embedding) are matched by backtracking.
    """
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


# --- enumeration by backtracking --------------------------------------------

def _inverse_slots(G: FiniteGroup) -> list[tuple[int, ...]]:
    """One slot per {g, g^-1} pair with g != e, in element order: (g,) when g
    is an involution, (g, g^-1) otherwise."""
    slots = []
    seen = {G.identity}
    for g in G.elements():
        if g not in seen:
            slots.append((g,) if G.inv(g) == g else (g, G.inv(g)))
            seen.update(slots[-1])
    return slots


def _backtrack(
    G: FiniteGroup,
    slots: Sequence[tuple[int, ...]],
    options: Sequence[Sequence[tuple]],
    identity_value,
    row_ok: Callable[[list, int, int, int], bool],
) -> list[tuple[int, ...]]:
    """Every choice of one option per slot whose rows all pass ``row_ok``.

    ``options[s][i]`` holds one value per element of ``slots[s]``; the values
    of the placed elements are kept in a list indexed by group element, with
    ``identity_value`` at e.  ``row_ok(assignment, g, h, gh)`` checks the row
    (g, h) for g, h != e (gh = e included).  Slots are placed greedily: next
    comes the slot that closes the most rows, ties to the lower index.  Each
    row is checked once, at the depth where the last of g, h and gh is
    placed, and a prefix is dropped at its first failing row.

    Returns the surviving choices as option-index tuples in slot order,
    sorted, which is ``itertools.product`` order with the failures removed.
    """
    if not slots:
        return [()]
    e = G.identity
    open_rows = [
        (g, h, G.mul(g, h)) for g in G.elements() if g != e for h in G.elements() if h != e
    ]
    placed = {e}
    order: list[int] = []
    buckets: list[list[tuple[int, int, int]]] = []
    pending = list(range(len(slots)))
    while pending:
        best, best_rows = -1, None
        for s in pending:
            now = placed.union(slots[s])
            rows = [row for row in open_rows if now.issuperset(row)]
            if best_rows is None or len(rows) > len(best_rows):
                best, best_rows = s, rows
        pending.remove(best)
        placed.update(slots[best])
        order.append(best)
        buckets.append(best_rows)
        open_rows = [row for row in open_rows if not placed.issuperset(row)]

    depth_of = sorted(range(len(slots)), key=order.__getitem__)
    last = len(slots) - 1
    assignment = [None] * G.order
    assignment[e] = identity_value
    chosen = [-1] * len(slots)  # the stack: option index per depth
    leaves = []
    depth = 0
    while depth >= 0:
        s = order[depth]
        i = chosen[depth] + 1
        if i == len(options[s]):
            chosen[depth] = -1
            depth -= 1
            continue
        chosen[depth] = i
        for g, value in zip(slots[s], options[s][i]):
            assignment[g] = value
        for g, h, gh in buckets[depth]:
            if not row_ok(assignment, g, h, gh):
                break
        else:
            if depth == last:
                leaves.append(tuple(chosen[d] for d in depth_of))
            else:
                depth += 1
    leaves.sort()
    return leaves


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


def enumerate_partial_actions(
    G: FiniteGroup,
    carrier: Union[int, Sequence[Point]],
) -> list[SetPartialAction]:
    """The complete, duplicate-free, canonically ordered list of partial
    actions of G on the carrier (an integer n means carrier 0..n-1).

    Each {g, g^-1} slot ranges over every (domain, bijection) choice.  The
    axioms reduce to one row rule per (g, h) with g, h != e: every
    y = alpha_h(p) in D_{g^-1} needs p in D_{(gh)^-1} and
    alpha_g(y) = alpha_gh(p).  A depth-first search places the slots in a
    greedy order fixed by the group table (next the slot that closes the
    most rows) and drops a partial choice at its first failing row, so it
    accepts exactly the choices a full product-and-filter would.  The
    output is sorted by ``canonical_key``, so its order does not depend on
    the search order.

    Raises:
        MalformedInput: an integer carrier size is negative, or the carrier
            repeats a point.
        SizeLimit: beyond |G| <= 6 or carriers larger than 4 points.
    """
    if isinstance(carrier, int):
        if carrier < 0:
            raise MalformedInput(f"carrier size {carrier} is negative")
        carrier = tuple(range(carrier))
    else:
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise MalformedInput("carrier contains duplicate points")
    if G.order > ENUM_MAX_GROUP:
        raise SizeLimit(f"enumeration caps the group order at {ENUM_MAX_GROUP}")
    if len(carrier) > ENUM_MAX_CARRIER:
        raise SizeLimit(f"enumeration caps the carrier size at {ENUM_MAX_CARRIER}")
    points = tuple(range(len(carrier)))

    # one value per element: (D_g, D_{g^-1}, alpha_g, alpha_g's (p, y) pairs)
    slots = _inverse_slots(G)
    options = []
    for slot in slots:
        if len(slot) == 1:
            options.append(
                [((dom, dom, m, tuple(m.items())),) for dom, m in _involution_options(points)]
            )
        else:
            pair_options = []
            for tgt, src, m in _bijection_options(points):
                m_inv = {v: k for k, v in m.items()}
                pair_options.append(
                    ((tgt, src, m, tuple(m.items())), (src, tgt, m_inv, tuple(m_inv.items())))
                )
            options.append(pair_options)
    full = frozenset(points)
    id_map = {x: x for x in points}

    def consistent(a: list, g: int, h: int, gh: int) -> bool:
        Dg_inv, mg = a[g][1], a[g][2]
        D_ghinv, m_gh = a[gh][1], a[gh][2]
        for p, y in a[h][3]:
            if y in Dg_inv:
                if p not in D_ghinv:
                    return False
                if mg[y] != m_gh[p]:
                    return False
        return True

    def labelled(value: tuple) -> tuple[frozenset, dict]:
        return (
            frozenset(carrier[i] for i in value[0]),
            {carrier[k]: carrier[v] for k, v in value[2].items()},
        )

    identity_value = (full, full, id_map, tuple(id_map.items()))
    # each option is relabelled once, so actions that share it share its domains
    named = [[tuple(map(labelled, opt)) for opt in opts] for opts in options]
    e = G.identity
    named_identity = labelled(identity_value)
    actions = []
    for leaf in _backtrack(G, slots, options, identity_value, consistent):
        domains, maps = {}, {}
        domains[e], maps[e] = named_identity
        for slot, opts, i in zip(slots, named, leaf):
            for g, (D, m) in zip(slot, opts[i]):
                domains[g], maps[g] = D, m
        actions.append(SetPartialAction(G, carrier, domains, maps))
    actions.sort(key=lambda a: a.canonical_key())
    return actions
