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
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    GroupMismatch,
    InternalInconsistency,
    MalformedInput,
    NotASubgroup,
    SizeLimit,
    TwistTransportConflict,
)
from .groups import FiniteGroup, Subgroup, _cosets, all_subgroups, coset_factorize
from .reporting import VerificationReport

Point = Hashable

ENUM_MAX_GROUP = 6
ENUM_MAX_CARRIER = 4


def _check_points(carrier: tuple) -> None:
    """Raise MalformedInput unless the carrier's points are hashable and distinct."""
    try:
        distinct = len(set(carrier))
    except TypeError:  # a list point, say, is no set member
        raise MalformedInput("carrier contains an unhashable point") from None
    if distinct != len(carrier):
        raise MalformedInput("carrier contains duplicate points")


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
        _check_points(self.carrier)
        carrier_set = frozenset(self.carrier)
        e = group.identity
        doms: dict[int, frozenset] = {}
        mps: dict[int, dict] = {}
        domains = dict(domains or {})
        maps = dict(maps or {})
        order = group.order
        for g in [*domains, *maps]:  # 1.0 and True are equal to 1, but name no element
            if type(g) is not int or not 0 <= g < order:
                raise MalformedInput(f"unknown group element {g!r}")
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
            try:
                inside = m.keys() <= carrier_set and carrier_set.issuperset(m.values())
            except TypeError:  # an unhashable image: the loop raises as it always has
                inside = False
            if not inside:
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

    The constructor checks, in this order, that every map is a bijection of
    the carrier, that the identity acts trivially and that the action law
    alpha_g(alpha_t(x)) = alpha_gt(x) holds, and raises MalformedInput at
    the first failure.  The law is checked for every g and x and for t in
    ``group.generators``, which is exact: every t is t's with s a generator
    and t' shorter (or t = e, covered by the identity check), and by
    induction on the length of t, since composition of maps is associative,
    alpha_g∘alpha_t = (alpha_g∘alpha_t')∘alpha_s = alpha_gt'∘alpha_s = alpha_gt.

    Each check is a whole-set or whole-list operation: one set comparison
    per map, then, with each map read once as the list of its images in
    carrier order, one list comparison per pair (g, t), g the outer loop.
    That is O(|G|·|S|·n) for n points and |S| <= log2 |G| generators, with
    the per-point loop run only to name the first failing x.
    ``tests/oracle_checks.py`` keeps the per-point loop as the oracle.
    """

    def __init__(self, group, carrier, maps):
        full = frozenset(carrier)
        super().__init__(group, carrier, domains=dict.fromkeys(group.elements(), full), maps=maps)
        for g in group.elements():
            m = self.maps[g]
            if m.keys() != full or set(m.values()) != full:
                raise MalformedInput(f"map of {group.name(g)} is not a bijection of the carrier")
        carrier = self.carrier
        images = [list(map(self.maps[g].__getitem__, carrier)) for g in group.elements()]
        if images[group.identity] != list(carrier):
            raise MalformedInput("identity element does not act as the identity map")
        for g in group.elements():
            m_g, row = self.maps[g], group.table[g]
            for t in group.generators:
                if list(map(m_g.__getitem__, images[t])) != images[row[t]]:
                    x = _first(
                        x for x, y, z in zip(carrier, images[t], images[row[t]]) if m_g[y] != z
                    )
                    raise MalformedInput(
                        f"action law fails: {group.name(g)}*{group.name(t)} at {x!r}"
                    )


def _first(items):
    return next(iter(items), None)


def _axiom_witnesses(G, order, domains, maps, twists=None, auts=None) -> tuple:
    """First failures of the axioms and derived identities, over position
    data shared by set actions and block-algebra actions.

    ``order`` lists every position; ``domains[g]`` is the set D_g and
    ``maps[g]`` a dict from D_{g^-1} onto D_g.  ``twists[g][p]`` (None for
    sets) is the automorphism alpha_g applies at p, in ``auts[p]``; twisted
    maps compose positions and multiply twists.  Elements are scanned in
    group order and positions in ``order`` or in the map's own order, so
    each witness is the first failure in that order.

    Returns (identity, (ii), (iii), intersection, inverse): ("omits", p) or
    ("moves", p); (g, h, p) twice; (g, h); (g,).  None marks a pass.
    """
    e, inv = G.identity, G.inverses
    identity = _first(("omits", p) for p in order if p not in domains[e]) or _first(
        ("moves", p) for p in order
        if maps[e][p] != p or twists and twists[e][p] != auts[p].identity
    )
    compatibility = composition = None
    for g in G.elements():
        if compatibility and composition:
            break
        src_g, m_g = domains[inv[g]], maps[g]
        for h in G.elements():
            gh = G.mul(g, h)
            src_gh, m_gh = domains[inv[gh]], maps[gh]
            for p, y in maps[h].items():
                if y not in src_g:
                    continue
                if p not in src_gh:
                    compatibility = compatibility or (g, h, p)
                elif composition is None and (
                    m_g[y] != m_gh[p]
                    or twists and auts[p].mul(twists[g][y], twists[h][p]) != twists[gh][p]
                ):
                    composition = (g, h, p)
    intersection = _first(
        (g, h) for g in G.elements() for h in G.elements()
        if {maps[g][p] for p in domains[inv[g]] & domains[h]} != domains[g] & domains[G.mul(g, h)]
    )
    inverse = _first(
        (g,) for g in G.elements() for p, y in maps[g].items()
        if maps[inv[g]][y] != p or twists and twists[inv[g]][y] != auts[p].inv(twists[g][p])
    )
    return identity, compatibility, composition, intersection, inverse


def _certified_witnesses(G, order, domains, maps, twists=None, auts=None) -> tuple:
    """The witnesses of :func:`_axiom_witnesses`, from the same arguments,
    deciding validity first from orbit data: when :func:`_orbit_data`
    accepts the data, it is a partial action, so every axiom and derived
    identity holds and each witness is None.  Only rejected data is
    scanned, and the scan alone names the witnesses."""
    try:
        _orbit_data(G, order, domains, maps, twists, auts)
    except (MalformedInput, TwistTransportConflict):
        return _axiom_witnesses(G, order, domains, maps, twists, auts)
    return (None,) * 5


def _axiom_items(letter: str) -> tuple[str, ...]:
    """The item names of an axiom report whose domains are called letter_g."""
    return (
        "axiom (i): identity domain and map",
        "axiom (ii): domain compatibility",
        "axiom (iii): composition on overlaps",
        f"derived: alpha_g({letter}_g^-1 ∩ {letter}_h) = {letter}_g ∩ {letter}_gh",
        "derived: alpha_g^-1 = alpha_{g^-1}",
    )


def _add_items(report, names, witnesses, wording):
    """One report item per name: passed when its witness is None, otherwise
    failed with the witness rendered by the matching function of wording."""
    for name, witness, say in zip(names, witnesses, wording):
        report.add(name, witness is None, witness and say(*witness))
    return report


def _in_carrier_order(spa: SetPartialAction) -> list[dict]:
    """The maps of spa indexed by element, each keyed in carrier order."""
    maps = [spa.maps[g] for g in spa.group.elements()]
    return [{x: m[x] for x in spa.carrier if x in m} for m in maps]


def verify_partial_action(candidate: SetPartialAction) -> VerificationReport:
    """Check the partial-action axioms and derived identities, itemized;
    each witness names the first failing point in carrier order.

    Validity is decided by a certificate, :func:`_orbit_data`, in
    O(|G|·n) plus |H|^2 per orbit: orbit by orbit, the stabilizer H of the
    base point must be a subgroup, the points must lie on distinct cosets
    of H, and every alpha_g must be the map that G acting on those cosets
    induces.  The certificate is exact: data that passes is the restriction
    of that global action, hence a partial action, and a partial action
    passes, being the restriction of its envelope (proved at
    :func:`_orbit_data`).  The derived identities follow from the axioms,
    so on a pass every item passes.  Only when the certificate fails does
    the O(|G|^2·n) axiom scan run, and it alone names the witnesses.

    Raises:
        MalformedInput: a map is not a bijection from D_{g^-1} onto D_g.
    """
    G = candidate.group
    n = G.name
    for g in G.elements():
        m = candidate.maps[g]
        if set(m) != candidate.domains[G.inv(g)]:
            raise MalformedInput(
                f"map of {n(g)} is defined on {sorted(map(repr, m))}, "
                f"not on its stated source D_{{{n(G.inv(g))}}}"
            )
        if set(m.values()) != candidate.domains[g] or len(set(m.values())) != len(m):
            raise MalformedInput(f"map of {n(g)} is not a bijection onto its stated codomain")
    maps = _in_carrier_order(candidate)
    witnesses = _certified_witnesses(G, candidate.carrier, candidate.domains, maps)
    return _add_items(VerificationReport("set partial action"), _axiom_items("D"), witnesses, (
        lambda kind, x: f"D_e omits {x!r}" if kind == "omits" else f"alpha_e moves {x!r}",
        lambda g, h, x: f"g={n(g)}, h={n(h)}: {x!r} outside D_{{({n(g)}{n(h)})^-1}}",
        lambda g, h, x: f"g={n(g)}, h={n(h)}, x={x!r}: alpha_g(alpha_h(x)) != alpha_gh(x)",
        lambda g, h: f"g={n(g)}, h={n(h)}: alpha_g(D_g^-1 ∩ D_h) != D_g ∩ D_gh",
        lambda g: f"alpha_{{{n(G.inv(g))}}} is not the inverse of alpha_{{{n(g)}}}",
    ))


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


class _Orbit(NamedTuple):
    """Global data of one orbit of positions, from :func:`_orbit_data`."""

    base: Point  # x0, the orbit's first position
    stabilizer: tuple[int, ...]  # H = {h : alpha_h(x0) = x0}, in element order
    phi: Optional[dict[int, int]]  # h -> the twist of alpha_h at x0; None for sets
    coset: list[int]  # coset[g]: index of gH, numbered as groups._cosets does
    point_at: dict[int, Point]  # coset index -> the point y with k_y H there


def _orbit_data(G, order, domains, maps, twists=None, auts=None) -> tuple[list, dict]:
    """The global data of a partial action, one orbit at a time, over the
    position data of :func:`_axiom_witnesses`.

    For each orbit of positions, with x0 its first position in ``order``:
    the stabilizer H, phi(h) = twists[h][x0], and for each y of the orbit an
    element k_y with alpha_{k_y}(x0) = y (k_{x0} = e, else the first in
    element order) and the twist tau_y = twists[k_y][x0] along that path.
    Returns (orbits, paths): a list of :class:`_Orbit` and
    ``paths[y] = (orbit index, k_y, tau_y)``, tau_y None for sets.

    The envelope of a partial action is the union over orbits of G/H, with
    y at the coset k_y H (Abadie, JFA 197 (2003)).  In it the class [g, y]
    of the quotient of G x X is beta_g(beta_{k_y}(x0)), the coset g k_y H:
    h fixes x0 in the envelope exactly when x0 ∈ D_{h^-1} and
    alpha_h(x0) = x0, so the stabilizer of x0 there is H.  The quotient
    agrees: each identification (g, x) ~ (gs, alpha_{s^-1}(x)) keeps the
    coset, since alpha_{s^-1}(x) is reached from x0 by s^-1 k_x, so its
    coset is gs s^-1 k_x H = g k_x H; and the identifications with s = k_y
    and with s = h ∈ H join (g, y) to (g k_y, x0) and (b, x0) to (bh, x0),
    so each coset is one class.

    The data is checked against the input in O(|G|·n) plus |H|^2 per orbit,
    every position check before any twist check.
    H must be closed, the points of an orbit must lie on distinct cosets,
    and for every g and x, x ∈ D_{g^-1} must hold exactly when g k_x H is
    the coset of a point y, with alpha_g(x) = y.  With twists, phi must be a
    homomorphism and each twist must be the induced one,
    twists[g][x] = tau_y phi(k_y^-1 g k_x) tau_x^-1.  Input that passes is
    the restriction of the envelope (with x embedded at k_x H under the
    twist tau_x^-1), and a restriction of a global action is a partial
    action; a partial action passes, since it is the restriction of its
    envelope.  So the checks hold exactly on partial actions.

    Raises:
        MalformedInput: a map is not defined on its stated source, a
            stabilizer is not closed, two points of an orbit land on one
            coset, or a map differs from the one the orbit data induces.
        TwistTransportConflict: the positions pass, but phi is not a
            homomorphism on H, or a twist differs from the one the orbit
            data induces.
    """
    e, inv, table, n = G.identity, G.inverses, G.table, G.name
    orbits: list[_Orbit] = []
    paths: dict = {}
    twist_fault = None  # raised only once every position check has passed
    for x0 in order:
        if x0 in paths:
            continue
        reach = {x0: e}  # y -> k_y
        stabilizer = []
        for g in G.elements():
            if x0 in domains[inv[g]]:
                if x0 not in maps[g]:
                    raise MalformedInput(f"map of {n(g)} is not defined on its stated source")
                y = maps[g][x0]
                reach.setdefault(y, g)
                if y == x0:
                    stabilizer.append(g)
        members = frozenset(stabilizer)
        unclosed = _first(
            (a, b) for a in stabilizer for b in stabilizer if table[a][b] not in members
        )
        if e not in members or unclosed:
            where = f" at {n(unclosed[0])}*{n(unclosed[1])}" if unclosed else ""
            raise MalformedInput(f"the stabilizer of {x0!r} is not a subgroup{where}")
        _, coset = _cosets(G, stabilizer)
        point_at = {}
        for y, k in reach.items():
            if y in paths:
                raise MalformedInput(f"{y!r} lies in the orbits of {x0!r} and of an earlier point")
            other = point_at.setdefault(coset[k], y)
            if other != y:
                raise MalformedInput(
                    f"{other!r} and {y!r} land on one coset of the stabilizer of {x0!r}"
                )
            paths[y] = (len(orbits), k, None if twists is None else twists[k][x0])
        phi = None
        if twists is not None:
            aut = auts[x0]
            phi = {h: twists[h][x0] for h in stabilizer}
            bad = _first(
                (a, b) for a in stabilizer for b in stabilizer
                if phi[table[a][b]] != aut.mul(phi[a], phi[b])
            )
            if bad and twist_fault is None:
                twist_fault = (
                    f"the twists at {x0!r} are not a homomorphism on its stabilizer: "
                    f"phi({n(bad[0])}*{n(bad[1])}) != phi({n(bad[0])})*phi({n(bad[1])})"
                )
        orbits.append(_Orbit(x0, tuple(stabilizer), phi, coset, point_at))
    for g in G.elements():
        src, m, row = domains[inv[g]], maps[g], table[g]
        if len(m) != len(src):
            raise MalformedInput(f"map of {n(g)} is not defined on its stated source")
        for x in order:
            o, k, tau = paths[x]
            orbit = orbits[o]
            y = orbit.point_at.get(orbit.coset[row[k]])
            if (x in src) != (y is not None) or y is not None and m.get(x) != y:
                said = repr(m[x]) if x in m else "undefined"
                raise MalformedInput(
                    f"alpha_{{{n(g)}}}({x!r}) is {said}, but the orbit of {orbit.base!r} "
                    f"gives {'undefined' if y is None else repr(y)}"
                )
            if y is not None and twists is not None and twist_fault is None:
                _, k_y, tau_y = paths[y]
                aut = auts[x]
                want = aut.mul(aut.mul(tau_y, orbit.phi[table[inv[k_y]][row[k]]]), aut.inv(tau))
                if twists[g][x] != want:
                    twist_fault = (
                        f"the twist of alpha_{{{n(g)}}} at {x!r} is {aut.name(twists[g][x])}, "
                        f"but the orbit of {orbit.base!r} gives {aut.name(want)}"
                    )
    if twist_fault:
        raise TwistTransportConflict(twist_fault)
    return orbits, paths


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
    """Envelope of a set partial action: the quotient of G x X, built from
    the orbit data of :func:`_orbit_data`.

    Pairs (g, x) and (t, y) are identified when x ∈ D_{g^-1 t} and
    alpha_{t^-1 g}(x) = y; the envelope action is t·[g, x] = [tg, x] and the
    embedding sends x to [e, x].  The class of (g, y) is the coset g k_y H
    of its orbit, so there is one stabilizer and one coset space per orbit,
    and classes are numbered by their lexicographically least (g, x) pair.
    The restriction of the envelope to the embedded carrier reproduces the
    input exactly, and the envelope has at most |G|·|X| points.

    Raises:
        MalformedInput: the input is not a partial action.
    """
    G = spa.group
    X = spa.carrier
    witnesses, pair_class = _envelope_classes(G, X, *_orbit_data(G, X, spa.domains, spa.maps))
    maps = {}
    for t in G.elements():
        row = G.table[t]
        maps[t] = {c: pair_class[(row[g], x)] for c, (g, x) in enumerate(witnesses)}
    envelope = GlobalSetAction(G, tuple(range(len(witnesses))), maps)
    e = G.identity
    embedding = {x: pair_class[(e, x)] for x in X}
    return SetGlobalization(spa, envelope, embedding, witnesses, pair_class)


def _envelope_classes(G, order, orbits, paths) -> tuple[tuple, dict]:
    """The classes of G x positions under the identification of
    :func:`globalize_set`, from the orbit data of :func:`_orbit_data`:
    (witnesses, pair_class), ``witnesses[c]`` the lexicographically least
    pair (g, x) of class c and ``pair_class[(g, x)]`` the class of each
    pair.  The class of (g, y) is the coset g k_y H of its orbit."""
    class_of: dict[tuple[int, int], int] = {}  # (orbit, coset) -> class
    pair_class = {}
    witnesses = []
    for g in G.elements():
        row = G.table[g]
        for x in order:
            o, k, _ = paths[x]
            key = (o, orbits[o].coset[row[k]])
            c = class_of.get(key)
            if c is None:
                c = class_of[key] = len(witnesses)
                witnesses.append((g, x))  # scan order is (g, position): lex least
            pair_class[(g, x)] = c
    return tuple(witnesses), pair_class


def _envelope_witnesses(G, domains, maps, beta, points, embedding,
                        twists=None, auts=None, beta_twists=None, embedding_twists=None) -> tuple:
    """First failures of the covers, intersection and equivariance checks of
    an envelope, over position data shared by sets and block algebras.

    ``domains`` and ``maps`` are as in :func:`_axiom_witnesses`; ``beta[g]``
    maps the envelope's ``points`` and ``embedding`` sends positions to
    them.  Twisted data (None for sets) adds the twists of alpha, of beta
    and of the embedding, with ``auts[p]`` the automorphism group at p.

    Returns (unreached, intersection, equivariance): (points,) with the
    sorted envelope points outside the orbit of the image; (g,) where D_g
    is not image ∩ beta_g(image); (g, p, kind) where beta_g fails to extend
    alpha_g at p, kind "undefined" when the embedding or beta misses the
    path, "groups" when a twist lies outside auts[p], else "mismatch".
    None marks a pass.
    """
    image = set(embedding.values())
    covered, intersection = set(), None
    for g in G.elements():
        reached = {beta[g][q] for q in image if q in beta[g]}
        covered |= reached
        embedded = {embedding[p] for p in domains[g] if p in embedding}
        if intersection is None and embedded != image & reached:
            intersection = (g,)
    unreached = sorted(set(points) - covered)
    unreached = (unreached,) if unreached else None
    for g in G.elements():
        b = beta[g]
        for p, y in maps[g].items():
            q = embedding.get(p)
            if q not in b or y not in embedding:
                return unreached, intersection, (g, p, "undefined")
            if twists:
                aut = auts[p]
                pieces = (
                    embedding_twists.get(y), twists[g][p], beta_twists[g][q], embedding_twists.get(p)
                )
                if any(f is None or not 0 <= f < aut.order for f in pieces):
                    return unreached, intersection, (g, p, "groups")
                if aut.mul(pieces[0], pieces[1]) != aut.mul(pieces[2], pieces[3]):
                    return unreached, intersection, (g, p, "mismatch")
            if embedding[y] != b[q]:
                return unreached, intersection, (g, p, "mismatch")
    return unreached, intersection, None


def verify_set_globalization(spa: SetPartialAction, sg: SetGlobalization) -> VerificationReport:
    """Check the enveloping-action conditions transported to sets: injective
    embedding, orbit coverage, D_g = image ∩ beta_g(image), equivariance.
    The witnesses name the first failing element, then point in carrier
    order."""
    G = spa.group
    report = VerificationReport("set globalization")
    image = set(sg.embedding.values())
    inj = len(image) == len(spa.carrier) and set(sg.embedding) == set(spa.carrier)
    report.add("embedding is injective on the carrier", inj, None if inj else "image collapses")
    witnesses = _envelope_witnesses(
        G, spa.domains, _in_carrier_order(spa), sg.envelope.maps, sg.envelope.carrier, sg.embedding
    )
    names = (
        "orbit of the embedded carrier covers the envelope",
        "embedded D_g = image ∩ beta_g(image)",
        "beta_g extends alpha_g on embedded domains",
    )
    return _add_items(report, names, witnesses, (
        lambda points: f"unreached points {points}",
        lambda g: f"g={G.name(g)}",
        lambda g, x, _: f"g={G.name(g)}, x={x!r}",
    ))


def _equivariant_bijection(G, beta_a, beta_b, points_a, points_b, seeds, twists=None):
    """A bijection from ``points_a`` onto ``points_b`` that intertwines the
    actions ``beta_a`` and ``beta_b`` and extends ``seeds``, forced triples
    (p, q, f); None when there is none.

    Twisted envelopes pass ``twists = (tw_a, tw_b, auts, fits)``: the twists
    of both actions, the automorphism group of each point of a, and whether
    p may be sent to q.  Each p then carries a twist f_p, and
    f_{beta_g p} = tw_b[g][q] * f_p * tw_a[g][p]^-1; untwisted, f is None.

    Every assignment is closed under the group at once, which checks each
    of its edges, so the result is equivariant and injective by
    construction.  Points outside the orbit of the seeds are matched by
    backtracking, in the order of ``points_a``, then ``points_b``, then
    automorphisms.  Returns (fwd, tws) or None.
    """
    if twists is not None:
        tw_a, tw_b, auts, fits = twists

    def assign(state, p, q, f) -> bool:
        fwd, tws, used, queue = state
        if p in fwd:
            return fwd[p] == q and tws[p] == f
        if q in used or twists is not None and not fits(p, q):
            return False
        fwd[p], tws[p] = q, f
        used.add(q)
        queue.append(p)
        return True

    def close(state) -> bool:
        fwd, tws, _, queue = state
        while queue:
            p = queue.pop()
            q, f, aut = fwd[p], tws[p], twists and auts[p]
            for g in G.elements():
                f_next = aut and aut.mul(aut.mul(tw_b[g][q], f), aut.inv(tw_a[g][p]))
                if not assign(state, beta_a[g][p], beta_b[g][q], f_next):
                    return False
        return True

    def extend(state):
        fwd, tws, used, _ = state
        p = _first(p for p in points_a if p not in fwd)
        if p is None:
            return fwd, tws
        for q in points_b:
            for f in auts[p].elements() if twists is not None else (None,):
                trial = (dict(fwd), dict(tws), set(used), [])
                if assign(trial, p, q, f) and close(trial):
                    found = extend(trial)
                    if found is not None:
                        return found
        return None

    state = ({}, {}, set(), [])
    if not all(assign(state, p, q, f) for p, q, f in seeds) or not close(state):
        return None
    return extend(state)


def envelopes_equivalent(a: SetGlobalization, b: SetGlobalization) -> Optional[dict[int, int]]:
    """An equivariant bijection between two envelopes commuting with the
    embeddings, or None when no such bijection exists."""
    if a.envelope.group != b.envelope.group:
        raise GroupMismatch("envelopes are over different groups")
    if set(a.embedding) != set(b.embedding):
        raise MalformedInput("envelopes embed different carriers")
    if len(a.envelope.carrier) != len(b.envelope.carrier):
        return None
    seeds = [(a.embedding[x], b.embedding[x], None) for x in a.embedding]
    found = _equivariant_bijection(
        a.envelope.group, a.envelope.maps, b.envelope.maps,
        a.envelope.carrier, b.envelope.carrier, seeds,
    )
    return None if found is None else found[0]


# --- enumeration from orbit data --------------------------------------------

def _set_partitions(points: tuple) -> Iterator[list[tuple]]:
    """Every partition of points into blocks, each block in the given order."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for partition in _set_partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [(first,) + block] + partition[i + 1 :]
        yield [(first,)] + partition


def _transitive_pieces(G: FiniteGroup, k: int) -> list[tuple]:
    """Every partial action of G on points 0..k-1 with a single orbit, as one
    tuple of (x, alpha_g(x)) pairs per element: for each subgroup H, the
    restriction of G/H to the coset H (point 0) and k - 1 further distinct
    cosets, in every order."""
    pieces = []
    for H in all_subgroups(G):
        moved = coset_factorize(G, H).j_table  # moved[g][c]: the coset g sends c to; 0 is H
        for chosen in itertools.permutations(range(1, len(moved[0])), k - 1):
            point = {c: i for i, c in enumerate((0,) + chosen)}
            pieces.append(tuple(
                tuple((i, point[m[c]]) for c, i in point.items() if m[c] in point) for m in moved
            ))
    return pieces


def enumerate_partial_actions(
    G: FiniteGroup,
    carrier: Union[int, Sequence[Point]],
) -> list[SetPartialAction]:
    """The complete, duplicate-free, canonically ordered list of partial
    actions of G on the carrier (an integer n means carrier 0..n-1).

    Actions are generated from their orbit data (see :func:`_orbit_data`):
    for every partition of the carrier into orbits, each orbit, with base
    x0 its first point, is a piece of :func:`_transitive_pieces` with x0
    at the coset H.  A disjoint union of such pieces is the restriction of
    the global action on the disjoint union of the G/H to the chosen
    cosets, hence a partial action.  Complete: a partial action is the
    restriction of its envelope, in which each orbit with stabilizer H of
    x0 is G/H, x0 at H and each y at k_y H, distinct per y; that is one of
    the pieces on the partition into orbits.  Duplicate-free: the action
    determines its orbits (pieces are transitive, as the coset H reaches
    every coset), the stabilizer H of each base, and the coset of each y,
    the set of g with alpha_g(x0) = y; so two distinct choices give two
    distinct actions.  The output is sorted by ``canonical_key``.

    Raises:
        MalformedInput: an integer carrier size is negative, the carrier is
            neither an exact int nor a sequence, or it repeats a point.
        SizeLimit: beyond |G| <= 6 or carriers larger than 4 points.
    """
    if type(carrier) is int:
        if carrier < 0:
            raise MalformedInput(f"carrier size {carrier} is negative")
        carrier = tuple(range(carrier))
    else:
        try:
            carrier = tuple(carrier)
        except TypeError:  # True and 2.0 are no size, and not a sequence of points
            raise MalformedInput(f"carrier {carrier!r} is neither a size nor a sequence") from None
        _check_points(carrier)
    if G.order > ENUM_MAX_GROUP:
        raise SizeLimit(f"enumeration caps the group order at {ENUM_MAX_GROUP}")
    if len(carrier) > ENUM_MAX_CARRIER:
        raise SizeLimit(f"enumeration caps the carrier size at {ENUM_MAX_CARRIER}")
    pieces = {k: _transitive_pieces(G, k) for k in range(1, len(carrier) + 1)}
    shared: dict[frozenset, frozenset] = {}  # one object per distinct domain saves memory
    actions = []
    for partition in _set_partitions(carrier):
        for choice in itertools.product(*(pieces[len(b)] for b in partition)):
            maps: list[dict] = [{} for _ in G.elements()]
            for b, piece in zip(partition, choice):
                for m, pairs in zip(maps, piece):
                    m.update((b[i], b[j]) for i, j in pairs)
            domains = {}
            for g, m in enumerate(maps):
                D = frozenset(m.values())
                domains[g] = shared.setdefault(D, D)
            actions.append(SetPartialAction(G, carrier, domains, dict(enumerate(maps))))
    actions.sort(key=lambda a: a.canonical_key())
    return actions
