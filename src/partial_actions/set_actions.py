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
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    GroupMismatch,
    MalformedInput,
    NotASubgroup,
    SizeLimit,
    TwistTransportConflict,
    _as_dict,
    _expect,
)
from .groups import FiniteGroup, Subgroup, _cosets, _law_failures, all_subgroups, coset_factorize
from .reporting import VerificationReport

Point = Hashable

ENUM_MAX_GROUP = 6
ENUM_MAX_CARRIER = 4


def _subset_of(carrier_set: frozenset, points: Iterable) -> Optional[frozenset]:
    """The points as a subset of carrier_set, or None; an unhashable point lies in no carrier."""
    try:
        points = frozenset(points)
    except TypeError:
        return None
    return points if points <= carrier_set else None


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
    identity defaults to the full carrier with the identity map, and maps
    are keyed in carrier order) and rejects unknown group elements and
    points, unhashable ones included, but deliberately does not enforce the
    axioms, so that broken candidates can be built and reported on.  Last,
    each point must have the type of the carrier point it equals.
    """

    def __init__(
        self,
        group: FiniteGroup,
        carrier: Sequence[Point],
        domains: Optional[Mapping[int, Iterable[Point]]] = None,
        maps: Optional[Mapping[int, Mapping[Point, Point]]] = None,
    ):
        _expect(group, FiniteGroup, f"{type(self).__name__} takes a FiniteGroup")
        self.group = group
        try:
            self.carrier = tuple(carrier)
        except TypeError:  # 5 is no carrier
            raise MalformedInput("carrier is not a sequence of points") from None
        _check_points(self.carrier)
        carrier_set = frozenset(self.carrier)
        pos = self._pos = {x: i for i, x in enumerate(self.carrier)}
        e = group.identity
        doms: dict[int, frozenset] = {}
        mps: dict[int, dict] = {}
        domains = _as_dict(domains, "domains")
        maps = _as_dict(maps, "maps")
        order = group.order
        for g in [*domains, *maps]:  # 1.0 and True are equal to 1, but name no element
            if type(g) is not int or not 0 <= g < order:
                raise MalformedInput(f"unknown group element {g!r}")
        for g in group.elements():
            if g in domains:
                try:  # keep every given point: True and 1.0 vanish from a set holding 1
                    domains[g] = tuple(domains[g])
                except TypeError:  # 5 is no domain
                    raise MalformedInput(f"domain of {group.name(g)} leaves the carrier") from None
                D = _subset_of(carrier_set, domains[g])
            elif g == e:
                D = carrier_set
            else:
                D = frozenset()
            if D is None:
                raise MalformedInput(f"domain of {group.name(g)} leaves the carrier")
            doms[g] = D
        for g in group.elements():
            if g in maps:
                try:
                    m = dict(maps[g])
                except (TypeError, ValueError):  # 5 or "ab" is no map
                    raise MalformedInput(f"map of {group.name(g)} leaves the carrier") from None
            elif g == e:
                m = {x: x for x in self.carrier if x in doms[e]}
            else:
                m = {}
            try:
                inside = m.keys() <= carrier_set and carrier_set.issuperset(m.values())
            except TypeError:  # an unhashable image lies in no carrier
                inside = False
            if not inside:
                raise MalformedInput(f"map of {group.name(g)} leaves the carrier")
            ordered = sorted(m, key=pos.__getitem__)
            if list(m) != ordered:
                m = {x: m[x] for x in ordered}
            mps[g] = m
        kinds = set(map(type, self.carrier))  # True and 1.0 equal 1, but are not the point 1
        points = itertools.chain(*domains.values(), *mps.values(), *map(dict.values, mps.values()))
        if len(kinds) > 1 or not set(map(type, points)) <= kinds:  # find the first g at fault
            typed = frozenset(zip(map(type, self.carrier), self.carrier))
            parts = [("domain", g, domains.get(g, D)) for g, D in doms.items()]
            parts += [("map", g, [*m, *m.values()]) for g, m in mps.items()]
            for what, g, xs in parts:
                if not typed.issuperset(zip(map(type, xs), xs)):
                    raise MalformedInput(f"{what} of {group.name(g)} leaves the carrier")
        self.domains = doms
        self.maps = mps

    @classmethod
    def _unchecked(cls, group, carrier, pos, domains, maps) -> "SetPartialAction":
        """Valid pieces stored as the constructor stores them (maps keyed in
        carrier order, ``pos`` the shareable position index); no check runs."""
        action = cls.__new__(cls)
        vars(action).update(group=group, carrier=carrier, _pos=pos, domains=domains, maps=maps)
        return action

    def canonical_key(self):
        """Deterministic sort key; two actions are equal iff keys are equal
        (given the same group and carrier)."""
        at = self._pos.__getitem__  # maps are keyed in carrier order, so pairs come sorted
        return tuple(
            (tuple(sorted(map(at, self.domains[g]))), tuple(zip(map(at, m), map(at, m.values()))))
            for g, m in self.maps.items()
        )

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

    The constructor runs the checks of :class:`SetPartialAction`, then
    checks, in this order, that every map is a bijection of the carrier,
    that the identity acts trivially and that the action law
    alpha_g(alpha_t(x)) = alpha_gt(x) holds for t in ``group.generators``
    (:func:`groups._law_failures`, exact given the identity).  It raises
    MalformedInput at the first failure: the least failing g, then t, then
    the first x in carrier order.

    The law is one tuple comparison per pair (g, t), with each map read once
    as its images in carrier order: O(|G|·|S|·n) for n points and
    |S| <= log2 |G| generators.  ``tests/oracle_checks.py`` keeps the
    per-entry checks as the oracle.
    """

    def __init__(self, group, carrier, maps):
        super().__init__(group, carrier, maps=maps)
        carrier, maps = self.carrier, self.maps
        full = frozenset(carrier)
        for g in group.elements():
            m = maps[g]
            if m.keys() != full or set(m.values()) != full:
                raise MalformedInput(f"map of {group.name(g)} is not a bijection of the carrier")
        self.domains = dict.fromkeys(group.elements(), full)
        images = [tuple(maps[g].values()) for g in group.elements()]  # in carrier order
        if images[group.identity] != carrier:
            raise MalformedInput("identity element does not act as the identity map")
        failure = min(_law_failures(group.table, group.generators, maps, images), default=None)
        if failure is not None:
            g, t = failure
            m_g, gt = maps[g], group.mul(g, t)
            x = _first(x for x, y, z in zip(carrier, images[t], images[gt]) if m_g[y] != z)
            raise MalformedInput(f"action law fails: {group.name(g)}*{group.name(t)} at {x!r}")


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

    Both callers have checked that each ``maps[g]`` is a bijection from
    D_{g^-1} onto D_g, and the intersection identity rests on it: then
    alpha_g(D_{g^-1} ∩ D_h) and D_g ∩ D_gh are subsets of D_g, and a point
    alpha_g(p) of D_g lies in the first exactly when p lies in D_h, and in
    the second exactly when alpha_g(p) lies in D_gh.  So the identity holds
    for every h exactly when, for every p in D_{g^-1}, the membership row
    (p in D_h for each h) equals the row of alpha_g(p) read at gh.  That is
    one tuple comparison per (g, p), after a gather in C: O(|G|^2·n) steps
    in C, where the set form built |G|^2 Python sets.  The witness is the
    least such g and the least h at which a row differs, which is the
    first (g, h) at which the sets differ.  Axioms (ii) and (iii) are one
    Python step per (g, h, p) with alpha_h(p) in D_{g^-1}, O(|G|^2·n).

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
    columns = [tuple(map(domains[h].__contains__, order)) for h in G.elements()]
    member = dict(zip(order, zip(*columns)))  # member[p][h] is p in D_h
    rows = member.__getitem__
    intersection = None
    for g in G.elements():
        m_g, row = maps[g], G.table[g]
        gather = tuple if g == e else itemgetter(*row)  # of one index, itemgetter gives no tuple
        if list(map(rows, m_g)) != list(map(gather, map(rows, m_g.values()))):
            intersection = (g, min(
                h for p, y in m_g.items() for h in G.elements() if member[p][h] != member[y][row[h]]
            ))
            break
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


def _add_items(report, names, witnesses, wording, keys=None):
    """One report item per name: passed when its witness is None, otherwise
    failed with the witness rendered by the matching function of wording;
    ``keys``, when given, are the items' keys."""
    for name, witness, say, key in zip(names, witnesses, wording, keys or itertools.repeat(None)):
        report.add(name, witness is None, witness and say(*witness), key)
    return report


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
    the axiom scan, :func:`_axiom_witnesses`, run, and it alone names the
    witnesses: O(|G|^2·n) Python steps for axioms (ii) and (iii), and the
    intersection identity as one row comparison per (g, p), which is exact
    because each map has been checked to be a bijection from D_{g^-1} onto
    D_g first.

    Raises:
        MalformedInput: candidate is no SetPartialAction, or a map is not a
            bijection from D_{g^-1} onto D_g.
    """
    _expect(candidate, SetPartialAction, "verify_partial_action takes a set partial action")
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
    witnesses = _certified_witnesses(G, candidate.carrier, candidate.domains, candidate.maps)
    return _add_items(VerificationReport("set partial action"), _axiom_items("D"), witnesses, (
        lambda kind, x: f"D_e omits {x!r}" if kind == "omits" else f"alpha_e moves {x!r}",
        lambda g, h, x: f"g={n(g)}, h={n(h)}: {x!r} outside D_{{({n(g)}{n(h)})^-1}}",
        lambda g, h, x: f"g={n(g)}, h={n(h)}, x={x!r}: alpha_g(alpha_h(x)) != alpha_gh(x)",
        lambda g, h: f"g={n(g)}, h={n(h)}: alpha_g(D_g^-1 ∩ D_h) != D_g ∩ D_gh",
        lambda g: f"alpha_{{{n(G.inv(g))}}} is not the inverse of alpha_{{{n(g)}}}",
    ))


def restrict_global(global_action: GlobalSetAction, subset: Iterable[Point]) -> SetPartialAction:
    """Restrict a global action to a subset: D_g = subset ∩ beta_g(subset)."""
    _expect(global_action, GlobalSetAction, "restrict_global takes a global set action")
    sub = _subset_of(frozenset(global_action.carrier), subset)
    if sub is None:
        raise MalformedInput("subset leaves the carrier")
    order = tuple(x for x in global_action.carrier if x in sub)
    maps = {g: {x: b[x] for x in order if b[x] in sub} for g, b in global_action.maps.items()}
    domains = {g: m.values() for g, m in maps.items()}  # D_g = subset ∩ beta_g(subset)
    return SetPartialAction(global_action.group, order, domains, maps)


def extend_by_zero(action_of_h: SetPartialAction, subgroup: Subgroup) -> SetPartialAction:
    """Extend a partial action of a subgroup H to all of G by empty domains.

    ``action_of_h`` must be an action of ``subgroup.as_group()``; element k of
    that group corresponds to ``subgroup.members[k]``.

    Raises:
        MalformedInput: the action is no set partial action, or the
            subgroup no Subgroup.
        NotASubgroup: the action's group does not match the subgroup.
    """
    _expect(action_of_h, SetPartialAction, "extend_by_zero takes a set partial action")
    H = _expect(subgroup, Subgroup, "extend_by_zero takes a Subgroup")
    G = H.parent
    if action_of_h.group != H.as_group():
        raise NotASubgroup("the action is not over the given subgroup")
    domains = {H.members[k]: D for k, D in action_of_h.domains.items()}
    maps = {H.members[k]: m for k, m in action_of_h.maps.items()}  # the constructor copies
    return SetPartialAction(G, action_of_h.carrier, domains, maps)


def global_part(spa: SetPartialAction) -> tuple[Subgroup, GlobalSetAction]:
    """The subgroup H = {h : D_h = X} together with the restricted action,
    which is a genuine global action of H.

    Raises:
        MalformedInput: the input is no set partial action, or not a
            partial action: H fails the subgroup check, or the restriction
            fails the action law.
    """
    G = _expect(spa, SetPartialAction, "global_part takes a set partial action").group
    X = frozenset(spa.carrier)
    members = tuple(g for g in G.elements() if spa.domains[g] == X)
    try:
        H = Subgroup(G, members)
    except NotASubgroup as exc:
        raise MalformedInput(f"full-domain set is not a subgroup: {exc}") from exc
    sub_maps = {k: dict(spa.maps[member]) for k, member in enumerate(H.members)}
    try:
        action = GlobalSetAction(H.as_group(), spa.carrier, sub_maps)
    except MalformedInput as exc:
        raise MalformedInput(f"restriction to H is not an action: {exc}") from exc
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
    The class of any pair (g, x) is ``envelope.maps[g][embedding[x]]``.
    """

    def __init__(
        self,
        source: SetPartialAction,
        envelope: GlobalSetAction,
        embedding: dict[Point, int],
        orbit_witness: tuple[tuple[int, Point], ...],
    ):
        self.source = source
        self.envelope = _expect(
            envelope, GlobalSetAction, "candidate envelope is not a global set action")
        self.orbit_witness = orbit_witness
        self.embedding = _as_dict(embedding, "embedding")

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
    of its orbit, so the envelope is the disjoint union over the orbits of
    G/H, and its action is the move table of :func:`_envelope_classes`;
    classes are numbered by their lexicographically least (g, x) pair.
    The restriction of the envelope to the embedded carrier reproduces the
    input exactly, and the envelope has at most |G|·|X| points.

    Raises:
        MalformedInput: the input is no set partial action, or not a
            partial action.
    """
    G = _expect(spa, SetPartialAction, "globalize_set takes a set partial action").group
    X = spa.carrier
    witnesses, moves, embedding = _envelope_classes(G, X, *_orbit_data(G, X, spa.domains, spa.maps))
    points = tuple(range(len(witnesses)))
    envelope = GlobalSetAction(G, points, {g: dict(zip(points, moves[g])) for g in G.elements()})
    return SetGlobalization(spa, envelope, embedding, witnesses)


def _stabilizer_sizes(G: FiniteGroup, stabilizers: Sequence[tuple]) -> list[int]:
    """The envelope size of each action from its orbit stabilizers, as
    :func:`enumerate_partial_actions` hands them over: the sum of [G:H]
    over its orbits, the envelope being the disjoint union of the G/H (see
    :func:`_orbit_data`).  G/H is the envelope of G on the point 0, defined
    exactly on H, so [G:H] is the size of one :func:`globalize_set` per
    distinct H.
    """
    index = {}  # stabilizer -> [G:H]
    for H in dict.fromkeys(itertools.chain.from_iterable(stabilizers)):
        point = SetPartialAction(G, (0,), dict.fromkeys(H, (0,)), dict.fromkeys(H, {0: 0}))
        index[H] = globalize_set(point).size
    return [sum(map(index.__getitem__, orbits)) for orbits in stabilizers]


def _envelope_classes(G, order, orbits, paths) -> tuple[tuple, list, dict]:
    """The envelope of the orbit data of :func:`_orbit_data` as a move table.

    The envelope is the disjoint union over the orbits of G/H, with beta_g
    multiplying cosets on the left: the class of a pair (g, x) of G x
    positions is the coset g k_x H of x's orbit.  Returns (witnesses, moves,
    embedding): ``witnesses[c]`` is the lexicographically least pair (t, x)
    of class c, which names it; ``moves[g][c]`` is the class of (g t, x),
    the coset of g t k_x; and ``embedding[x]`` is the class of (e, x)."""
    table = G.table
    class_at = [[None] * (G.order // len(o.stabilizer)) for o in orbits]  # coset -> class
    witnesses, reps = [], []  # reps[c] = (o, t k_x), witnesses[c] = (t, x) with x in orbit o
    for g in G.elements():
        row = table[g]
        for x in order:  # scan order is (g, position): the first pair met is lex least
            o, k, _ = paths[x]
            i = orbits[o].coset[row[k]]
            if class_at[o][i] is None:
                class_at[o][i] = len(witnesses)
                witnesses.append((g, x))
                reps.append((o, row[k]))
    # class_of[o][b]: the class of the coset b H of orbit o
    class_of = [[classes[i] for i in orbit.coset] for orbit, classes in zip(orbits, class_at)]
    moves = [[class_of[o][row[b]] for o, b in reps] for row in table]
    embedding = {x: class_of[paths[x][0]][paths[x][1]] for x in order}
    return tuple(witnesses), moves, embedding


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
    tables = [aut.table for aut in auts] if twists else None
    for g in G.elements():
        b = beta[g]
        for p, y in maps[g].items():
            q = embedding.get(p)
            if q not in b or y not in embedding:
                return unreached, intersection, (g, p, "undefined")
            if twists:
                mul = tables[p]
                n = len(mul)
                e_y, t, b_q, e_p = (
                    embedding_twists.get(y), twists[g][p], beta_twists[g][q], embedding_twists.get(p)
                )
                if not (type(e_y) is type(t) is type(b_q) is type(e_p) is int
                        and 0 <= e_y < n and 0 <= t < n and 0 <= b_q < n and 0 <= e_p < n):
                    return unreached, intersection, (g, p, "groups")
                if mul[e_y][t] != mul[b_q][e_p]:
                    return unreached, intersection, (g, p, "mismatch")
            if embedding[y] != b[q]:
                return unreached, intersection, (g, p, "mismatch")
    return unreached, intersection, None


def _verify_envelope(report, names, wording, G, order, domains, maps, beta, points, embedding,
                     twists=None, auts=None, beta_twists=None, embedding_twists=None, fits=None):
    """The enveloping-action checks of sets and block algebras alike (a
    point is a scalar-line block), over the data of :func:`_envelope_witnesses`,
    added to report as in :func:`_add_items`, keyed ideal, covers,
    intersection and equivariance.  The ideal witness is the first of: the
    embedding is not defined on exactly ``order`` ("undefined", None), is not
    injective ("collapses", None), leaves ``points`` ("leaves", None); with
    twists, in embedding order, it sends p to a q with ``fits(p, q)`` false
    ("class", p), or gives p no twist of auts[p] ("twist", p).  An unhashable
    image, which no envelope can hold, raises MalformedInput."""
    try:
        image = set(embedding.values())
    except TypeError:
        raise MalformedInput("the embedding has an unhashable image") from None
    ideal = None
    if embedding.keys() != set(order):
        ideal = ("undefined", None)
    elif len(image) != len(embedding):
        ideal = ("collapses", None)
    elif not image <= set(points):
        ideal = ("leaves", None)
    elif twists is not None:
        for p, q in embedding.items():
            f = embedding_twists.get(p)
            if not fits(p, q) or type(f) is not int or not 0 <= f < auts[p].order:
                ideal = ("twist" if fits(p, q) else "class", p)
                break
    witnesses = _envelope_witnesses(
        G, domains, maps, beta, points, embedding, twists, auts, beta_twists, embedding_twists
    )
    keys = ("ideal", "covers", "intersection", "equivariance")
    return _add_items(report, names, (ideal, *witnesses), wording, keys)


def _field(source, name: str, what: str):
    try:
        return source[name] if isinstance(source, Mapping) else getattr(source, name)
    except (KeyError, AttributeError):
        raise MalformedInput(f"{what} has no {name}") from None


def _set_candidate(sg) -> tuple[GlobalSetAction, Mapping]:
    """The envelope and the embedding of a set globalization candidate, read
    as mapping keys or attributes.  MalformedInput names the first field
    that is missing or of the wrong kind."""
    envelope, embedding = (_field(sg, name, "candidate") for name in ("envelope", "embedding"))
    return (_expect(envelope, GlobalSetAction, "candidate envelope is not a global set action"),
            _expect(embedding, Mapping, "candidate embedding is not a mapping"))


def verify_set_globalization(spa: SetPartialAction, sg: SetGlobalization) -> VerificationReport:
    """Check the enveloping-action conditions transported to sets, by
    :func:`_verify_envelope`: an injective embedding of the carrier into
    the envelope, orbit coverage, D_g = image ∩ beta_g(image), and
    equivariance.  The witnesses name the first failing element, then point
    in carrier order.

    Raises:
        MalformedInput: the candidate (read as mapping keys or attributes)
            lacks an ``envelope`` GlobalSetAction or an ``embedding`` mapping.
        GroupMismatch: the envelope is over another group than spa.
    """
    G = _expect(spa, SetPartialAction, "verify_set_globalization takes a set partial action").group
    envelope, embedding = _set_candidate(sg)
    if envelope.group != G:
        raise GroupMismatch("the envelope is over a different group than the action")
    ideal = {"undefined": "embedding is not defined on every point", "collapses": "image collapses",
             "leaves": "embedding leaves the envelope"}
    names = (
        "embedding is injective on the carrier",
        "orbit of the embedded carrier covers the envelope",
        "embedded D_g = image ∩ beta_g(image)",
        "beta_g extends alpha_g on embedded domains",
    )
    return _verify_envelope(VerificationReport("set globalization"), names, (
        lambda kind, _: ideal[kind],
        lambda points: f"unreached points {points}",
        lambda g: f"g={G.name(g)}",
        lambda g, x, _: f"g={G.name(g)}, x={x!r}",
    ), G, spa.carrier, spa.domains, spa.maps, envelope.maps, envelope.carrier, embedding)


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
    embeddings, or None when no such bijection exists.

    Raises:
        MalformedInput: a candidate, read as :func:`verify_set_globalization`
            reads it, is malformed or embeds outside its envelope, or the
            two embed different carriers.
        GroupMismatch: the envelopes are over different groups.
    """
    (env_a, emb_a), (env_b, emb_b) = _set_candidate(a), _set_candidate(b)
    for envelope, embedding in ((env_a, emb_a), (env_b, emb_b)):
        try:
            inside = set(embedding.values()) <= set(envelope.carrier)
        except TypeError:  # an unhashable image lies in no carrier
            inside = False
        if not inside:
            raise MalformedInput("embedding leaves the envelope")
    if env_a.group != env_b.group:
        raise GroupMismatch("envelopes are over different groups")
    if set(emb_a) != set(emb_b):
        raise MalformedInput("envelopes embed different carriers")
    if len(env_a.carrier) != len(env_b.carrier):
        return None
    seeds = [(emb_a[x], emb_b[x], None) for x in emb_a]
    found = _equivariant_bijection(
        env_a.group, env_a.maps, env_b.maps, env_a.carrier, env_b.carrier, seeds
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


def _transitive_pieces(cosets: list[tuple], k: int) -> list[tuple]:
    """Every partial action of G on points 0..k-1 with a single orbit, as
    (H.members, one tuple of (x, alpha_g(x)) pairs per element): for each
    subgroup H, the restriction of G/H to the coset H (point 0) and k - 1
    further distinct cosets, in every order.  H is the stabilizer of 0;
    ``cosets`` holds (H.members, its j table) per H of ``all_subgroups``."""
    pieces = []
    for members, moved in cosets:  # moved[g][c]: the coset g sends c to; 0 is H
        for chosen in itertools.permutations(range(1, len(moved[0])), k - 1):
            point = {c: i for i, c in enumerate((0,) + chosen)}
            pieces.append((members, tuple(
                tuple((i, point[m[c]]) for c, i in point.items() if m[c] in point) for m in moved
            )))
    return pieces


def enumerate_partial_actions(
    G: FiniteGroup,
    carrier: Union[int, Sequence[Point]],
    *,
    _stabilizers: Optional[list] = None,
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

    D_g, alpha_g and g's part of that key depend only on the chosen
    pieces' pairs at g, so each is built once per distinct tuple of them
    (396 for Z6 on 4 points, against 9,768 (action, g) slots); each action
    gets its own copy of each map, and its key is its parts in element
    order.  ``tests/oracle_enumeration.py`` keeps the per-action build.

    A list given as ``_stabilizers`` receives each returned action's orbit
    stabilizers, one tuple of ``H.members`` per action, in order.  They are
    exact: the base of an orbit sits at the coset H of its piece, and its
    stabilizer in G/H is H, as :func:`_orbit_data` would find.

    Raises:
        MalformedInput: G is not a FiniteGroup, an integer carrier size is
            negative, the carrier is neither an exact int nor a sequence,
            or it repeats a point.
        SizeLimit: beyond |G| <= 6 or carriers larger than 4 points.
    """
    _expect(G, FiniteGroup, "enumeration takes a FiniteGroup")
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
    cosets = [(H.members, coset_factorize(G, H).j_table) for H in all_subgroups(G)]
    pieces = {k: _transitive_pieces(cosets, k) for k in range(1, len(carrier) + 1)}
    shared: dict[frozenset, frozenset] = {}  # one object per distinct domain saves memory
    pos = {x: i for i, x in enumerate(carrier)}
    at = pos.__getitem__
    parts = {}  # the chosen pieces' pairs at g -> (D_g, alpha_g, g's part of the key)

    def part(rows):
        m = dict(itertools.chain.from_iterable(rows))
        D = frozenset(m.values())
        m = {x: m[x] for x in carrier if x in m}
        parts[rows] = found = (shared.setdefault(D, D), m, (  # as canonical_key
            tuple(sorted(map(at, D))), tuple(zip(map(at, m), map(at, m.values())))))
        return found

    elements = G.elements()
    built = []  # (canonical key, action, its orbit stabilizers)
    for partition in _set_partitions(carrier):
        placed = [[(H, tuple(tuple((b[i], b[j]) for i, j in pairs) for pairs in piece))
                   for H, piece in pieces[len(b)]] for b in partition]  # the pieces on each block
        for choice in itertools.product(*placed):
            # the pieces' pairs g by g; an empty carrier has no pieces
            at_g = zip(*[c[1] for c in choice]) if choice else [()] * G.order
            got = [parts.get(rows) or part(rows) for rows in at_g]
            domains = dict(zip(elements, map(itemgetter(0), got)))
            maps = {g: p[1].copy() for g, p in zip(elements, got)}
            # valid by the argument above, so built without the constructor's checks
            built.append((tuple(map(itemgetter(2), got)),
                          SetPartialAction._unchecked(G, carrier, pos, domains, maps),
                          tuple(H for H, _ in choice)))
    built.sort(key=itemgetter(0))
    if _stabilizers is not None:
        _stabilizers.extend(stabilizers for _, _, stabilizers in built)
    return [action for _, action, _ in built]
