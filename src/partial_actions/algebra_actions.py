"""Partial actions on block algebras and their enveloping actions.

Domains are ideals generated by central idempotents (so every action here
satisfies the globalizability criterion by construction) and the maps are
wreath maps: class-preserving position bijections with automorphism twists.

Every envelope comes from one assembly over a move table: a copy of a
block per class of (g, position) pairs, beta_g moving class c to class
moves[g][c], class c anchored at b_c, with b_c H the class, and the twist
T_c of a payload placed there; beta_g twists c by
T_c' phi(b_c'^-1 g b_c) T_c^-1, the action induced from phi.
``globalize_block_power`` handles every block algebra, mixed classes
included, with the move table and anchors read off the orbit data of its
idempotent restriction (each orbit's stabilizer H, phi: H -> Aut(B), and
the twist tau_y along the path k_y to each block y).
``globalize_extension_by_zero`` is the one-orbit case: its move table is
the j table of ``coset_factorize``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence, Union

from .block_algebras import (
    Block,
    BlockAlgebra,
    BlockIdeal,
    WreathMap,
    block_power,
    decompose_isotypic,
    k_line_block,
    wreath_compose,
    wreath_identity,
)
from .errors import (
    GroupMismatch,
    InternalInconsistency,
    MalformedInput,
    NotAHomomorphism,
    PartialActionError,
    _as_dict,
    _expect,
)
from .groups import FiniteGroup, Subgroup, coset_factorize
from .reporting import VerificationReport
from .set_actions import (
    SetPartialAction,
    _add_items,
    _axiom_items,
    _certified_witnesses,
    _envelope_classes,
    _equivariant_bijection,
    _field,
    _first,
    _orbit_data,
    _verify_envelope,
    enumerate_partial_actions,
)


class AlgebraPartialAction:
    """Candidate partial action on a block algebra.

    ``domains[g]`` is the ideal S_g and ``maps[g]`` the wreath map
    alpha_g: S_{g^-1} -> S_g.  As with set actions, construction normalizes
    (missing domains are zero, the identity defaults to the identity map on
    the whole algebra) but the axioms are checked separately by
    :func:`verify_algebra_partial_action`.
    """

    def __init__(
        self,
        group: FiniteGroup,
        algebra: BlockAlgebra,
        domains: Optional[Mapping[int, Union[BlockIdeal, Iterable[int]]]] = None,
        maps: Optional[Mapping[int, WreathMap]] = None,
    ):
        self.group = _expect(group, FiniteGroup, "AlgebraPartialAction takes a FiniteGroup")
        self.algebra = _expect(algebra, BlockAlgebra, "AlgebraPartialAction takes a BlockAlgebra")
        e = group.identity
        doms: dict[int, BlockIdeal] = {}
        domains = _as_dict(domains, "domains")
        maps = _as_dict(maps, "maps")
        for g in [*domains, *maps]:  # 1.0 and True are equal to 1, but name no element
            if type(g) is not int or not 0 <= g < group.order:
                raise MalformedInput(f"unknown group element {g!r}")
        for g in group.elements():
            if g in domains:
                d = domains[g]
                doms[g] = d if isinstance(d, BlockIdeal) else algebra.ideal(d)
                if doms[g].algebra != algebra:
                    raise MalformedInput("domain ideal belongs to a different algebra")
            elif g == e:
                doms[g] = algebra.full_ideal()
            else:
                doms[g] = algebra.zero_ideal()
        mps: dict[int, WreathMap] = {}
        for g in group.elements():
            if g in maps:
                if not isinstance(maps[g], WreathMap):
                    raise MalformedInput(f"map of {group.name(g)} is not a wreath map")
                mps[g] = maps[g]
            elif g == e:
                mps[g] = wreath_identity(doms[e])
            else:
                mps[g] = WreathMap(algebra.zero_ideal(), algebra.zero_ideal(), {}, {})
        self.domains = doms
        self.maps = mps

    def support(self, g: int) -> frozenset:
        return self.domains[g].support

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraPartialAction)
            and self.group == other.group
            and self.algebra == other.algebra
            and self.domains == other.domains
            and self.maps == other.maps
        )

    def __repr__(self) -> str:
        return (
            f"AlgebraPartialAction(group_order={self.group.order}, "
            f"blocks={self.algebra.n_blocks})"
        )


def _position_data(pa: AlgebraPartialAction) -> tuple[list, list, list, list]:
    """Supports, position maps and twists of pa indexed by element, and the
    automorphism group of each position: the shared checks' inputs."""
    elements = pa.group.elements()
    return (
        [pa.domains[g].support for g in elements],
        [pa.maps[g].position_map for g in elements],
        [pa.maps[g].twists for g in elements],
        [b.aut_group for b in pa.algebra.blocks],
    )


def _from_position_data(G, algebra, supports, maps, twists) -> AlgebraPartialAction:
    """The action of G on algebra with S_g on ``supports[g]`` and alpha_g
    sending each p of S_{g^-1} to ``maps[g][p]`` under ``twists[g][p]``, all
    indexed by element: the inverse of :func:`_position_data`, and the one
    place this module builds an action.  ``WreathMap`` checks each map.  A
    support may be given as its ideal, which the lifts of one set action
    share."""
    ideals = [s if isinstance(s, BlockIdeal) else algebra.ideal(s) for s in supports]
    inv = G.inverses
    return AlgebraPartialAction(G, algebra, dict(enumerate(ideals)), {
        g: WreathMap(ideals[inv[g]], ideals[g], maps[g], twists[g]) for g in G.elements()
    })


def verify_algebra_partial_action(pa: AlgebraPartialAction) -> VerificationReport:
    """Itemized axiom check for a partial action on a block algebra.

    The wreath maps themselves are validated at construction; this check
    covers their fit with the stated domains, the three axioms (twists
    included) and the derived identities, by the set layer's code on
    positions, and class preservation.

    The axioms and derived identities are decided by the certificate of
    :func:`verify_partial_action`, on positions and with twists: besides
    the position maps, phi(h) = twist of alpha_h at x0 must be a
    homomorphism H -> Aut(B_{x0}), and the twist of alpha_g at x must be
    tau_y·phi(k_y^-1·g·k_x)·tau_x^-1, where y = alpha_g(x), k_y is an
    element with alpha_{k_y}(x0) = y (k_{x0} = e) and tau_y is the twist
    of alpha_{k_y} at x0.  Data that passes is the restriction of the
    global action induced from phi on the cosets of H, with x embedded at
    k_x H under tau_x^-1, so axioms (i)-(iii) hold twists included; a
    partial action passes, as its twists are those of its envelope (proved
    at :func:`set_actions._orbit_data`).  The derived identities follow
    from the axioms.  Each orbit keeps one automorphism group, because
    ``WreathMap`` preserves classes and automorphism groups at
    construction.  On a pass no scan runs; otherwise the axiom scan names
    the witnesses.

    Raises:
        MalformedInput: pa is no AlgebraPartialAction, or a map's source or
            target is not the stated ideal.
    """
    _expect(pa, AlgebraPartialAction,
            "verify_algebra_partial_action takes an algebra partial action")
    G = pa.group
    for g in G.elements():
        w = pa.maps[g]
        if w.source != pa.domains[G.inv(g)] or w.target != pa.domains[g]:
            raise MalformedInput(
                f"map of {G.name(g)} does not run from S_{{{G.name(G.inv(g))}}} to S_{{{G.name(g)}}}"
            )
    witnesses = _certified_witnesses(G, pa.algebra.positions(), *_position_data(pa))
    n = G.name
    report = VerificationReport("algebra partial action")
    _add_items(report, _axiom_items("S"), witnesses, (
        lambda kind, _: "alpha_e is not the identity map" if kind == "moves" else "S_e is a proper ideal",
        lambda g, h, p: f"g={n(g)}, h={n(h)}, block {p}",
        lambda g, h, p: f"g={n(g)}, h={n(h)}, block {p}",
        lambda g, h: f"g={n(g)}, h={n(h)}",
        lambda g: f"alpha of {n(G.inv(g))}",
    ))
    blocks = pa.algebra.blocks
    witness = _first(
        f"g={n(g)}, block {p}" for g in G.elements()
        for p, q in pa.maps[g].position_map.items() if blocks[p].iso_class != blocks[q].iso_class
    )
    report.add("blockwise class preservation", witness is None, witness)
    return report


def classify_indecomposable(pa: AlgebraPartialAction) -> tuple[Subgroup, dict[int, int]]:
    """For an action on a single block: the subgroup H on which the action is
    global, and the homomorphism H -> Aut(block) given by the twists, read
    as the stabilizer and phi of the one orbit of :func:`_orbit_data`.

    The reconstruction ``extend_by_zero_algebra(block, H, hom)`` equals the
    input for every valid action.

    Raises:
        MalformedInput: several blocks, or a support that is not a subgroup.
        TwistTransportConflict: twists that are not a homomorphism on H.
    """
    _expect(pa, AlgebraPartialAction, "classify_indecomposable takes an algebra partial action")
    if pa.algebra.n_blocks != 1:
        raise MalformedInput("classification applies to single-block algebras")
    (orbit,), _ = _orbit_data(pa.group, (0,), *_position_data(pa))
    return Subgroup(pa.group, orbit.stabilizer), orbit.phi


def extend_by_zero_algebra(
    block: Block,
    subgroup: Subgroup,
    hom: Mapping[int, int],
) -> AlgebraPartialAction:
    """Extension by zero of a global subgroup action on one block.

    ``hom`` maps each member of the subgroup (as a parent-group element
    index) to an automorphism index of the block; domains are the whole
    algebra on H and zero elsewhere.

    Raises:
        MalformedInput: block is no Block, or subgroup is no Subgroup.
        NotAHomomorphism: hom is not a homomorphism H -> Aut(block), is not
            total on H, does not fix the identity, or has a value that is
            not an exact int automorphism index.
    """
    _expect(block, Block, "extension by zero takes a single Block")
    G = _expect(subgroup, Subgroup, "extension by zero takes a Subgroup").parent
    aut = block.aut_group
    try:
        hom = dict(hom)
    except (TypeError, ValueError):  # "x" or [1] is no mapping
        raise NotAHomomorphism("hom is not a mapping") from None
    if set(hom) != set(subgroup.members):
        raise NotAHomomorphism("hom must be defined exactly on the subgroup members")
    if hom[G.identity] != aut.identity:
        raise NotAHomomorphism("hom must send the identity to the identity")
    for f in hom.values():  # True and 1.0 equal 1, but index no automorphism
        if type(f) is not int or not 0 <= f < aut.order:
            raise NotAHomomorphism(f"{f!r} is not an automorphism index")
    for a in subgroup.members:
        for b in subgroup.members:
            if hom[G.mul(a, b)] != aut.mul(hom[a], hom[b]):
                raise NotAHomomorphism(
                    f"hom({G.name(a)}*{G.name(b)}) != hom({G.name(a)})*hom({G.name(b)})"
                )
    elements = G.elements()
    return _from_position_data(
        G, BlockAlgebra((block,)), [(0,) if g in hom else () for g in elements],
        [{0: 0} if g in hom else {} for g in elements],
        [{0: hom[g]} if g in hom else {} for g in elements],
    )


class GlobalizationResult:
    """An enveloping action: the envelope algebra, a global action on it, the
    embedding of the original algebra, and the verification record.

    ``provenance[c]`` says which witness each envelope block came from.  Any
    instance returned by this module has all four checks passing.
    """

    def __init__(
        self,
        source: AlgebraPartialAction,
        envelope: BlockAlgebra,
        provenance: tuple,
        action: dict[int, WreathMap],
        embedding: WreathMap,
        checks: VerificationReport,
    ):
        self.source = source
        self.envelope = _expect(envelope, BlockAlgebra, "candidate envelope is not a block algebra")
        self.provenance = provenance
        self.action = action
        self.embedding = embedding
        self.checks = checks

    @property
    def block_count(self) -> int:
        return self.envelope.n_blocks

    def __repr__(self) -> str:
        return f"GlobalizationResult(blocks={self.block_count}, ok={self.checks.ok})"


def _candidate_parts(candidate) -> tuple[BlockAlgebra, dict, dict, dict]:
    """The envelope, the action, and the embedding's position map and twists
    of a candidate for :func:`verify_enveloping`, read as mapping keys or
    attributes: the one place a candidate is read.  MalformedInput names
    the first field that is missing or of the wrong kind."""
    envelope, action, embedding = (
        _field(candidate, name, "candidate") for name in ("envelope", "action", "embedding")
    )
    _expect(envelope, BlockAlgebra, "candidate envelope is not a block algebra")
    action = _as_dict(action, "candidate action")
    for g, w in action.items():
        if not isinstance(w, WreathMap):
            raise MalformedInput(f"candidate action of {g!r} is not a wreath map")
    _expect(embedding, (WreathMap, Mapping),
            "candidate embedding is neither a wreath map nor a mapping")
    pm = _field(embedding, "position_map", "candidate embedding")
    tw = embedding.twists if isinstance(embedding, WreathMap) else embedding.get("twists", {})
    return (envelope, action, dict(_expect(pm, Mapping, "embedding position_map is not a mapping")),
            dict(_expect(tw, Mapping, "embedding twists is not a mapping")))


def verify_enveloping(pa: AlgebraPartialAction, candidate) -> VerificationReport:
    """Run the four enveloping-action checks of a candidate against a partial
    action, by the set layer's :func:`set_actions._verify_envelope` on
    positions and twists: the embedding lands on an ideal (a union of full
    blocks, hit injectively and class-correctly), the orbit of the embedded
    algebra covers the envelope, the embedded S_g equal the intersections
    phi(A) ∩ beta_g(phi(A)), and phi intertwines alpha_g with beta_g.  The
    items are named and keyed ideal, covers, intersection and equivariance.

    ``candidate`` needs ``envelope`` (BlockAlgebra), ``action`` (one full-
    support wreath map per group element, forming a global action) and
    ``embedding`` (a wreath map, or a mapping with ``position_map`` and
    ``twists``).

    That beta is a global action is checked as beta_g∘beta_t = beta_gt for
    every g and for t in ``G.generators``, exact given beta_e = id as
    :func:`groups._law_failures` proves.  The loop is not that function's:
    several classes need one twist table per position, and perfbench's
    globalize-s5 workload counts this loop's ``wreath_compose`` calls.

    Raises:
        MalformedInput: pa is no algebra action, the candidate lacks a field
            or has one of the wrong kind, or its action is not global.
    """
    _expect(pa, AlgebraPartialAction, "verify_enveloping takes an algebra partial action")
    envelope, action, pm, tw = _candidate_parts(candidate)
    G = pa.group
    env_positions = frozenset(envelope.positions())
    if set(action) != set(G.elements()):
        raise MalformedInput("action must assign a map to every group element")
    for g in G.elements():
        w = action[g]
        if w.source.support != env_positions or w.target.support != env_positions:
            raise MalformedInput(f"beta of {G.name(g)} is not defined on the whole envelope")
    if not action[G.identity].is_identity():
        raise MalformedInput("beta_e is not the identity")
    for g in G.elements():
        for t in G.generators:
            if wreath_compose(action[g], action[t]) != action[G.mul(g, t)]:
                raise MalformedInput(
                    f"beta is not a global action at {G.name(g)}*{G.name(t)}"
                )

    supports, maps, twists, auts = _position_data(pa)
    blocks, env_blocks = pa.algebra.blocks, envelope.blocks
    ideal = {"undefined": "embedding is not defined on every block",
             "collapses": "embedding collapses blocks", "leaves": "embedding leaves the envelope",
             "class": "block {} lands on a block of another class",
             "twist": "twist at block {} is missing or invalid"}
    tails = {"undefined": ": embedding undefined", "groups": ": twists live in different groups"}
    names = ("ideal", "covers", "intersection", "equivariance")
    report = VerificationReport("enveloping action", header="enveloping-action checks:")
    return _verify_envelope(report, names, (
        lambda kind, p: ideal[kind].format(p),
        lambda missing: f"orbit misses blocks {missing}",
        lambda g: f"g={G.name(g)}",
        lambda g, p, kind: f"g={G.name(g)}, block {p}" + tails.get(kind, ""),
    ), G, pa.algebra.positions(), supports, maps,
        [action[g].position_map for g in G.elements()], env_positions, pm,
        twists, auts, [action[g].twists for g in G.elements()], tw,
        lambda p, q: blocks[p].iso_class == env_blocks[q].iso_class,
    )


def globalize_extension_by_zero(
    block: Block,
    subgroup: Subgroup,
    hom: Mapping[int, int],
) -> GlobalizationResult:
    """Envelope of the extension by zero of a global subgroup action on one
    block: one copy of the block per transversal representative, with beta_g
    moving the g_i component to the j(g,g_i) component under the twist
    hom(h(g,g_i)): the one-orbit case of :func:`_assemble`.  Its move table
    is the verified j table of :func:`coset_factorize`, as beta_g sends
    block i to block j(g, g_i); the block is embedded at block 0, the coset
    H, and block i is anchored at (hom, g_i, identity), whose twist
    hom(g_j^-1 g g_i) is hom(h(g, g_i)).  Blocks follow the transversal, e
    first."""
    pa = extend_by_zero_algebra(block, subgroup, hom)
    G = subgroup.parent
    cf = coset_factorize(G, subgroup)
    reps = cf.reps
    identity = pa.algebra.blocks[0].aut_group.identity
    anchors = [(hom, r, identity) for r in reps]
    witnesses = tuple((r, 0) for r in reps)
    return _assemble(pa, witnesses, cf.j_table, {0: 0}, anchors, tuple(G.name(r) for r in reps))


def split_partial_action(pa: AlgebraPartialAction) -> list[AlgebraPartialAction]:
    """Split an action on a class-grouped product into one action per class.

    Blocks of each class must occupy contiguous positions; wreath maps
    preserve classes, so each component is invariant and the restriction is
    well defined.  ``product_partial_action`` reassembles the input.
    """
    _expect(pa, AlgebraPartialAction, "split_partial_action takes an algebra partial action")
    components = decompose_isotypic(pa.algebra)
    for _, positions in components:
        if positions != tuple(range(positions[0], positions[0] + len(positions))):
            raise MalformedInput("blocks of one class must be contiguous")
    supports, maps, twists, _ = _position_data(pa)
    out = []
    for _, positions in components:
        offset, end = positions[0], positions[-1] + 1
        algebra = BlockAlgebra(pa.algebra.blocks[offset:end])
        out.append(_from_position_data(
            pa.group, algebra,
            [[p - offset for p in s if offset <= p < end] for s in supports],
            [{p - offset: q - offset for p, q in m.items() if offset <= p < end} for m in maps],
            [{p - offset: f for p, f in tw.items() if offset <= p < end} for tw in twists],
        ))
    return out


def product_partial_action(components: Sequence[AlgebraPartialAction]) -> AlgebraPartialAction:
    """Blockwise concatenation of actions of one group.

    Raises:
        MalformedInput: no components, or ``components`` is no sequence of
            algebra partial actions.
        GroupMismatch: the components are over different groups.
    """
    try:
        components = tuple(components)
    except TypeError:  # 5 is no sequence of actions
        raise MalformedInput("components are not a sequence of actions") from None
    if not components:
        raise MalformedInput("need at least one component")
    for i, c in enumerate(components):
        if not isinstance(c, AlgebraPartialAction):
            raise MalformedInput(f"component {i} is not an algebra partial action")
    G = components[0].group
    for c in components[1:]:
        if c.group != G:
            raise GroupMismatch("components are over different groups")
    blocks = tuple(itertools.chain.from_iterable(c.algebra.blocks for c in components))
    supports = [set() for _ in G.elements()]
    maps = [{} for _ in G.elements()]
    twists = [{} for _ in G.elements()]
    offset = 0
    for c in components:
        c_supports, c_maps, c_twists, _ = _position_data(c)
        for g in G.elements():
            supports[g].update(p + offset for p in c_supports[g])
            maps[g].update((p + offset, q + offset) for p, q in c_maps[g].items())
            twists[g].update((p + offset, f) for p, f in c_twists[g].items())
        offset += c.algebra.n_blocks
    return _from_position_data(G, BlockAlgebra(blocks), supports, maps, twists)


def restrict_to_idempotents(pa: AlgebraPartialAction) -> SetPartialAction:
    """The induced partial action on the primitive central idempotents: the
    carrier is the block positions, domains are the supports, and the maps
    are the position parts of the wreath maps."""
    _expect(pa, AlgebraPartialAction, "restrict_to_idempotents takes an algebra partial action")
    supports, maps, _, _ = _position_data(pa)
    positions = pa.algebra.positions()
    return SetPartialAction(pa.group, positions, dict(enumerate(supports)), dict(enumerate(maps)))


def lift_set_action(spa: SetPartialAction) -> AlgebraPartialAction:
    """The unique twist-free algebra action inducing a given set action:
    one scalar-line block per carrier point (point i of the carrier becomes
    position i), identity twists everywhere.

    ``restrict_to_idempotents`` inverts this lift; on carriers that are
    already 0..n-1 the round trip is the identity in both directions.

    Raises:
        MalformedInput: spa is no SetPartialAction, or its carrier is empty
            ("need at least one copy": no algebra has zero blocks).
    """
    _expect(spa, SetPartialAction, "the lift takes a set partial action")
    block = k_line_block()
    G = spa.group
    pos = {x: i for i, x in enumerate(spa.carrier)}
    maps = [{pos[x]: pos[y] for x, y in spa.maps[g].items()} for g in G.elements()]
    return _from_position_data(
        G, block_power(block, len(spa.carrier)),
        [[pos[x] for x in spa.domains[g]] for g in G.elements()], maps,
        [dict.fromkeys(m, block.aut_group.identity) for m in maps],
    )


def globalize_block_power(pa: AlgebraPartialAction) -> GlobalizationResult:
    """Envelope of a partial action on any block algebra, mixed classes
    included: one envelope block per point of the envelope of the idempotent
    restriction, a copy of the block at its orbit witness (g, x), assembled
    by :func:`_assemble`.  The orbit data (x0, H, phi, k_y, tau_y) is
    computed once, twists included, for both the classes and their anchors:
    a class is anchored at its embedded pair (e, x) if it has one, else at
    its witness (t, x), with b_c = t k_x and T_c = tau_x.

    On scalar-line blocks every twist is the identity and the position maps
    are those of the set envelope.  The result always has at most n·|G|
    blocks and passes all four enveloping checks; input that is not a
    partial action raises rather than being resolved silently:
    ``MalformedInput`` when its positions are at fault, as
    :func:`globalize_set` of its idempotent restriction would, and
    ``TwistTransportConflict`` when only its twists are (``MalformedInput``
    too when pa is no algebra action).
    """
    _expect(pa, AlgebraPartialAction, "globalize_block_power takes an algebra partial action")
    G = pa.group
    positions = pa.algebra.positions()
    orbits, paths = _orbit_data(G, positions, *_position_data(pa))
    witnesses, moves, embedding = _envelope_classes(G, positions, orbits, paths)
    seeds = list(witnesses)
    for x, c in embedding.items():
        seeds[c] = (G.identity, x)
    anchors = []
    for t, x in seeds:
        o, k_x, tau_x = paths[x]
        anchors.append((orbits[o].phi, G.table[t][k_x], tau_x))
    provenance = tuple((G.name(t), x) for (t, x) in witnesses)
    return _assemble(pa, witnesses, moves, embedding, anchors, provenance)


def _assemble(
    pa: AlgebraPartialAction,
    witnesses: tuple,
    moves: Sequence[Sequence[int]],
    embedding: dict[int, int],
    anchors: list,
    provenance: tuple,
) -> GlobalizationResult:
    """Envelope of pa whose block c copies the block at witnesses[c] = (t, x),
    with beta_g sending c to c' = moves[g][c], the class of (gt, x), under
    the twist T_c' phi(b_c'^-1 g b_c) T_c^-1, where anchors[c] =
    (phi, b_c, T_c), and position x embedded at block embedding[x], the
    class of (e, x), untwisted.  These twists compose, as
    phi is a homomorphism on H, so beta is an action.  At the embedded block
    of x, anchored at (k_x, tau_x), beta_g twists by
    tau_y phi(k_y^-1 g k_x) tau_x^-1, y = alpha_g(x), which
    :func:`set_actions._orbit_data` has checked to be the twist of alpha_g
    at x, so the embedding is equivariant.  Raises InternalInconsistency if
    the envelope fails verify_enveloping."""
    G = pa.group
    table = G.table
    envelope = BlockAlgebra(tuple(pa.algebra.blocks[x] for (_, x) in witnesses))
    full = envelope.full_ideal()
    # per block c: what beta_g reads where c is the source, and where c is
    # the target: the row of b_c^-1 and T_c
    sources, targets = [], []
    for c, (phi, b, T) in enumerate(anchors):
        aut = envelope.blocks[c].aut_group
        sources.append((b, phi, aut.table, aut.inv(T)))
        targets.append((table[G.inv(b)], T))
    action = {}
    for g in G.elements():
        row = table[g]
        tw = {}
        for c, (d, (b, phi, mul, back)) in enumerate(zip(moves[g], sources)):
            b_inv, T = targets[d]
            tw[c] = mul[mul[T][phi[b_inv[row[b]]]]][back]
        action[g] = WreathMap(full, full, dict(enumerate(moves[g])), tw)
    embedding = WreathMap(
        pa.algebra.full_ideal(),
        envelope.ideal(embedding.values()),
        embedding,
        {x: pa.algebra.blocks[x].aut_group.identity for x in embedding},
    )
    candidate = {"envelope": envelope, "action": action, "embedding": embedding}
    checks = verify_enveloping(pa, candidate)
    if not checks.ok:
        raise InternalInconsistency("constructed envelope failed its own checks")
    return GlobalizationResult(pa, envelope, provenance, action, embedding, checks)


def _result_parts(result) -> tuple[AlgebraPartialAction, BlockAlgebra, dict, dict, dict]:
    """The source of a globalization and its :func:`_candidate_parts`;
    MalformedInput unless :func:`verify_enveloping` finds a global action
    and an embedding onto an ideal."""
    parts = _candidate_parts(result)
    source = _expect(_field(result, "source", "candidate"), AlgebraPartialAction,
                     "candidate source is not an algebra partial action")
    ideal = verify_enveloping(source, result).items[0]
    if not ideal.passed:
        raise MalformedInput(f"candidate embedding lands on no ideal: {ideal.witness}")
    return (source, *parts)


def globalizations_equivalent(
    a: GlobalizationResult, b: GlobalizationResult
) -> Optional[WreathMap]:
    """An equivariant wreath isomorphism between two envelopes of the same
    partial action, commuting with both embeddings; None if there is none.
    The search is the set layer's, with twists, pairing equal blocks only.

    Raises:
        MalformedInput: a result, read by :func:`_result_parts`, is
            malformed, or the two embed different algebras.
        GroupMismatch: the sources are over different groups.
        InternalInconsistency: the search returned data that is not a
            wreath isomorphism, which would be a bug.
    """
    (src_a, env_a, act_a, pm_a, tw_a), (src_b, env_b, act_b, pm_b, tw_b) = (
        _result_parts(a), _result_parts(b)
    )
    if src_a.group != src_b.group:
        raise GroupMismatch("envelopes are over different groups")
    if src_a.algebra != src_b.algebra:
        raise MalformedInput("envelopes embed different algebras")
    if env_a.n_blocks != env_b.n_blocks:
        return None
    G = src_a.group
    seeds = []
    for p, q in pm_a.items():
        aut = src_a.algebra.blocks[p].aut_group
        seeds.append((q, pm_b[p], aut.mul(tw_b[p], aut.inv(tw_a[p]))))
    twists = (
        [act_a[g].twists for g in G.elements()], [act_b[g].twists for g in G.elements()],
        [blk.aut_group for blk in env_a.blocks],
        lambda p, q: env_a.blocks[p] == env_b.blocks[q],
    )
    found = _equivariant_bijection(
        G, [act_a[g].position_map for g in G.elements()],
        [act_b[g].position_map for g in G.elements()],
        env_a.positions(), env_b.positions(), seeds, twists,
    )
    if found is None:
        return None
    try:
        return WreathMap(env_a.full_ideal(), env_b.full_ideal(), *found)
    except PartialActionError as exc:
        raise InternalInconsistency(f"equivalence search built no isomorphism: {exc}") from exc


def _homomorphisms(G: FiniteGroup, stabilizer: tuple[int, ...], aut: FiniteGroup) -> list[dict]:
    """Every homomorphism phi from the subgroup ``stabilizer`` of G to aut:
    for each choice of images of the subgroup's ``generators``, phi is
    spread over the members by phi(h s) = phi(h) phi(s), and kept when that
    rule then holds for every member h and generator s; by induction on t
    as a product of generators, phi(h t) = phi(h) phi(t) for every t."""
    H = Subgroup(G, stabilizer)
    gens = [H.members[s] for s in H.as_group().generators]
    out = []
    for images in itertools.product(aut.elements(), repeat=len(gens)):
        steps = list(zip(gens, images))
        phi, reached = {G.identity: aut.identity}, [G.identity]
        for h in reached:  # grows as members are reached
            for s, f in steps:
                hs = G.mul(h, s)
                if hs not in phi:
                    phi[hs] = aut.mul(phi[h], f)
                    reached.append(hs)
        if all(phi[G.mul(h, s)] == aut.mul(phi[h], f) for h in reached for s, f in steps):
            out.append(phi)
    return out


def _twisted_lifts(
    spa: SetPartialAction, algebra: BlockAlgebra, homs: dict
) -> list[AlgebraPartialAction]:
    """Every partial action on ``algebra``, a power of one block, whose
    positions carry the set action spa (carrier 0..n-1); ``homs`` caches
    Hom(H, Aut B) per stabilizer H.

    With (x0, H, k_y) the orbit data of spa (:func:`_orbit_data`), each
    orbit takes a homomorphism phi: H -> Aut(B) and a twist tau_y per
    y != x0 (tau_{x0} = e), and alpha_g twists x by
    tau_y phi(k_y^-1 g k_x) tau_x^-1, where y = alpha_g(x).  Such data
    passes the orbit-data checks, so it gives a partial action; every
    twisted action over spa passes them, so it is given by its own
    phi(h) = twists[h][x0] and tau_y = twists[k_y][x0]; and these read the
    choice back, so no action comes twice.

    The order is ``itertools.product`` order over the {g, g^-1} pairs in
    element order: an involution's twists at its fixed points, then at the
    lesser point of each 2-cycle; any other g's twists on D_{g^-1};
    positions ascending, the carrier order in which spa's maps are keyed.
    """
    G, positions, maps = spa.group, spa.carrier, spa.maps
    aut = algebra.blocks[0].aut_group
    table, inv, e = G.table, G.inverses, G.identity
    orbits, paths = _orbit_data(G, positions, spa.domains, maps)
    for orbit in orbits:
        if orbit.stabilizer not in homs:
            homs[orbit.stabilizer] = _homomorphisms(G, orbit.stabilizer, aut)
    bases = {orbit.base for orbit in orbits}
    free = [y for y in positions if y not in bases]
    keyed = []  # the (g, p) whose twists name a choice, in product order
    for g in G.elements():
        m = maps[g]
        if g == inv[g] != e:
            keyed += [(g, p) for p in m if m[p] == p]
            keyed += [(g, p) for p in m if p < m[p]]
        elif e != g < inv[g]:
            keyed += [(g, p) for p in m]
    batch = []
    for phis in itertools.product(*(homs[orbit.stabilizer] for orbit in orbits)):
        for choice in itertools.product(aut.elements(), repeat=len(free)):
            tau = dict.fromkeys(bases, aut.identity) | dict(zip(free, choice))
            twists = []
            for g in G.elements():
                tw = {}
                for x, y in maps[g].items():
                    o, k_x, _ = paths[x]
                    f = phis[o][table[inv[paths[y][1]]][table[g][k_x]]]
                    tw[x] = aut.mul(aut.mul(tau[y], f), aut.inv(tau[x]))
                twists.append(tw)
            batch.append(twists)
    batch.sort(key=lambda tw: [tw[g][p] for g, p in keyed])
    ideals = [algebra.ideal(spa.domains[g]) for g in G.elements()]  # shared by every lift
    return [_from_position_data(G, algebra, ideals, maps, twists) for twists in batch]


def enumerate_algebra_partial_actions(
    G: FiniteGroup,
    n: int,
    block: Block,
) -> list[AlgebraPartialAction]:
    """All partial actions of G on the n-th power of a block: each set action
    on the idempotent positions, in the order of
    :func:`enumerate_partial_actions`, with its twisted lifts from
    :func:`_twisted_lifts`.  Carriers are 0..n-1, so
    ``restrict_to_idempotents`` and ``lift_set_action`` round-trip exactly
    on the output.
    """
    algebra = block_power(block, n)
    homs: dict[tuple, list] = {}  # stabilizer -> Hom(H, Aut B)
    return [
        pa for spa in enumerate_partial_actions(G, n) for pa in _twisted_lifts(spa, algebra, homs)
    ]
