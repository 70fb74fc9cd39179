"""The document parser entry by entry, kept as the oracle of ``documents``.

``parse_set_action`` and ``parse_algebra_action`` check every carrier
point, domain point, map pair and twist one at a time, in the form the
package replaced with whole-list and whole-map checks; ``parse_workbench``
reads a workbench with them in place of the package's.  They raise what
the package's parsers raise, with the same messages and ``$.`` paths, and
build equal actions.

Three rules were added to both after the replacement: a block-position
key is the decimal form of the position, so ``"01"`` or ``"00"`` is
rejected where it used to be read as 1 or 0; two keys of one map that name
one position, such as ``"1"`` and ``1`` in a Python mapping, are rejected
once every entry has passed its own checks, where the last entry used to
stand; and a set-action map key that is no string, such as ``1`` in a
Python mapping, is rejected where this oracle used to read it as ``"1"``.
Two element keys of one ``domains`` or ``maps`` object that name one
element, such as the name ``"1"`` and the index ``1`` in a Python mapping,
are rejected at the second of them, where the last one used to stand.
"""

from __future__ import annotations

from collections.abc import Mapping
from unittest import mock

from partial_actions import documents
from partial_actions.algebra_actions import AlgebraPartialAction
from partial_actions.block_algebras import WreathMap
from partial_actions.documents import (
    _ABSENT,
    Workbench,
    _action_group,
    _integer,
    _require,
    _resolve_element,
    _section,
    parse_algebra,
)
from partial_actions.errors import DocumentError, PartialActionError, UnknownElement
from partial_actions.set_actions import SetPartialAction


def _carrier_lookup(carrier: tuple, path: str) -> dict:
    lookup: dict = {}
    for x in carrier:
        key = str(x)
        _require(key not in lookup, f"carrier points collide at {key!r}", path)
        lookup[key] = x
    return lookup


def _element(G, key, seen: dict, path: str) -> int:
    """The element ``key`` names, unless an earlier key in ``seen`` (the
    first key met for each element) names it too."""
    g = _resolve_element(G, key, path)
    if g in seen:
        raise DocumentError(f"element keys {seen[g]!r} and {key!r} name element {G.name(g)}", path)
    seen[g] = key
    return g


def parse_set_action(doc, groups: Mapping, path: str = "action") -> SetPartialAction:
    _require(isinstance(doc, Mapping), "action document must be an object", path)
    G = _action_group(doc, groups, path)
    _require(isinstance(doc.get("carrier"), list), "action needs a carrier list", path)
    carrier = tuple(doc["carrier"])
    for i, x in enumerate(carrier):
        _require(
            isinstance(x, (str, int)) and not isinstance(x, bool),
            "carrier points must be strings or integers",
            f"{path}.carrier[{i}]",
        )
    lookup = _carrier_lookup(carrier, f"{path}.carrier")
    domains, seen = {}, {}
    for key, points in _section(doc, "domains", path).items():
        g = _element(G, key, seen, f"{path}.domains")
        _require(isinstance(points, list), "domain must be a list", f"{path}.domains.{key}")
        resolved = []
        for x in points:  # a point matches only a carrier point of its own JSON type
            point = lookup.get(str(x), _ABSENT)
            if type(point) is not type(x):
                raise DocumentError(f"point {x!r} not in the carrier", f"{path}.domains.{key}")
            resolved.append(point)
        domains[g] = resolved
    maps, seen = {}, {}
    for key, pairs in _section(doc, "maps", path).items():
        g = _element(G, key, seen, f"{path}.maps")
        _require(isinstance(pairs, Mapping), "map must be an object", f"{path}.maps.{key}")
        m = {}
        for k, v in pairs.items():  # keys are JSON strings; values keep their type
            _require(isinstance(k, str), f"map key {k!r} is not a string", f"{path}.maps.{key}")
            _require(k in lookup, f"point {k!r} not in the carrier", f"{path}.maps.{key}")
            point = lookup.get(str(v), _ABSENT)
            if type(point) is not type(v):
                raise DocumentError(f"point {v!r} not in the carrier", f"{path}.maps.{key}")
            m[lookup[k]] = point
        maps[g] = m
    try:
        return SetPartialAction(G, carrier, domains, maps)
    except PartialActionError as exc:
        raise DocumentError(str(exc), path) from exc


def parse_algebra_action(
    doc, groups: Mapping, algebras: Mapping, path: str = "action"
) -> AlgebraPartialAction:
    _require(isinstance(doc, Mapping), "action document must be an object", path)
    G = _action_group(doc, groups, path)
    aref = doc.get("algebra")
    if isinstance(aref, str):
        _require(aref in algebras, f"unknown algebra reference {aref!r}", f"{path}.algebra")
        algebra = algebras[aref]
    else:
        algebra = parse_algebra(aref, groups, f"{path}.algebra")

    def position(x, where: str) -> int:
        if type(x) is not int or not 0 <= x < algebra.n_blocks:
            _integer(x, "block position", where)
            raise DocumentError(f"block position {x} out of range", where)
        return x

    def key_position(k, where: str) -> int:  # JSON object keys are strings such as "0"
        digits = isinstance(k, str) and k.isascii() and k.isdigit()
        _require(not digits or k == "0" or k[0] != "0",
                 f"block position {k!r} has a leading zero", where)
        return position(int(k) if digits else k, where)

    domains: dict[int, list[int]] = {}
    seen: dict = {}
    for key, positions in _section(doc, "domains", path).items():
        g = _element(G, key, seen, f"{path}.domains")
        if isinstance(positions, Mapping):  # ideal form {"support": [...]}
            positions = positions.get("support")
        _require(
            isinstance(positions, list),
            "domain must be a position list or {\"support\": [...]}",
            f"{path}.domains.{key}",
        )
        domains[g] = [position(p, f"{path}.domains.{key}") for p in positions]
    twists_doc = _section(doc, "twists", path)
    maps_doc = _section(doc, "maps", path)
    for key in twists_doc:
        _require(key in maps_doc, f"twists for {key!r}, which has no map", f"{path}.twists.{key}")
    maps, seen = {}, {}
    for key, pairs in maps_doc.items():
        g = _element(G, key, seen, f"{path}.maps")
        _require(isinstance(pairs, Mapping), "map must be an object", f"{path}.maps.{key}")
        tw_pairs = _section(twists_doc, key, f"{path}.twists")
        tw_path = f"{path}.twists.{key}"
        if not tw_pairs.keys() <= pairs.keys():
            raise DocumentError(
                f"twist at {min(tw_pairs.keys() - pairs.keys())!r}, "
                f"where the map of {key} is undefined",
                tw_path,
            )
        pm, tw, named = {}, {}, {}
        for k, v in pairs.items():  # a twist is keyed like its map entry
            p = key_position(k, f"{path}.maps.{key}")
            named.setdefault(p, k)  # the first key naming p
            pm[p] = position(v, f"{path}.maps.{key}")
            ref = tw_pairs.get(k, _ABSENT)  # only a missing twist is the identity
            aut = algebra.blocks[p].aut_group
            if ref is _ABSENT:
                tw[p] = aut.identity
            elif isinstance(ref, str):
                try:
                    tw[p] = aut.element_by_name(ref)
                except UnknownElement:
                    raise DocumentError(f"unknown automorphism {ref!r}", tw_path) from None
            else:
                tw[p] = _integer(ref, "automorphism index", tw_path)
                _require(0 <= ref < aut.order, f"bad automorphism index {ref}", tw_path)
        for k in pairs:
            p = key_position(k, f"{path}.maps.{key}")
            _require(named[p] == k, f"map keys {named[p]!r} and {k!r} name block position {p}",
                     f"{path}.maps.{key}")
        source = algebra.ideal(pm.keys())
        target = algebra.ideal(domains.get(g, pm.values()))
        try:
            maps[g] = WreathMap(source, target, pm, tw)
        except PartialActionError as exc:
            raise DocumentError(str(exc), f"{path}.maps.{key}") from exc
    try:
        return AlgebraPartialAction(G, algebra, domains, maps)
    except PartialActionError as exc:
        raise DocumentError(str(exc), path) from exc


def parse_workbench(doc) -> Workbench:
    """``documents.parse_workbench`` with the action parsers above."""
    with mock.patch.multiple(
        documents, parse_set_action=parse_set_action, parse_algebra_action=parse_algebra_action
    ):
        return documents.parse_workbench(doc)
