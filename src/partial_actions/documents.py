"""JSON document format for groups, algebras and actions.

A workbench document has a version field and named sections:

    {"version": "1",
     "groups":   {"G": {"kind": "symmetric", "n": 3}},
     "algebras": {"A": {"blocks": [{"class": "L", "aut": "G"}]}},
     "actions":  {"alpha": {"kind": "set", "group": "G", "carrier": [...],
                            "domains": {...}, "maps": {...}}}}

Groups come in three kinds: ``cayley`` (explicit table), ``symmetric`` and
``cyclic``.  Actions reference groups and algebras by name or inline them.
Domain/map entries are keyed by element display name; group elements omitted
from ``domains`` have empty domains (the identity defaults to the full
carrier with the identity map).  Element keys resolve through their group
(``FiniteGroup.resolve``) and twist names through the block's automorphism
group (``FiniteGroup.element_by_name``); this module only says where a bad
reference is.  Parsing and serialization round-trip.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Mapping, Optional, Union

from ._values import Value
from .algebra_actions import AlgebraPartialAction
from .block_algebras import Block, BlockAlgebra, WreathMap
from .errors import DocumentError, PartialActionError, UnknownElement
from .groups import FiniteGroup, cyclic_group, make_group, symmetric_group
from .set_actions import SetPartialAction

FORMAT_VERSION = "1"
_ABSENT = object()  # no JSON value is this object or has its type


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise DocumentError(message, path)


def _integer(value, what: str, path: str) -> int:
    """``value`` itself; a bool, float or string is an error, never coerced."""
    _require(type(value) is int, f"{what} {value!r} is not an integer", path)
    return value


def _section(doc: Mapping, key: str, path: str) -> Mapping:
    """The object at ``doc[key]`` (empty when absent); anything else is an
    error located at ``path.key``."""
    value = doc.get(key, {})
    _require(isinstance(value, Mapping), f"{key} must be an object", f"{path}.{key}")
    return value


def group_to_doc(G: FiniteGroup) -> dict:
    if G.doc_kind is not None:
        kind, n = G.doc_kind
        return {"kind": kind, "n": n}
    return {
        "kind": "cayley",
        "table": [list(row) for row in G.table],
        "names": list(G.names),
    }


def parse_group(doc, path: str = "group") -> FiniteGroup:
    _require(isinstance(doc, Mapping), "group document must be an object", path)
    kind = doc.get("kind")
    _require(kind in ("cayley", "symmetric", "cyclic"), f"unknown group kind {kind!r}", path)
    if kind == "cayley":
        table = doc.get("table")
        _require(isinstance(table, list), "cayley group needs a table", path)
        for i, row in enumerate(table):
            _require(isinstance(row, list), "table row must be a list", f"{path}.table[{i}]")
            for j, x in enumerate(row):
                if type(x) is not int:
                    _integer(x, "table entry", f"{path}.table[{i}][{j}]")
        names = doc.get("names")
        if names is not None:
            _require(isinstance(names, list), "names must be a list", f"{path}.names")
            for i, name in enumerate(names):
                _require(isinstance(name, str), f"element name {name!r} is not a string",
                         f"{path}.names[{i}]")
    else:
        n = _integer(doc.get("n"), "group size", f"{path}.n")
    try:
        if kind == "cayley":
            return make_group(table, names)
        return symmetric_group(n) if kind == "symmetric" else cyclic_group(n)
    except PartialActionError as exc:
        raise DocumentError(str(exc), path) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"bad group document: {exc}", path) from exc


def _resolve_element(G: FiniteGroup, ref, path: str) -> int:
    try:
        return G.resolve(ref)
    except UnknownElement:
        raise DocumentError(f"unknown group element {ref!r}", path) from None


def algebra_to_doc(algebra: BlockAlgebra) -> dict:
    return {
        "blocks": [
            {"class": b.iso_class, "aut": group_to_doc(b.aut_group)} for b in algebra.blocks
        ]
    }


def parse_algebra(doc, groups: Mapping[str, FiniteGroup], path: str = "algebra") -> BlockAlgebra:
    _require(isinstance(doc, Mapping), "algebra document must be an object", path)
    _require(isinstance(doc.get("blocks"), list) and doc["blocks"], "algebra needs blocks", path)
    blocks = []
    for i, bdoc in enumerate(doc["blocks"]):
        bpath = f"{path}.blocks[{i}]"
        _require(isinstance(bdoc, Mapping) and "class" in bdoc, "block needs a class", bpath)
        iso_class = bdoc["class"]
        _require(isinstance(iso_class, str), f"class {iso_class!r} is not a string", f"{bpath}.class")
        aut_doc = bdoc.get("aut", {"kind": "cayley", "table": [[0]], "names": ["1"]})
        if isinstance(aut_doc, str):
            _require(aut_doc in groups, f"unknown group reference {aut_doc!r}", bpath)
            aut = groups[aut_doc]
        else:
            aut = parse_group(aut_doc, f"{bpath}.aut")
        blocks.append(Block(iso_class, aut))
    try:
        return BlockAlgebra(tuple(blocks))
    except PartialActionError as exc:
        raise DocumentError(str(exc), path) from exc


def _carrier_lookup(carrier: tuple, path: str) -> dict[str, object]:
    lookup: dict[str, object] = {}
    for x in carrier:
        key = str(x)
        _require(key not in lookup, f"carrier points collide at {key!r}", path)
        lookup[key] = x
    return lookup


def set_action_to_doc(
    spa: SetPartialAction, group_ref: Union[str, dict, None] = None
) -> dict:
    """The action as a document.  ``group_ref`` is what its ``group`` field
    holds: a group's name in the workbench, a group document, or ``None``
    for a fresh ``group_to_doc(spa.group)``.  A group document is used as
    given, not copied, so that many actions of one group can share one
    (``_json_text`` encodes a shared document once)."""
    G = spa.group
    e = G.identity
    doc: dict = {
        "kind": "set",
        "group": group_ref if group_ref is not None else group_to_doc(G),
        "carrier": list(spa.carrier),
        "domains": {},
        "maps": {},
    }
    for g in G.elements():
        if g != e and not spa.domains[g]:
            continue
        by_position = sorted(spa.domains[g], key=spa.carrier.index)
        doc["domains"][G.name(g)] = list(by_position)
        doc["maps"][G.name(g)] = {
            str(k): spa.maps[g][k]
            for k in sorted(spa.maps[g], key=spa.carrier.index)
        }
    return doc


def _action_group(doc: Mapping, groups: Mapping[str, FiniteGroup], path: str) -> FiniteGroup:
    """The group an action document names in ``groups`` or inlines."""
    gref = doc.get("group")
    if isinstance(gref, str):
        _require(gref in groups, f"unknown group reference {gref!r}", f"{path}.group")
        return groups[gref]
    return parse_group(gref, f"{path}.group")


def parse_set_action(
    doc,
    groups: Mapping[str, FiniteGroup],
    path: str = "action",
) -> SetPartialAction:
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
    domains = {}
    for key, points in _section(doc, "domains", path).items():
        g = _resolve_element(G, key, f"{path}.domains")
        _require(isinstance(points, list), "domain must be a list", f"{path}.domains.{key}")
        resolved = []
        for x in points:  # a point matches only a carrier point of its own JSON type
            point = lookup.get(str(x), _ABSENT)
            if type(point) is not type(x):
                raise DocumentError(f"point {x!r} not in the carrier", f"{path}.domains.{key}")
            resolved.append(point)
        domains[g] = resolved
    maps = {}
    for key, pairs in _section(doc, "maps", path).items():
        g = _resolve_element(G, key, f"{path}.maps")
        _require(isinstance(pairs, Mapping), "map must be an object", f"{path}.maps.{key}")
        m = {}
        for k, v in pairs.items():  # keys are JSON strings; values keep their type
            _require(str(k) in lookup, f"point {k!r} not in the carrier", f"{path}.maps.{key}")
            point = lookup.get(str(v), _ABSENT)
            if type(point) is not type(v):
                raise DocumentError(f"point {v!r} not in the carrier", f"{path}.maps.{key}")
            m[lookup[str(k)]] = point
        maps[g] = m
    try:
        return SetPartialAction(G, carrier, domains, maps)
    except PartialActionError as exc:
        raise DocumentError(str(exc), path) from exc


def algebra_action_to_doc(
    pa: AlgebraPartialAction,
    group_ref: Optional[str] = None,
    algebra_ref: Optional[str] = None,
) -> dict:
    G = pa.group
    e = G.identity
    doc: dict = {
        "kind": "algebra",
        "group": group_ref if group_ref is not None else group_to_doc(G),
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_doc(pa.algebra),
        "domains": {},
        "maps": {},
        "twists": {},
    }
    for g in G.elements():
        if g != e and not pa.support(g):
            continue
        doc["domains"][G.name(g)] = sorted(pa.support(g))
        w = pa.maps[g]
        doc["maps"][G.name(g)] = {str(p): q for p, q in sorted(w.position_map.items())}
        doc["twists"][G.name(g)] = {
            str(p): pa.algebra.blocks[p].aut_group.name(f)
            for p, f in sorted(w.twists.items())
        }
    return doc


def parse_algebra_action(
    doc,
    groups: Mapping[str, FiniteGroup],
    algebras: Mapping[str, BlockAlgebra],
    path: str = "action",
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
        return position(int(k) if digits else k, where)

    domains: dict[int, list[int]] = {}
    for key, positions in _section(doc, "domains", path).items():
        g = _resolve_element(G, key, f"{path}.domains")
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
    maps = {}
    for key, pairs in maps_doc.items():
        g = _resolve_element(G, key, f"{path}.maps")
        _require(isinstance(pairs, Mapping), "map must be an object", f"{path}.maps.{key}")
        tw_pairs = _section(twists_doc, key, f"{path}.twists")
        tw_path = f"{path}.twists.{key}"
        if not tw_pairs.keys() <= pairs.keys():
            raise DocumentError(
                f"twist at {min(tw_pairs.keys() - pairs.keys())!r}, "
                f"where the map of {key} is undefined",
                tw_path,
            )
        pm, tw = {}, {}
        for k, v in pairs.items():  # a twist is keyed like its map entry
            p = key_position(k, f"{path}.maps.{key}")
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


AnyAction = Union[SetPartialAction, AlgebraPartialAction]


class Workbench(Value):
    """Parsed workbench document: named groups, algebras and actions."""

    _fields = ("version", "groups", "algebras", "actions")

    def __init__(
        self,
        version: str = FORMAT_VERSION,
        groups: Optional[dict[str, FiniteGroup]] = None,
        algebras: Optional[dict[str, BlockAlgebra]] = None,
        actions: Optional[dict[str, AnyAction]] = None,
    ):
        self.version = version
        self.groups = {} if groups is None else groups
        self.algebras = {} if algebras is None else algebras
        self.actions = {} if actions is None else actions


def parse_workbench(doc) -> Workbench:
    _require(isinstance(doc, Mapping), "workbench document must be an object", "$")
    version = doc.get("version", FORMAT_VERSION)
    _require(isinstance(version, str), f"version {version!r} is not a string", "$.version")
    _require(version == FORMAT_VERSION, f"unsupported format version {version!r}", "$.version")
    wb = Workbench(version=version)
    for name, gdoc in _section(doc, "groups", "$").items():
        wb.groups[name] = parse_group(gdoc, f"$.groups.{name}")
    for name, adoc in _section(doc, "algebras", "$").items():
        wb.algebras[name] = parse_algebra(adoc, wb.groups, f"$.algebras.{name}")
    for name, action_doc in _section(doc, "actions", "$").items():
        path = f"$.actions.{name}"
        _require(isinstance(action_doc, Mapping), "action must be an object", path)
        kind = action_doc.get("kind", "set")
        if kind == "set":
            wb.actions[name] = parse_set_action(action_doc, wb.groups, path)
        elif kind == "algebra":
            wb.actions[name] = parse_algebra_action(action_doc, wb.groups, wb.algebras, path)
        else:
            raise DocumentError(f"unknown action kind {kind!r}", path)
    return wb


def workbench_to_doc(wb: Workbench) -> dict:
    doc: dict = {"version": wb.version, "groups": {}, "algebras": {}, "actions": {}}
    group_names = {id(G): name for name, G in wb.groups.items()}
    algebra_names = {id(A): name for name, A in wb.algebras.items()}
    for name, G in wb.groups.items():
        doc["groups"][name] = group_to_doc(G)
    for name, A in wb.algebras.items():
        doc["algebras"][name] = algebra_to_doc(A)
    for name, action in wb.actions.items():
        if isinstance(action, SetPartialAction):
            doc["actions"][name] = set_action_to_doc(action, group_names.get(id(action.group)))
        else:
            doc["actions"][name] = algebra_action_to_doc(
                action,
                group_names.get(id(action.group)),
                algebra_names.get(id(action.algebra)),
            )
    return doc


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    Exact ``str``, ``int``, ``bool`` and ``None`` values, lists, tuples and
    dicts with ``str`` keys are encoded here; any other value (a float, a dict
    with other keys, a subclass) is handed to ``json.dumps``.  A container
    object met again is encoded once: ``ensure_ascii`` leaves no raw newline
    inside a string, so its text moves to another depth by replacing the
    newline-and-indent it was encoded at.
    """
    memo: dict[int, tuple[str, Optional[str]]] = {}  # id -> (newline+indent, text)

    def encode(o, nl: str) -> str:  # nl: a newline and the indent of o's line
        t = type(o)
        if t is str:
            return _encode_str(o)
        if t is int:
            return int.__repr__(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if not (t is list or t is tuple or (t is dict and all(type(k) is str for k in o))):
            return json.dumps(o, indent=2).replace("\n", nl)
        if not o:
            return "{}" if t is dict else "[]"
        seen = memo.get(id(o))
        if seen is not None:
            at, text = seen
            if text is None:
                raise ValueError("Circular reference detected")
            return text if at == nl else text.replace(at, nl)
        memo[id(o)] = (nl, None)
        inner = nl + "  "
        if t is dict:
            items = [_encode_str(k) + ": " + encode(v, inner) for k, v in o.items()]
            text = "{" + inner + ("," + inner).join(items) + nl + "}"
        else:
            text = "[" + inner + ("," + inner).join([encode(v, inner) for v in o]) + nl + "]"
        memo[id(o)] = (nl, text)
        return text

    return encode(obj, "\n")


def load_workbench(path: str) -> Workbench:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}", "$") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: line {exc.lineno}, column {exc.colno}", "$") from exc
    return parse_workbench(doc)
