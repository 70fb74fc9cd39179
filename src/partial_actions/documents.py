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

The group reader checks each table row as a whole (the set of its value
types).  The set reader checks the carrier's point types and string forms
and that each domain is a list and each map an object, then lets
``SetPartialAction`` decide; the algebra reader builds each ``BlockIdeal``
and ``WreathMap`` at once and lets them decide.  Only when a check or a
constructor refuses does a loop over the entries run, in document order,
to name the first one at fault; ``tests/oracle_documents.py`` keeps that
loop alone as the oracle of the action parsers.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional, Union

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
            if not set(map(type, row)) <= {int}:  # name the first entry of another type
                for j, x in enumerate(row):
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


def _resolve_element(G: FiniteGroup, ref, path: str) -> int:
    try:
        return G.resolve(ref)
    except UnknownElement:
        raise DocumentError(f"unknown group element {ref!r}", path) from None


def _element_key(G: FiniteGroup, key, named: dict, path: str) -> int:
    """The element ``key`` resolves to, unless an earlier key of its section
    (``named``, by element) names it too, as the index 1 and the name "1"."""
    g = _resolve_element(G, key, path)
    if named.setdefault(g, key) != key:
        raise DocumentError(f"element keys {named[g]!r} and {key!r} name element {G.name(g)}", path)
    return g


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


def set_action_to_doc(
    spa: SetPartialAction, group_ref: Union[str, dict, None] = None, *, _memo: Optional[dict] = None
) -> dict:
    """The action as a document.  ``group_ref`` is what its ``group`` field
    holds: a group's name in the workbench, a group document, or ``None``
    for a fresh ``group_to_doc(spa.group)``.  A group document is used as
    given, not copied, so that many actions of one group can share one
    (``_write_json`` encodes a shared document at most twice, then reuses
    its text; the output is streamed).

    Equal domains and equal maps share one container within a document:
    one list per domain (keyed by the domain frozenset) and one dict per
    map (keyed by the tuple of its items, which are in carrier order), kept
    in ``_memo``.  A dict passed as ``_memo`` to every call for the actions
    of one group on one carrier shares them across documents too, and the
    carrier list (under the key ``"carrier"``).  Its keys compare points by
    ``==``, so it must hold one carrier, whose points the constructor keeps
    apart (no ``1`` beside ``True``)."""
    G = spa.group
    e = G.identity
    carrier = spa.carrier
    memo = {} if _memo is None else _memo
    domains: dict = {}
    maps: dict = {}
    carrier_doc = memo.get("carrier")
    if carrier_doc is None:
        carrier_doc = memo["carrier"] = list(carrier)
    for g in G.elements():
        D = spa.domains[g]
        if g != e and not D:
            continue
        name = G.name(g)
        dom = memo.get(D)
        if dom is None:
            dom = memo[D] = [x for x in carrier if x in D]
        domains[name] = dom
        items = tuple(spa.maps[g].items())
        m_doc = memo.get(items)
        if m_doc is None:
            m_doc = memo[items] = {str(k): v for k, v in items}
        maps[name] = m_doc
    return {
        "kind": "set",
        "group": group_ref if group_ref is not None else group_to_doc(G),
        "carrier": carrier_doc,
        "domains": domains,
        "maps": maps,
    }


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
    kinds = set(map(type, carrier))
    if not kinds <= {str, int}:  # name the first point of another type
        for i, x in enumerate(carrier):
            ok = isinstance(x, (str, int)) and not isinstance(x, bool)
            _require(ok, "carrier points must be strings or integers", f"{path}.carrier[{i}]")
    keys = [*map(str, carrier)]
    lookup = dict(zip(keys, carrier))  # each point by its string form, a JSON key
    if len(lookup) < len(carrier):  # name the first collision
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise DocumentError(f"carrier points collide at {key!r}", f"{path}.carrier")
    domains_doc = _section(doc, "domains", path)
    maps_doc = _section(doc, "maps", path)

    def build() -> SetPartialAction:
        domains = {G.resolve(key): xs for key, xs in domains_doc.items()}
        maps = {G.resolve(key): dict(zip(map(lookup.__getitem__, pairs), pairs.values()))
                for key, pairs in maps_doc.items()}
        if len(domains) < len(domains_doc) or len(maps) < len(maps_doc):
            raise KeyError  # two keys of one element
        return SetPartialAction(G, carrier, domains, maps)

    if all(isinstance(xs, list) for xs in domains_doc.values()) and all(
            isinstance(pairs, Mapping) for pairs in maps_doc.values()):
        try:
            return build()
        except KeyError:
            pass  # an unknown or repeated element, or an unknown map key, which the walk names
        except PartialActionError as exc:
            refused = exc
    points, domain_keys, map_keys = frozenset(carrier), {}, {}
    for key, xs in domains_doc.items():  # name the first entry at fault, in document order
        _element_key(G, key, domain_keys, f"{path}.domains")
        where = f"{path}.domains.{key}"
        _require(isinstance(xs, list), "domain must be a list", where)
        for x in xs:  # the constructor's rule: a point of a carrier type, in the carrier
            _require(type(x) in kinds and x in points, f"point {x!r} not in the carrier", where)
    for key, pairs in maps_doc.items():
        _element_key(G, key, map_keys, f"{path}.maps")
        where = f"{path}.maps.{key}"
        _require(isinstance(pairs, Mapping), "map must be an object", where)
        for k, v in pairs.items():
            _require(isinstance(k, str), f"map key {k!r} is not a string", where)
            _require(k in lookup, f"point {k!r} not in the carrier", where)
            _require(type(v) in kinds and v in points, f"point {v!r} not in the carrier", where)
    # the walk raises when the constructor was skipped or a key unknown, so the constructor refused
    raise DocumentError(str(refused), path) from refused


def _wreath_map_doc(w: WreathMap) -> tuple[dict, dict]:
    """A wreath map as JSON: its position map and its twists by name, both
    keyed by ``str(p)`` in position order."""
    blocks = w.source.algebra.blocks
    position_map = {str(p): q for p, q in w.position_map.items()}
    twists = {str(p): blocks[p].aut_group.name(w.twists[p]) for p in w.position_map}
    return position_map, twists


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
        doc["maps"][G.name(g)], doc["twists"][G.name(g)] = _wreath_map_doc(pa.maps[g])
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

    n = algebra.n_blocks
    keyed = {str(p): p for p in range(n)}  # each position by its one key, "0" and never "00"

    def position(x, where: str) -> int:
        if type(x) is not int or not 0 <= x < n:
            _integer(x, "block position", where)
            raise DocumentError(f"block position {x} out of range", where)
        return x

    def key_position(k, where: str) -> int:  # JSON object keys are strings such as "0"
        if isinstance(k, str) and k.isascii() and k.isdigit():
            _require(k == "0" or k[0] != "0", f"block position {k!r} has a leading zero", where)
            _require(k in keyed, f"block position {k} out of range", where)
            return keyed[k]
        return position(k, where)

    def first_fault(pairs, tw_pairs, map_path: str, tw_path: str) -> None:
        """Raise at the first key, image or twist at fault, then at a repeated position."""
        named, twice = {}, None  # position -> the first key naming it; the first repeat
        for k, v in pairs.items():
            p = key_position(k, map_path)
            if named.setdefault(p, k) != k and twice is None:
                twice = f"map keys {named[p]!r} and {k!r} name block position {p}"
            aut = algebra.blocks[p].aut_group
            position(v, map_path)
            ref = tw_pairs.get(k, _ABSENT)
            if isinstance(ref, str):
                _require(ref in aut.names, f"unknown automorphism {ref!r}", tw_path)
            elif ref is not _ABSENT:
                _integer(ref, "automorphism index", tw_path)
                _require(0 <= ref < aut.order, f"bad automorphism index {ref}", tw_path)
        _require(twice is None, twice, map_path)

    ideals, named = {}, {}
    for key, support in _section(doc, "domains", path).items():
        g = _element_key(G, key, named, f"{path}.domains")
        if isinstance(support, Mapping):  # ideal form {"support": [...]}
            support = support.get("support")
        _require(
            isinstance(support, list),
            "domain must be a position list or {\"support\": [...]}",
            f"{path}.domains.{key}",
        )
        try:
            ideals[g] = algebra.ideal(support)  # S_g, reused as the target of alpha_g
        except PartialActionError:
            for p in support:  # name the first position at fault
                position(p, f"{path}.domains.{key}")
            raise
    twists_doc = _section(doc, "twists", path)
    maps_doc = _section(doc, "maps", path)
    for key in twists_doc:
        _require(key in maps_doc, f"twists for {key!r}, which has no map", f"{path}.twists.{key}")
    maps, named = {}, {}
    for key, pairs in maps_doc.items():
        g = _element_key(G, key, named, f"{path}.maps")
        map_path = f"{path}.maps.{key}"
        _require(isinstance(pairs, Mapping), "map must be an object", map_path)
        tw_pairs = _section(twists_doc, key, f"{path}.twists")
        tw_path = f"{path}.twists.{key}"
        if not tw_pairs.keys() <= pairs.keys():
            raise DocumentError(
                f"twist at {min(tw_pairs.keys() - pairs.keys())!r}, "
                f"where the map of {key} is undefined",
                tw_path,
            )
        try:
            pm, tw = {}, {}
            for k, v in pairs.items():  # a twist is keyed like its map entry
                p = keyed[k] if isinstance(k, str) else k
                pm[p] = v
                aut = algebra.blocks[p].aut_group
                ref = tw_pairs.get(k, _ABSENT)  # only a missing twist is the identity
                tw[p] = (aut.identity if ref is _ABSENT else ref if type(ref) is int
                         else aut.element_by_name(ref))
            target = ideals[g] if g in ideals else algebra.ideal(pm.values())
            w = WreathMap(algebra.ideal(pm), target, pm, tw)
        except (KeyError, IndexError, TypeError, PartialActionError) as exc:
            first_fault(pairs, tw_pairs, map_path, tw_path)
            raise DocumentError(str(exc), map_path) from exc  # a class or a bijection fault
        if len(pm) < len(pairs):  # 1 and "1" name one position
            first_fault(pairs, tw_pairs, map_path, tw_path)
        maps[g] = w
    # known elements, ideals of this algebra, wreath maps: the constructor refuses none
    return AlgebraPartialAction(G, algebra, ideals, maps)


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


_ENCODE = {  # the JSON text of a scalar, by its exact type
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_SCALARS = frozenset(_ENCODE)
_MET = object()  # memo state of a container written once, whose text is not kept


def _write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2)``, byte for byte, as pieces passed
    to ``write``.

    Exact ``str``, ``int``, ``bool`` and ``None`` values, lists, tuples and
    dicts with ``str`` keys are encoded here; any other value (a float, a dict
    with other keys, a subclass) is handed to ``json.dumps``.  A container
    that holds a container is written member by member; one of exact
    scalars only is one piece, from json's encoder.  A container object met
    again is encoded at most twice, then reused: its text is kept from its
    second meeting on, and ``ensure_ascii`` leaves no raw newline inside a
    string, so the text moves to another depth by replacing the
    newline-and-indent it was encoded at.
    """
    _write_value(obj, "\n", write, {})


def _write_value(o, nl: str, write, memo: dict) -> None:
    """Write ``o`` on a line whose newline and indent are ``nl``.  ``memo``
    maps the id of each container met so far to ``None`` while it is being
    written, then to ``_MET``, then to ``(nl, text)`` once it is met again."""
    t = type(o)
    if t in _SCALARS:
        write(_ENCODE[t](o))
        return
    if not (t is list or t is tuple or (t is dict and set(map(type, o)) <= {str})):
        write(json.dumps(o, indent=2).replace("\n", nl))
        return
    if not o:
        write("{}" if t is dict else "[]")
        return
    key = id(o)
    state = memo.get(key, _ABSENT)
    if state is _ABSENT:
        memo[key] = None
        _write_members(o, t, nl, write, memo)
        memo[key] = _MET
    elif state is _MET:
        memo[key] = None
        pieces: list[str] = []
        _write_members(o, t, nl, pieces.append, memo)
        text = "".join(pieces)
        memo[key] = (nl, text)
        write(text)
    elif state is None:
        raise ValueError("Circular reference detected")
    else:
        at, text = state
        write(text if at == nl else text.replace(at, nl))


@lru_cache(maxsize=64)
def _leaf_encoder(inner: str):
    """``encode`` of json's compact (C) encoder, items separated at the
    newline and indent ``inner``: one cached per depth, never a text."""
    return json.JSONEncoder(check_circular=False, separators=("," + inner, ": ")).encode


def _write_members(o, t: type, nl: str, write, memo: dict) -> None:
    """Write the non-empty container ``o`` (of type ``t``) from its opening
    bracket to its closing one."""
    inner = nl + "  "
    values = o.values() if t is dict else o
    if set(map(type, values)) <= _SCALARS:  # no container inside: one piece
        text = _leaf_encoder(inner)(o)
        write(text[0] + inner + text[1:-1] + nl + text[-1])
        return
    sep = "," + inner
    if t is dict:
        prefixes, brackets = [_encode_str(k) + ": " for k in o], "{}"
    else:
        prefixes, brackets = repeat(""), "[]"
    head = brackets[0] + inner  # text not yet written: the scalars since the last container
    for prefix, v in zip(prefixes, values):
        if type(v) in _SCALARS:
            head += prefix + _ENCODE[type(v)](v) + sep
        else:
            write(head + prefix)
            _write_value(v, inner, write, memo)
            head = sep
    write(head[: -len(sep)] + nl + brackets[1])


def _read_json(path: str):
    """The JSON value in the file at ``path``.  A file that cannot be read
    or decoded (missing, not UTF-8, nested too deep, an integer too long)
    is a ``DocumentError`` at ``$``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:  # a ValueError, worded by position
        raise DocumentError(f"invalid JSON: line {exc.lineno}, column {exc.colno}", "$") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}", "$") from exc


def load_workbench(path: str) -> Workbench:
    return parse_workbench(_read_json(path))
