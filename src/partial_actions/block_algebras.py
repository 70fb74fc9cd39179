"""Algebras modeled as products of labeled indecomposable blocks.

A block is abstract: an isomorphism-class label plus its automorphism group.
Ideals generated by central idempotents correspond to subsets of block
positions, and every blockwise isomorphism is a position bijection carrying a
per-position automorphism twist.  Elements are handled symbolically, as
formal sums of twisted tokens, so equality of maps is decidable without
materializing a base field.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Union

from ._values import Frozen
from .errors import (
    ClassMismatch,
    CompositionMismatch,
    MalformedInput,
    SupportViolation,
    _as_dict,
    _expect,
)
from .groups import FiniteGroup, make_group


def trivial_group() -> FiniteGroup:
    return make_group([[0]], names=["1"])


class Block(Frozen):
    """One indecomposable factor: a class label and its automorphism group.

    Blocks with equal labels are declared isomorphic; scalar-line blocks
    carry the trivial automorphism group.
    """

    _fields = ("iso_class", "aut_group")

    def __init__(self, iso_class: str, aut_group: FiniteGroup):
        _expect(iso_class, str, f"block class {iso_class!r} is not a string")
        _expect(aut_group, FiniteGroup, "a block's automorphism group must be a FiniteGroup")
        object.__setattr__(self, "iso_class", iso_class)
        object.__setattr__(self, "aut_group", aut_group)


def k_line_block() -> Block:
    return Block("K", trivial_group())


class BlockAlgebra(Frozen):
    """An ordered product of blocks; position i carries the i-th primitive
    central idempotent."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        try:
            object.__setattr__(self, "blocks", tuple(blocks))
        except TypeError:  # 5 or True is no sequence of blocks
            raise MalformedInput("blocks are not a sequence of blocks") from None
        if not self.blocks:
            raise MalformedInput("an algebra needs at least one block")
        by_class: dict[str, FiniteGroup] = {}
        for i, b in enumerate(self.blocks):
            if not isinstance(b, Block):  # "x" or 5 is no block
                raise MalformedInput(f"block {i} is not a block")
            prior = by_class.setdefault(b.iso_class, b.aut_group)
            if prior != b.aut_group:
                raise MalformedInput(
                    f"blocks labeled {b.iso_class!r} carry different automorphism groups"
                )
        # read by WreathMap's whole-map checks: one class means one
        # automorphism group, since equal labels carry equal groups
        orders = {aut.order for aut in by_class.values()}
        object.__setattr__(self, "_single_class", len(by_class) == 1)
        object.__setattr__(self, "_aut_order", orders.pop() if len(orders) == 1 else None)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def positions(self) -> range:
        return range(len(self.blocks))

    def full_ideal(self) -> "BlockIdeal":
        return BlockIdeal(self, frozenset(self.positions()))

    def zero_ideal(self) -> "BlockIdeal":
        return BlockIdeal(self, frozenset())

    def ideal(self, support) -> "BlockIdeal":
        return BlockIdeal(self, support)


def block_power(block: Block, n: int) -> BlockAlgebra:
    if type(n) is not int:  # True equals 1, but is no number of copies
        raise MalformedInput(f"number of copies {n!r} is not an integer")
    if n < 1:
        raise MalformedInput("need at least one copy")
    return BlockAlgebra((block,) * n)


class BlockIdeal(Frozen):
    """An ideal generated by central idempotents: a set of block positions."""

    _fields = ("algebra", "support")

    def __init__(self, algebra: BlockAlgebra, support: frozenset):
        _expect(algebra, BlockAlgebra, "BlockIdeal takes a BlockAlgebra")
        object.__setattr__(self, "algebra", algebra)
        if not isinstance(support, frozenset):
            try:
                support = tuple(support)  # checked before hashing: a list is no position
            except TypeError:  # 5 is no set of positions
                raise MalformedInput(f"position {support!r} outside the algebra") from None
        if support and not (  # True equals 1, but is no position
            set(map(type, support)) <= {int}
            and 0 <= min(support) and max(support) < algebra.n_blocks
        ):
            n = algebra.n_blocks
            for p in support:  # name the first position at fault
                if not (type(p) is int and 0 <= p < n):
                    raise MalformedInput(f"position {p!r} outside the algebra")
        object.__setattr__(self, "support", frozenset(support))


class WreathMap(Frozen):
    """A blockwise isomorphism: a class-preserving position bijection plus a
    per-source-position automorphism twist.

    ``position_map[p] = q`` moves block p of the source onto block q of the
    target, keyed in position order; ``twists[p]`` is the automorphism (an
    element index of the block's automorphism group) applied to the payload
    in transit.  Positions and twists are exact ints, never bools or floats.
    Both are read-only views of the map's own dicts, so no map changes
    after its checks; they compare equal to, and print as, dicts.

    The constructor checks, in this order, raising at the first failure:
    source and target are ideals, the two maps mappings (MalformedInput);
    the keys of ``position_map`` are the source support and its values a
    bijection onto the target support (MalformedInput); each block p lands
    on a block of its class with the same automorphism group (ClassMismatch,
    naming the first p in key order); ``twists`` has the same keys; and each
    twist is an element index of its block's automorphism group
    (MalformedInput, naming the first p).  Each check is a whole-set or
    whole-map operation, O(n) in C for n = |support|: within one algebra of
    a single class every block has the same automorphism group (equal
    labels carry equal groups), so the class check holds without a look at
    the positions, and exact-int twists are range-checked by their min and
    max against the order that the source blocks share.  The per-position
    loop runs only for maps between two algebras, algebras of several
    classes or automorphism orders, non-int twists, or to name a failure.
    ``tests/oracle_checks.py`` keeps that loop as the oracle.
    """

    _fields = ("source", "target", "position_map", "twists")

    def __init__(
        self,
        source: BlockIdeal,
        target: BlockIdeal,
        position_map: Mapping[int, int],
        twists: Mapping[int, int],
    ):
        _expect(source, BlockIdeal, "WreathMap takes a source BlockIdeal")
        _expect(target, BlockIdeal, "WreathMap takes a target BlockIdeal")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        pm = _as_dict(position_map, "position map")
        tw = _as_dict(twists, "twists")
        if pm.keys() != source.support or not set(map(type, pm)) <= {int}:
            raise MalformedInput("position map keys must be exactly the source support")
        images = set(pm.values())
        if (images != target.support or len(images) != len(pm)
                or not set(map(type, images)) <= {int}):
            raise MalformedInput("position map is not a bijection onto the target support")
        src_alg, tgt_alg = source.algebra, target.algebra
        if not (src_alg._single_class and (src_alg is tgt_alg or src_alg == tgt_alg)):
            for p, q in pm.items():
                src_block = src_alg.blocks[p]
                tgt_block = tgt_alg.blocks[q]
                if src_block.iso_class != tgt_block.iso_class:
                    raise ClassMismatch(
                        f"position {p} ({src_block.iso_class}) cannot map onto "
                        f"position {q} ({tgt_block.iso_class})"
                    )
                if src_block.aut_group != tgt_block.aut_group:
                    raise ClassMismatch(
                        f"blocks at {p} and {q} share a label but not automorphisms"
                    )
        if tw.keys() != pm.keys():
            raise MalformedInput("twists must be indexed exactly by the source support")
        order = src_alg._aut_order
        if not (
            tw and order is not None and set(map(type, tw.values())) == {int}
            and 0 <= min(tw.values()) and max(tw.values()) < order
        ):
            for p, f in tw.items():
                if not (type(f) is int and 0 <= f < src_alg.blocks[p].aut_group.order):
                    raise MalformedInput(f"twist at {p} is not an automorphism index")
        if list(pm) != sorted(pm):
            pm = {p: pm[p] for p in sorted(pm)}
        object.__setattr__(self, "position_map", MappingProxyType(pm))
        object.__setattr__(self, "twists", MappingProxyType(tw))

    @classmethod
    def _unchecked(cls, source, target, position_map, twists) -> "WreathMap":
        """Valid pieces in dicts the map owns, stored as the constructor
        stores them; no check runs."""
        w = cls.__new__(cls)
        vars(w).update(source=source, target=target, position_map=MappingProxyType(position_map),
                       twists=MappingProxyType(twists))
        return w

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(source={self.source!r}, target={self.target!r}, "
                f"position_map={dict(self.position_map)!r}, twists={dict(self.twists)!r})")

    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and all(q == p for p, q in self.position_map.items())
            and all(
                f == self.source.algebra.blocks[p].aut_group.identity
                for p, f in self.twists.items()
            )
        )

    __hash__ = None  # value equality over dict fields; not hashable


def wreath_identity(ideal: BlockIdeal) -> WreathMap:
    _expect(ideal, BlockIdeal, "wreath_identity takes a BlockIdeal")
    return WreathMap(
        ideal,
        ideal,
        {p: p for p in ideal.support},
        {p: ideal.algebra.blocks[p].aut_group.identity for p in ideal.support},
    )


Token = tuple[int, str]
FormalSum = dict[int, Token]


def symbolic_basis(ideal: BlockIdeal) -> FormalSum:
    """One untwisted symbol per supported position (x0, x1, ...)."""
    _expect(ideal, BlockIdeal, "symbolic_basis takes a BlockIdeal")
    return {
        p: (ideal.algebra.blocks[p].aut_group.identity, f"x{p}")
        for p in sorted(ideal.support)
    }


def wreath_apply(w: WreathMap, element: Mapping[int, Union[str, Token]]) -> FormalSum:
    """Push a formal sum through a wreath map: the payload at position p
    lands at position_map[p] with the twist applied on the left.  A bare
    symbol is untwisted: its twist is the identity of the block's group.

    Raises:
        SupportViolation: the element mentions positions outside the source.
        MalformedInput: a payload is no symbol or (twist index, symbol) pair.
    """
    _expect(w, WreathMap, "wreath_apply takes a WreathMap")
    element = _as_dict(element, "element")
    extra = set(element) - w.source.support
    if extra:
        raise SupportViolation(f"element supported outside the source at {sorted(extra)}")
    out: FormalSum = {}
    for p, payload in element.items():
        aut = w.source.algebra.blocks[p].aut_group
        token = (aut.identity, payload) if isinstance(payload, str) else payload
        if not (type(token) is tuple and len(token) == 2 and type(token[0]) is int
                and 0 <= token[0] < aut.order and isinstance(token[1], str)):
            raise MalformedInput(f"payload {payload!r} at {p} is not a symbol or a twisted symbol")
        out[w.position_map[p]] = (aut.mul(w.twists[p], token[0]), token[1])
    return out


def wreath_compose(w2: WreathMap, w1: WreathMap) -> WreathMap:
    """The composite w2 ∘ w1: positions compose, twists multiply along the
    path (the w2 twist is applied after the w1 twist).

    It skips the constructor's checks, which it always passes: w1 and w2
    are bijections onto w2.source and w2.target that keep each block's class
    and automorphism group, and each twist is a product in that group's
    table.  ``tests/oracle_checks.py`` builds it through the constructor.

    Raises:
        MalformedInput: w2 or w1 is no WreathMap.
        CompositionMismatch: the target of w1 is not the source of w2.
    """
    _expect(w2, WreathMap, "wreath_compose takes two wreath maps")
    _expect(w1, WreathMap, "wreath_compose takes two wreath maps")
    if w1.target != w2.source:
        raise CompositionMismatch("target of the first map differs from source of the second")
    pm1, pm2, tw1, tw2 = w1.position_map, w2.position_map, w1.twists, w2.twists
    pm = {p: pm2[q] for p, q in pm1.items()}
    algebra = w1.source.algebra
    if algebra._single_class:
        mul = algebra.blocks[0].aut_group.table
        tw = {p: mul[tw2[q]][tw1[p]] for p, q in pm1.items()}
    else:
        blocks = algebra.blocks
        tw = {p: blocks[p].aut_group.table[tw2[q]][tw1[p]] for p, q in pm1.items()}
    return WreathMap._unchecked(w1.source, w2.target, pm, tw)


def decompose_isotypic(algebra: BlockAlgebra) -> list[tuple[str, tuple[int, ...]]]:
    """Partition of block positions by class label, ordered by first
    occurrence."""
    _expect(algebra, BlockAlgebra, "decompose_isotypic takes a BlockAlgebra")
    seen: dict[str, list[int]] = {}
    order: list[str] = []
    for p, block in enumerate(algebra.blocks):
        if block.iso_class not in seen:
            seen[block.iso_class] = []
            order.append(block.iso_class)
        seen[block.iso_class].append(p)
    return [(label, tuple(seen[label])) for label in order]
