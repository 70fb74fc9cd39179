"""Algebras modeled as products of labeled indecomposable blocks.

A block is abstract: an isomorphism-class label plus its automorphism group.
Ideals generated by central idempotents correspond to subsets of block
positions, and every blockwise isomorphism is a position bijection carrying a
per-position automorphism twist.  Elements are handled symbolically, as
formal sums of twisted tokens, so equality of maps is decidable without
materializing a base field.
"""

from __future__ import annotations

from typing import Mapping, Union

from ._values import Frozen
from .errors import (
    ClassMismatch,
    CompositionMismatch,
    MalformedInput,
    SupportViolation,
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
        object.__setattr__(self, "iso_class", iso_class)
        object.__setattr__(self, "aut_group", aut_group)


def k_line_block(label: str = "K") -> Block:
    return Block(label, trivial_group())


class BlockAlgebra(Frozen):
    """An ordered product of blocks; position i carries the i-th primitive
    central idempotent."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        object.__setattr__(self, "blocks", tuple(blocks))
        if not self.blocks:
            raise MalformedInput("an algebra needs at least one block")
        by_class: dict[str, FiniteGroup] = {}
        for b in self.blocks:
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
        return BlockIdeal(self, frozenset(support))


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
        object.__setattr__(self, "algebra", algebra)
        support = frozenset(support)
        object.__setattr__(self, "support", support)
        for p in support:  # True equals 1, but is no position
            if not (type(p) is int and 0 <= p < algebra.n_blocks):
                raise MalformedInput(f"position {p!r} outside the algebra")

    def class_multiset(self) -> tuple[str, ...]:
        return tuple(sorted(self.algebra.blocks[p].iso_class for p in self.support))

    def __contains__(self, position: int) -> bool:
        return position in self.support


def ideals_isomorphic(a: BlockIdeal, b: BlockIdeal) -> bool:
    """Whether two central-idempotent ideals are isomorphic: their supports
    carry the same multiset of block classes.  Over a single scalar-line
    class this reduces to equal support cardinality."""
    return a.class_multiset() == b.class_multiset()


class WreathMap(Frozen):
    """A blockwise isomorphism: a class-preserving position bijection plus a
    per-source-position automorphism twist.

    ``position_map[p] = q`` moves block p of the source onto block q of the
    target, keyed in position order; ``twists[p]`` is the automorphism (an
    element index of the block's automorphism group) applied to the payload
    in transit.

    The constructor checks, in this order, raising at the first failure:
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
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        pm = dict(position_map)
        tw = dict(twists)
        if pm.keys() != source.support:
            raise MalformedInput("position map keys must be exactly the source support")
        images = set(pm.values())
        if images != target.support or len(images) != len(pm):
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
                if not (0 <= f < src_alg.blocks[p].aut_group.order):
                    raise MalformedInput(f"twist at {p} is not an automorphism index")
        if list(pm) != sorted(pm):
            pm = {p: pm[p] for p in sorted(pm)}
        object.__setattr__(self, "position_map", pm)
        object.__setattr__(self, "twists", tw)

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
    return WreathMap(
        ideal,
        ideal,
        {p: p for p in ideal.support},
        {p: ideal.algebra.blocks[p].aut_group.identity for p in ideal.support},
    )


def wreath_inverse(w: WreathMap) -> WreathMap:
    pm = {q: p for p, q in w.position_map.items()}
    tw = {
        q: w.source.algebra.blocks[p].aut_group.inv(w.twists[p])
        for p, q in w.position_map.items()
    }
    return WreathMap(w.target, w.source, pm, tw)


Token = tuple[int, str]
FormalSum = dict[int, Token]


def formal_sum(payloads: Mapping[int, Union[str, Token]]) -> FormalSum:
    """Normalize a formal sum: each position carries (twist index, symbol);
    a bare symbol means the untwisted token."""
    out: FormalSum = {}
    for p, payload in payloads.items():
        if isinstance(payload, str):
            out[p] = (0, payload)
        else:
            f, s = payload
            out[p] = (int(f), str(s))
    return out


def symbolic_basis(ideal: BlockIdeal, prefix: str = "x") -> FormalSum:
    """One untwisted symbol per supported position (x0, x1, ...)."""
    return {
        p: (ideal.algebra.blocks[p].aut_group.identity, f"{prefix}{p}")
        for p in sorted(ideal.support)
    }


def wreath_apply(w: WreathMap, element: Mapping[int, Union[str, Token]]) -> FormalSum:
    """Push a formal sum through a wreath map: the payload at position p
    lands at position_map[p] with the twist applied on the left.

    Raises:
        SupportViolation: the element mentions positions outside the source.
    """
    elem = formal_sum(element)
    extra = set(elem) - set(w.source.support)
    if extra:
        raise SupportViolation(f"element supported outside the source at {sorted(extra)}")
    out: FormalSum = {}
    for p, (f, symbol) in elem.items():
        aut = w.source.algebra.blocks[p].aut_group
        out[w.position_map[p]] = (aut.mul(w.twists[p], f), symbol)
    return out


def wreath_compose(w2: WreathMap, w1: WreathMap) -> WreathMap:
    """The composite w2 ∘ w1: positions compose, twists multiply along the
    path (the w2 twist is applied after the w1 twist).

    Raises:
        CompositionMismatch: the target of w1 is not the source of w2.
    """
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
    return WreathMap(w1.source, w2.target, pm, tw)


def make_ideal_iso(a: BlockIdeal, b: BlockIdeal, theta: Mapping[int, int]) -> WreathMap:
    """The coefficient-transport isomorphism along a support bijection theta:
    the payload at position p moves untwisted to theta(p).

    Raises:
        ClassMismatch: theta pairs blocks of different classes.
        MalformedInput: theta is not a bijection of the supports.
    """
    theta = dict(theta)
    if set(theta) != set(a.support) or set(theta.values()) != set(b.support):
        raise MalformedInput("theta is not a bijection between the supports")
    twists = {p: a.algebra.blocks[p].aut_group.identity for p in a.support}
    return WreathMap(a, b, theta, twists)


def decompose_isotypic(algebra: BlockAlgebra) -> list[tuple[str, tuple[int, ...]]]:
    """Partition of block positions by class label, ordered by first
    occurrence."""
    seen: dict[str, list[int]] = {}
    order: list[str] = []
    for p, block in enumerate(algebra.blocks):
        if block.iso_class not in seen:
            seen[block.iso_class] = []
            order.append(block.iso_class)
        seen[block.iso_class].append(p)
    return [(label, tuple(seen[label])) for label in order]
