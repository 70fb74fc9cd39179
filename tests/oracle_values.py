"""The package's value classes as the ``dataclasses`` declarations they
replaced, kept as the oracle for their value semantics.

The package writes these twelve classes out by hand so that importing it
loads neither ``dataclasses`` nor ``inspect``.  Each declaration here is the
one it replaced: the same fields, the same ``dataclass`` options and the
``__post_init__`` that normalizes and validates the fields.  Methods that
``__post_init__`` and ``FiniteGroup.__repr__`` do not use are left out.
:func:`to_oracle` rebuilds a package instance as an oracle instance from the
same constructor arguments, so that ``==``, ``hash``, ``repr`` and
assignment can be compared.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Optional

from partial_actions.errors import (
    ClassMismatch,
    MalformedInput,
    NotAGroup,
    NotASubgroup,
)

FORMAT_VERSION = "1"


# ---------------------------------------------------------------- groups


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    names: tuple[str, ...]
    doc_kind: Optional[tuple[str, int]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "inverses", tuple(row.index(self.identity) for row in self.table))
        index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if not isinstance(name, str):
                raise NotAGroup(f"element name {name!r} is not a string")
            if index.setdefault(name, i) != i:
                raise NotAGroup(f"duplicate element name {name!r}")
        object.__setattr__(self, "_by_name", index)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def name(self, a: int) -> str:
        return self.names[a]

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, names={list(self.names)})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        G = self.parent
        for a in self.members:
            if type(a) is not int or not 0 <= a < G.order:
                raise NotASubgroup(f"member {a!r} is not an element index 0..{G.order - 1}")
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        member_set = frozenset(members)
        if not members:
            raise NotASubgroup("empty member set")
        if G.identity not in member_set:
            raise NotASubgroup("does not contain the identity")
        for a in members:
            if G.inv(a) not in member_set:
                raise NotASubgroup(f"not closed under inverse at {G.name(a)}")
            for b in members:
                if G.mul(a, b) not in member_set:
                    raise NotASubgroup(
                        f"not closed under multiplication at {G.name(a)}*{G.name(b)}"
                    )
        object.__setattr__(self, "_member_set", member_set)


@dataclass(frozen=True)
class CosetFactorization:
    subgroup: Subgroup
    reps: tuple[int, ...]
    j_table: tuple[tuple[int, ...], ...]
    h_table: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RowCheck:
    g: int
    g_i: int
    claimed_j: int
    claimed_h: int
    computed_j: int
    computed_h: int


@dataclass
class DiscrepancyReport:
    factorization: CosetFactorization
    checked: list[RowCheck]
    missing: list[tuple[int, int, int, int]]


# ---------------------------------------------------------------- block algebras


@dataclass(frozen=True)
class Block:
    iso_class: str
    aut_group: FiniteGroup


@dataclass(frozen=True)
class BlockAlgebra:
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise MalformedInput("an algebra needs at least one block")
        by_class: dict[str, FiniteGroup] = {}
        for b in self.blocks:
            prior = by_class.setdefault(b.iso_class, b.aut_group)
            if prior != b.aut_group:
                raise MalformedInput(
                    f"blocks labeled {b.iso_class!r} carry different automorphism groups"
                )
        orders = {aut.order for aut in by_class.values()}
        object.__setattr__(self, "_single_class", len(by_class) == 1)
        object.__setattr__(self, "_aut_order", orders.pop() if len(orders) == 1 else None)


@dataclass(frozen=True)
class BlockIdeal:
    algebra: BlockAlgebra
    support: frozenset

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        for p in self.support:
            if not (type(p) is int and 0 <= p < len(self.algebra.blocks)):
                raise MalformedInput(f"position {p!r} outside the algebra")


@dataclass(frozen=True, eq=True)
class WreathMap:
    source: BlockIdeal
    target: BlockIdeal
    position_map: Mapping[int, int]
    twists: Mapping[int, int]

    def __post_init__(self):
        pm = dict(self.position_map)
        tw = dict(self.twists)
        if pm.keys() != self.source.support:
            raise MalformedInput("position map keys must be exactly the source support")
        images = set(pm.values())
        if images != self.target.support or len(images) != len(pm):
            raise MalformedInput("position map is not a bijection onto the target support")
        src_alg, tgt_alg = self.source.algebra, self.target.algebra
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

    __hash__ = None


# ---------------------------------------------------------------- reporting and documents


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: Optional[str] = None
    key: Optional[str] = None


@dataclass
class VerificationReport:
    subject: str
    items: list[CheckItem] = field(default_factory=list)
    header: Optional[str] = None


@dataclass
class Workbench:
    version: str = FORMAT_VERSION
    groups: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)


ORACLES = {
    cls.__name__: cls
    for cls in (
        FiniteGroup, Subgroup, CosetFactorization, RowCheck, DiscrepancyReport,
        Block, BlockAlgebra, BlockIdeal, WreathMap,
        CheckItem, VerificationReport, Workbench,
    )
}


def to_oracle(value):
    """The oracle counterpart of a package value: each instance of a value
    class is rebuilt by its oracle class from the same arguments, its
    fields converted in turn; tuples, lists and dict values are converted
    entry by entry, and anything else is returned as it is."""
    cls = ORACLES.get(type(value).__name__)
    if cls is not None:
        return cls(*(to_oracle(getattr(value, f.name)) for f in dataclasses.fields(cls)))
    if isinstance(value, tuple):
        return tuple(map(to_oracle, value))
    if isinstance(value, list):
        return list(map(to_oracle, value))
    if isinstance(value, dict):
        return {k: to_oracle(v) for k, v in value.items()}
    return value
