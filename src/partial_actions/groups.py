"""Finite groups given by multiplication tables, subgroups, and the
coset-factorization maps j and h over the left transversal that
:func:`_cosets` numbers.

Elements are integers 0..order-1; ``table[a][b]`` is the product a*b.  For
permutation groups the product follows right-to-left function composition:
``a*b`` means "apply b, then a".
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

from ._values import Frozen, Value
from .errors import (
    InternalInconsistency,
    MalformedInput,
    NotAGroup,
    NotASubgroup,
    SizeLimit,
    UnknownElement,
)

MAX_TABLE_ORDER = 64  # largest explicit Cayley table; validating a group table costs O(n^2 log n)
MAX_SYMMETRIC_N = 6
MAX_CYCLIC_ORDER = 720  # 6!, the order of S6, the largest group accepted elsewhere

ElementRef = Union[int, str]


class FiniteGroup(Frozen):
    """A finite group as a validated Cayley table.

    Instances are immutable.  Construct through :func:`make_group`,
    :func:`cyclic_group` or :func:`symmetric_group` rather than directly.
    Element names are distinct strings; the group owns the one name index.
    ``inverses[a]`` is read off the table, as the column of the identity in
    row a.  Equality and hash leave out ``inverses`` and ``doc_kind``.
    """

    _fields = ("table", "identity", "names")  # compared; the repr is its own

    def __init__(
        self,
        table: tuple[tuple[int, ...], ...],
        identity: int,
        names: tuple[str, ...],
        doc_kind: Optional[tuple[str, int]] = None,
    ):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "inverses", tuple(row.index(identity) for row in table))
        object.__setattr__(self, "doc_kind", doc_kind)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not isinstance(name, str):  # documents write names as strings; never coerced
                raise NotAGroup(f"element name {name!r} is not a string")
            if index.setdefault(name, i) != i:
                raise NotAGroup(f"duplicate element name {name!r}")
        object.__setattr__(self, "_by_name", index)

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def name(self, a: int) -> str:
        return self.names[a]

    def element_by_name(self, label: str) -> int:
        try:
            return self._by_name[label]  # type: ignore[attr-defined]
        except (KeyError, TypeError):
            raise UnknownElement(f"no element named {label!r}") from None

    def resolve(self, ref: ElementRef) -> int:
        """The element a display name or an exact ``int`` index refers to;
        anything else, a bool or a float included, is unknown."""
        if type(ref) is int:
            if 0 <= ref < self.order:
                return ref
            raise UnknownElement(f"element index {ref} out of range")
        if isinstance(ref, str):
            return self.element_by_name(ref)
        raise UnknownElement(f"element reference {ref!r} is neither a name nor an index")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A sorted generating set S, |S| <= log2 |G|, of elements of large
        order: every element is a left-bracketed product ((s1*s2)*...)*sk of
        S (the identity is the empty product).  See :func:`_right_generators`."""
        return _right_generators(self.table, self.identity)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, names={list(self.names)})"


def _right_generators(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    """Greedy generating set of a table with a two-sided identity, sorted.

    Tries elements in descending element order, index order among ties (Z_n
    gets one generator, S4 and S5 two), and adds an element whenever it is
    not yet reached, where an element is reached when it is a left-bracketed
    product ((s1*s2)*...)*sk of the chosen set.  Every element ends up
    reached.  The table need not be associative (Light's test in
    :func:`make_group` runs on it before associativity is known): the powers
    a, a*a, (a*a)*a, ... still reach e, as y -> y*a permutes a Latin square.
    In a group the reached set is the subgroup the chosen set generates, and
    each new element lies outside it, so each addition at least doubles it
    and the result has at most log2 |G| members.
    """
    orders = []
    for a in range(len(table)):
        x, k = a, 1
        while x != identity:
            x, k = table[x][a], k + 1
        if k == len(table) > 1:  # the first candidate, and its powers reach every element
            return (a,)
        orders.append(k)
    gens: list[int] = []
    reached = {identity}
    for s in sorted(range(len(table)), key=orders.__getitem__, reverse=True):
        if s in reached:
            continue
        gens.append(s)
        stack = list(reached)
        while stack:
            x = stack.pop()
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return tuple(sorted(gens))


def _law_failures(table, gens, maps, images, twists=None, mul=None):
    """Each (g, s), s in ``gens``, where beta_g∘beta_s != beta_gs, s-major.

    ``table`` is G's product; ``maps[g]`` (tuple or dict) sends a point to
    its beta_g image, ``images[g]`` is the tuple of those images in one
    order of the points, and ``twists[g][p]``, if given, is beta_g's twist
    at position p = 0..n-1, composed by ``mul`` as in ``wreath_compose``.

    Given beta_e = id, s in a set S generating G by left-bracketed products
    suffices: each t != e is t's with s in S and t' shorter, and by
    induction on the length of t, as composition and G's product associate,
    beta_g∘beta_t = beta_g∘beta_t'∘beta_s = beta_gt'∘beta_s = beta_(gt')s = beta_gt.
    """
    for s in gens:
        images_s = images[s]
        for g, row in enumerate(table):
            gs, m = row[s], maps[g]
            if tuple([m[y] for y in images_s]) != images[gs]:
                yield g, s
            elif twists is not None:
                tw_g = twists[g]
                if tuple([mul[tw_g[q]][f] for q, f in zip(images_s, twists[s])]) != twists[gs]:
                    yield g, s


def _check_latin(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if frozenset(row) != full:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*table)):
        if frozenset(column) != full:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")


def _find_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    raise NotAGroup("no two-sided identity element")


def _check_inverses(table: Sequence[Sequence[int]], identity: int) -> None:
    for a, row in enumerate(table):
        if table[row.index(identity)][a] != identity:  # a Latin row holds e once
            raise NotAGroup(f"element {a} has 0 two-sided inverses")


def make_group(
    table: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Validate a Cayley table and return the group it defines.

    Checks that the table is a Latin square, has a two-sided identity and
    unique inverses, and is associative.  Associativity uses Light's test
    (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961): it
    checks (a*b)*c = a*(b*c) for every a, c and every b in a set S that
    generates the table by left-bracketed products, O(n^2 |S|) instead of
    O(n^3), by :func:`_law_failures` on the rows (row a sends c to a*c),
    naming the least failing b, a, then c.  Unlike the proof there, this is
    exact in any table with a two-sided identity e, associative or not: the
    set B of b that associate with every a and c contains e, and is closed
    under the product, since for b1, b2 in B, (a*(b1*b2))*c = ((a*b1)*b2)*c
    = (a*b1)*(b2*c) = a*(b1*(b2*c)) = a*((b1*b2)*c).  B contains S, hence
    every left-bracketed product of S, which is the whole table.  Tables
    larger than ``MAX_TABLE_ORDER`` are rejected.

    Raises:
        NotAGroup: some group axiom fails.
        SizeLimit: the table is larger than ``MAX_TABLE_ORDER``.
    """
    try:
        rows = tuple(map(tuple, table))
    except TypeError:  # True or [1] is no table
        raise NotAGroup("table is not a sequence of rows") from None
    n = len(rows)
    if n == 0:
        raise NotAGroup("empty table")
    if n > MAX_TABLE_ORDER:
        raise SizeLimit(f"order {n} exceeds the cap of {MAX_TABLE_ORDER}")
    entries = list(itertools.chain.from_iterable(rows))
    if not (set(map(type, entries)) == {int} and 0 <= min(entries) and max(entries) < n):
        for x in entries:  # True and 0.0 equal 1 and 0, but are not entries
            if type(x) is not int:
                raise NotAGroup(f"table entry {x!r} is not an integer")
            if not 0 <= x < n:
                raise NotAGroup(f"table entry {x} out of range 0..{n - 1}")
    _check_latin(rows)
    identity = _find_identity(rows)
    _check_inverses(rows, identity)
    failure = next(_law_failures(rows, _right_generators(rows, identity), rows, rows), None)
    if failure is not None:
        a, b = failure
        c = next(c for c in range(n) if rows[rows[a][b]][c] != rows[a][rows[b][c]])
        raise NotAGroup(f"associativity fails at ({a},{b},{c}): ({a}*{b})*{c} != {a}*({b}*{c})")
    try:
        name_tuple = tuple(map(str, range(n)) if names is None else names)
    except TypeError:  # 5 is no list of names
        raise NotAGroup("names are not a sequence of strings") from None
    if len(name_tuple) != n:
        raise NotAGroup(f"{len(name_tuple)} names for {n} elements")
    return FiniteGroup(rows, identity, name_tuple)


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group Z_n with elements 0..n-1, named "0".."n-1", under
    addition mod n.

    Raises:
        SizeLimit: n exceeds ``MAX_CYCLIC_ORDER`` (checked before the n^2
            table is built).
    """
    if type(n) is not int:  # True and 2.0 equal 1 and 2, but are no group size
        raise NotAGroup(f"group size {n!r} is not an integer")
    if n < 1:
        raise NotAGroup("order must be positive")
    if n > MAX_CYCLIC_ORDER:
        raise SizeLimit(f"cyclic group cap is n <= {MAX_CYCLIC_ORDER}")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    names = tuple(str(i) for i in range(n))
    return FiniteGroup(table, 0, names, doc_kind=("cyclic", n))


def _cycle_notation(perm: tuple[int, ...]) -> str:
    """Cycle notation on points 1..n; the identity is written ``1``."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + "".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) if out else "1"


def symmetric_group(n: int) -> FiniteGroup:
    """The symmetric group S_n with cycle-notation labels.

    Elements are ordered by number of moved points, then by label, which puts
    the identity first and, for n=3, yields 1,(12),(13),(23),(123),(132).
    Products compose right-to-left: (a*b)(x) = a(b(x)).

    Raises:
        SizeLimit: if n exceeds the desk-scale cap of 6.
    """
    if type(n) is not int:
        raise NotAGroup(f"group size {n!r} is not an integer")
    if n < 1:
        raise NotAGroup("n must be positive")
    if n > MAX_SYMMETRIC_N:
        raise SizeLimit(f"symmetric group cap is n <= {MAX_SYMMETRIC_N}")
    perms = list(itertools.permutations(range(n)))
    labeled = [(sum(1 for i, p in enumerate(perm) if p != i), _cycle_notation(perm), perm) for perm in perms]
    labeled.sort(key=lambda t: (t[0], t[1]))
    ordered = [t[2] for t in labeled]
    names = tuple(t[1] for t in labeled)
    index = {perm: i for i, perm in enumerate(ordered)}
    # a∘b: x -> a[b[x]] is itemgetter(*b)(a); on one point that returns a scalar, and S1 is {e}
    getters = [itemgetter(*b) for b in ordered] if n > 1 else [lambda a: a]
    table = tuple(tuple(map(index.__getitem__, [get(a) for get in getters])) for a in ordered)
    identity = index[tuple(range(n))]
    return FiniteGroup(table, identity, names, doc_kind=("symmetric", n))


class Subgroup(Frozen):
    """A verified subgroup, stored as sorted element indices of the parent."""

    _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        G = parent
        try:
            members = tuple(members)
        except TypeError:  # True is no member set
            raise NotASubgroup("members are not a collection of element indices") from None
        for a in members:
            if type(a) is not int or not 0 <= a < G.order:
                raise NotASubgroup(f"member {a!r} is not an element index 0..{G.order - 1}")
        members = tuple(sorted(set(members)))
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

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, element: int) -> bool:
        return element in self._member_set  # type: ignore[attr-defined]

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group; element k is ``members[k]``."""
        pos = {m: i for i, m in enumerate(self.members)}
        table = tuple(
            tuple(pos[self.parent.mul(a, b)] for b in self.members) for a in self.members
        )
        names = tuple(self.parent.name(m) for m in self.members)
        return FiniteGroup(table, pos[self.parent.identity], names)


def subgroup_closure(G: FiniteGroup, generators: Iterable[ElementRef]) -> Subgroup:
    """Smallest subgroup of G containing the given generators."""
    try:
        refs = list(generators)
    except TypeError:  # 1.5 is no collection of generators
        raise MalformedInput("generators are not a collection of elements") from None
    frontier = [G.resolve(g) for g in refs]
    members = {G.identity}
    while frontier:
        x = frontier.pop()
        if x in members:
            continue
        members.add(x)
        frontier.append(G.inv(x))
        for y in list(members):
            frontier.append(G.mul(x, y))
            frontier.append(G.mul(y, x))
    return Subgroup(G, tuple(sorted(members)))


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, as closures of generating sets of size <= 3.

    Three generators suffice for any subgroup of a group of order <= 12,
    which is all this sweep is used for; larger groups are rejected.
    """
    if G.order > 12:
        raise SizeLimit("subgroup sweep is capped at order 12")
    seen: dict[tuple[int, ...], Subgroup] = {}
    for size in range(4):
        for combo in itertools.combinations(range(G.order), size):
            H = subgroup_closure(G, combo)
            seen.setdefault(H.members, H)
    return sorted(seen.values(), key=lambda H: (H.order, H.members))


def _cosets(G: FiniteGroup, members: Sequence[int]) -> tuple[list[int], list[int]]:
    """(reps, coset) for the subgroup H with these members: ``coset[g]`` is
    the index of gH, H is coset 0 with representative e, and the other
    cosets are numbered, and represented, by their least elements, ascending."""
    table = G.table
    coset = [-1] * G.order
    for h in members:
        coset[h] = 0
    reps = [G.identity]
    for g in G.elements():
        if coset[g] < 0:
            i, row = len(reps), table[g]
            reps.append(g)
            for h in members:
                coset[row[h]] = i
    return reps, coset


class CosetFactorization(Frozen):
    """The maps j and h defined by g*g_i = j(g,g_i)*h(g,g_i).

    ``reps`` is the left transversal of ``subgroup`` that :func:`_cosets`
    numbers, ``reps[0]`` the identity.  ``j_table[g][i]`` is the position
    in ``reps`` of j(g, reps[i]); ``h_table[g][i]`` is the element index of
    h(g, reps[i]), a member of H.
    """

    _fields = ("subgroup", "reps", "j_table", "h_table")

    def __init__(
        self,
        subgroup: Subgroup,
        reps: tuple[int, ...],
        j_table: tuple[tuple[int, ...], ...],
        h_table: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "j_table", j_table)
        object.__setattr__(self, "h_table", h_table)

    @property
    def group(self) -> FiniteGroup:
        return self.subgroup.parent

    def rep_position(self, rep: int) -> int:
        try:
            return self.reps.index(rep)
        except ValueError:
            raise UnknownElement(
                f"{self.group.name(rep)} is not a transversal representative"
            ) from None

    def j(self, g: int, g_i: int) -> int:
        """The transversal element j(g, g_i)."""
        return self.reps[self.j_table[g][self.rep_position(g_i)]]

    def h(self, g: int, g_i: int) -> int:
        """The subgroup element h(g, g_i)."""
        return self.h_table[g][self.rep_position(g_i)]

    def rows(self) -> list[tuple[int, int, int, int]]:
        """All (g, g_i, j, h) rows, g-major then transversal order."""
        return [
            (g, g_i, self.reps[self.j_table[g][i]], self.h_table[g][i])
            for g in self.group.elements() for i, g_i in enumerate(self.reps)
        ]


def coset_factorize(G: FiniteGroup, H: Subgroup) -> CosetFactorization:
    """Compute j and h for every (g, g_i), g_i in the transversal that
    :func:`_cosets` numbers, j from its coset numbering and h as
    g_j^-1*g*g_i, and verify the factorization laws.

    Verified before returning: h lies in H, the defining equality
    g*g_i = j*h, that g_i -> j(g,g_i) permutes the transversal for each g,
    and the cocycle identities j(gt,g_i)=j(g,j(t,g_i)) and
    h(gt,g_i)=h(g,j(t,g_i))*h(t,g_i) for all g, t: the law of a global
    action beta_g, sending i to j(g,g_i) with twist h(g,g_i), checked by
    :func:`_law_failures` for t in ``G.generators``, naming the least
    failing t, then g, j before h.  beta_e = id holds by construction: e is
    a two-sided identity and ``_cosets`` puts each g_i in coset i, so
    j(e,g_i) = g_i, and h(e,g_i) = g_i^-1*g_i = e.

    Raises:
        NotASubgroup: H is a subgroup of another group.
        InternalInconsistency: if any of those laws fails (unreachable for a
            group table).
    """
    if H.parent is not G and H.parent != G:
        raise NotASubgroup("subgroup belongs to a different group")
    reps, coset = _cosets(G, H.members)
    mul, inv = G.table, G.inverses
    positions = list(range(len(reps)))
    j_rows, h_rows = [], []
    for g in G.elements():
        products = [mul[g][g_i] for g_i in reps]
        j_row = tuple([coset[p] for p in products])
        h_row = tuple([mul[inv[reps[j]]][p] for j, p in zip(j_row, products)])
        for j, p, h_elem in zip(j_row, products, h_row):
            if h_elem not in H:
                raise InternalInconsistency("factor h landed outside the subgroup")
            if mul[reps[j]][h_elem] != p:
                raise InternalInconsistency("defining equality g*g_i = j*h fails")
        if sorted(j_row) != positions:
            raise InternalInconsistency(f"g_i -> j({G.name(g)},g_i) is not a permutation")
        j_rows.append(j_row)
        h_rows.append(h_row)
    failure = next(_law_failures(mul, G.generators, j_rows, j_rows, h_rows, mul), None)
    if failure is not None:
        g, s = failure
        which = "j" if tuple(map(j_rows[g].__getitem__, j_rows[s])) != j_rows[mul[g][s]] else "h"
        raise InternalInconsistency(f"cocycle identity for {which} fails")
    return CosetFactorization(H, tuple(reps), tuple(j_rows), tuple(h_rows))


class RowCheck(Frozen):
    _fields = ("g", "g_i", "claimed_j", "claimed_h", "computed_j", "computed_h")

    def __init__(
        self, g: int, g_i: int, claimed_j: int, claimed_h: int, computed_j: int, computed_h: int
    ):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_i", g_i)
        object.__setattr__(self, "claimed_j", claimed_j)
        object.__setattr__(self, "claimed_h", claimed_h)
        object.__setattr__(self, "computed_j", computed_j)
        object.__setattr__(self, "computed_h", computed_h)

    @property
    def matches(self) -> bool:
        return self.claimed_j == self.computed_j and self.claimed_h == self.computed_h


class DiscrepancyReport(Value):
    """Result of recomputing a claimed j/h table row by row."""

    _fields = ("factorization", "checked", "missing")

    def __init__(
        self,
        factorization: CosetFactorization,
        checked: list[RowCheck],
        missing: list[tuple[int, int, int, int]],  # (g, g_i, computed_j, computed_h)
    ):
        self.factorization = factorization
        self.checked = checked
        self.missing = missing

    @property
    def match_count(self) -> int:
        return sum(1 for row in self.checked if row.matches)

    @property
    def mismatch_count(self) -> int:
        return len(self.checked) - self.match_count

    def render_text(self) -> str:
        G = self.factorization.group
        lines = []
        for row in self.checked:
            head = f"(({G.name(row.g)},{G.name(row.g_i)}))  j={G.name(row.claimed_j)}  h={G.name(row.claimed_h)}"
            lines.append(f"MATCH     {head}" if row.matches else (
                f"MISMATCH  {head}  corrected: j={G.name(row.computed_j)} h={G.name(row.computed_h)}"
            ))
        for g, g_i, j, h in self.missing:
            lines.append(
                f"MISSING   (({G.name(g)},{G.name(g_i)}))  derived: j={G.name(j)} h={G.name(h)}"
            )
        lines.append(
            f"summary: {self.match_count} match, {self.mismatch_count} mismatch, "
            f"{len(self.missing)} missing"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        G = self.factorization.group
        return {
            "rows": [
                {
                    "g": G.name(r.g),
                    "g_i": G.name(r.g_i),
                    "claimed": {"j": G.name(r.claimed_j), "h": G.name(r.claimed_h)},
                    "computed": {"j": G.name(r.computed_j), "h": G.name(r.computed_h)},
                    "status": "match" if r.matches else "mismatch",
                }
                for r in self.checked
            ],
            "missing": [
                {"g": G.name(g), "g_i": G.name(g_i), "computed": {"j": G.name(j), "h": G.name(h)}}
                for g, g_i, j, h in self.missing
            ],
            "summary": {
                "match": self.match_count,
                "mismatch": self.mismatch_count,
                "missing": len(self.missing),
            },
        }


ClaimedRow = tuple[tuple[ElementRef, ElementRef], ElementRef, ElementRef]


def cross_validate_table(
    cf: CosetFactorization,
    claimed_rows: Iterable[ClaimedRow],
) -> DiscrepancyReport:
    """Recompute each claimed ((g,g_i), j, h) row and report the differences.

    Every claimed row is labeled MATCH or MISMATCH (with the corrected j and
    h); pairs of G x T that appear in no claimed row are listed as missing,
    with their derived values.

    Raises:
        MalformedInput: ``claimed_rows`` is not a collection of such rows.
        UnknownElement: a row references an element outside G, or a g_i that
            is not a transversal representative.
    """
    G = cf.group
    try:
        rows = [(g, g_i, j, h) for (g, g_i), j, h in claimed_rows]
    except (TypeError, ValueError):  # 5, "x" or [5] is no list of rows
        raise MalformedInput("claimed rows are not ((g, g_i), j, h) triples") from None
    checked: list[RowCheck] = []
    claimed_pairs = set()
    for g_ref, gi_ref, j_ref, h_ref in rows:
        g, g_i = G.resolve(g_ref), G.resolve(gi_ref)
        j, h = cf.j(g, g_i), cf.h(g, g_i)  # UnknownElement for a g_i that is no representative
        checked.append(RowCheck(g, g_i, G.resolve(j_ref), G.resolve(h_ref), j, h))
        claimed_pairs.add((g, g_i))
    missing = [row for row in cf.rows() if row[:2] not in claimed_pairs]
    return DiscrepancyReport(cf, checked, missing)
