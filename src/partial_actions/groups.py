"""Finite groups given by multiplication tables, subgroups, left transversals,
and the coset-factorization maps j and h.

Elements are integers 0..order-1; ``table[a][b]`` is the product a*b.  For
permutation groups the product follows right-to-left function composition:
``a*b`` means "apply b, then a".
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from ._values import Frozen, Value
from .errors import (
    InternalInconsistency,
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
    Equality and hash leave out ``inverses`` and ``doc_kind``.
    """

    _fields = ("table", "identity", "names")  # compared; the repr is its own

    def __init__(
        self,
        table: tuple[tuple[int, ...], ...],
        identity: int,
        names: tuple[str, ...],
        inverses: tuple[int, ...],
        doc_kind: Optional[tuple[str, int]] = None,
    ):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "inverses", inverses)
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
        """A generating set S, |S| <= log2 |G|: every element is a
        left-bracketed product ((s1*s2)*...)*sk of members of S (the identity
        is the empty product).  See :func:`_right_generators`."""
        return _right_generators(self.table, self.identity)

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, names={list(self.names)})"


def _right_generators(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    """Greedy generating set of a table with a two-sided identity.

    Scans elements in index order, skips the identity, and adds an element
    whenever it is not yet reached, where an element is reached when it is a
    left-bracketed product ((s1*s2)*...)*sk of the chosen set.  Every element
    ends up reached.  The table need not be associative (Light's test in
    :func:`make_group` runs on it before associativity is known).  In a group
    the reached set is the subgroup the chosen set generates, and each new
    element lies outside it, so each addition at least doubles it and the
    result has at most log2 |G| members.
    """
    gens: list[int] = []
    reached = {identity}
    for s in range(len(table)):
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
    return tuple(gens)


def _check_latin(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if frozenset(row) != full:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if frozenset(table[i][j] for i in range(n)) != full:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")


def _find_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    raise NotAGroup("no two-sided identity element")


def _compute_inverses(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    n = len(table)
    inverses = []
    for a in range(n):
        candidates = [b for b in range(n) if table[a][b] == identity and table[b][a] == identity]
        if len(candidates) != 1:
            raise NotAGroup(f"element {a} has {len(candidates)} two-sided inverses")
        inverses.append(candidates[0])
    return tuple(inverses)


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
    O(n^3).  This is exact in any table with a two-sided identity e, so it
    stays sound on a non-associative input: the set B of b that associate
    with every a and c contains e, and is closed under the product, since
    for b1, b2 in B, (a*(b1*b2))*c = ((a*b1)*b2)*c = (a*b1)*(b2*c)
    = a*(b1*(b2*c)) = a*((b1*b2)*c).  B contains S, hence every
    left-bracketed product of S, which is the whole table.  Tables larger
    than ``MAX_TABLE_ORDER`` are rejected.

    Raises:
        NotAGroup: some group axiom fails.
        SizeLimit: the table is larger than ``MAX_TABLE_ORDER``.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    if n > MAX_TABLE_ORDER:
        raise SizeLimit(f"order {n} exceeds the cap of {MAX_TABLE_ORDER}")
    rows = tuple(map(tuple, table))
    entries = list(itertools.chain.from_iterable(rows))
    if not (set(map(type, entries)) == {int} and 0 <= min(entries) and max(entries) < n):
        for x in entries:  # True and 0.0 equal 1 and 0, but are not entries
            if type(x) is not int:
                raise NotAGroup(f"table entry {x!r} is not an integer")
            if not 0 <= x < n:
                raise NotAGroup(f"table entry {x} out of range 0..{n - 1}")
    _check_latin(rows)
    identity = _find_identity(rows)
    inverses = _compute_inverses(rows, identity)
    for b in _right_generators(rows, identity):
        for a in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAGroup(
                        f"associativity fails at ({a},{b},{c}): "
                        f"({a}*{b})*{c} != {a}*({b}*{c})"
                    )
    if names is None:
        name_tuple = tuple(str(i) for i in range(n))
    else:
        if len(names) != n:
            raise NotAGroup(f"{len(names)} names for {n} elements")
        name_tuple = tuple(names)
    return FiniteGroup(rows, identity, name_tuple, inverses)


def cyclic_group(n: int, names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """The cyclic group Z_n with elements 0..n-1 under addition mod n.

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
    name_tuple = tuple(names) if names is not None else tuple(str(i) for i in range(n))
    if len(name_tuple) != n:
        raise NotAGroup(f"{len(name_tuple)} names for {n} elements")
    inverses = tuple((-a) % n for a in range(n))
    return FiniteGroup(table, 0, name_tuple, inverses, doc_kind=("cyclic", n))


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
    table = tuple(
        tuple(index[tuple(map(a.__getitem__, b))] for b in ordered)  # a∘b: x -> a[b[x]]
        for a in ordered
    )
    identity = index[tuple(range(n))]
    inverses = []
    for perm in ordered:
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        inverses.append(index[tuple(inv)])
    return FiniteGroup(table, identity, names, tuple(inverses), doc_kind=("symmetric", n))


class Subgroup(Frozen):
    """A verified subgroup, stored as sorted element indices of the parent."""

    _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        G = parent
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
        inverses = tuple(pos[self.parent.inv(m)] for m in self.members)
        return FiniteGroup(table, pos[self.parent.identity], names, inverses)


def subgroup_closure(G: FiniteGroup, generators: Iterable[ElementRef]) -> Subgroup:
    """Smallest subgroup of G containing the given generators."""
    gens = [G.resolve(g) for g in generators]
    members = {G.identity}
    frontier = list(gens)
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


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


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


class LeftTransversal(Frozen):
    """One representative per left coset gH, ``reps[0]`` the identity.
    :func:`left_transversal` builds the one that :func:`_cosets` numbers."""

    _fields = ("subgroup", "reps")

    def __init__(self, subgroup: Subgroup, reps: tuple[int, ...]):
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "reps", reps)
        G = self.group
        H = self.subgroup
        if not self.reps or self.reps[0] != G.identity:
            raise InternalInconsistency("transversal must start with the identity")
        covered: dict[int, int] = {}
        for pos, rep in enumerate(self.reps):
            for h in H.members:
                x = G.mul(rep, h)
                if x in covered:
                    raise InternalInconsistency(
                        f"cosets of {G.name(self.reps[covered[x]])} and {G.name(rep)} overlap"
                    )
                covered[x] = pos
        if len(covered) != G.order:
            raise InternalInconsistency("cosets do not cover the group")
        object.__setattr__(self, "_coset_position", covered)

    @property
    def group(self) -> FiniteGroup:
        return self.subgroup.parent

    def __len__(self) -> int:
        return len(self.reps)

    def coset_position(self, element: int) -> int:
        """Index i with element ∈ reps[i]·H."""
        return self._coset_position[element]  # type: ignore[attr-defined]

    def rep_position(self, rep: int) -> int:
        try:
            return self.reps.index(rep)
        except ValueError:
            raise UnknownElement(
                f"{self.group.name(rep)} is not a transversal representative"
            ) from None


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


def left_transversal(G: FiniteGroup, H: Subgroup) -> LeftTransversal:
    """Deterministic left transversal of H in G, as :func:`_cosets` numbers it."""
    if H.parent is not G and H.parent != G:
        raise NotASubgroup("subgroup belongs to a different group")
    return LeftTransversal(H, tuple(_cosets(G, H.members)[0]))


class CosetFactorization(Frozen):
    """The maps j and h defined by g*g_i = j(g,g_i)*h(g,g_i).

    ``j_table[g][i]`` is the transversal *position* of j(g, reps[i]);
    ``h_table[g][i]`` is the element index of h(g, reps[i]), a member of H.
    """

    _fields = ("transversal", "j_table", "h_table")

    def __init__(
        self,
        transversal: LeftTransversal,
        j_table: tuple[tuple[int, ...], ...],
        h_table: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "transversal", transversal)
        object.__setattr__(self, "j_table", j_table)
        object.__setattr__(self, "h_table", h_table)

    @property
    def group(self) -> FiniteGroup:
        return self.transversal.group

    @property
    def subgroup(self) -> Subgroup:
        return self.transversal.subgroup

    def j(self, g: int, g_i: int) -> int:
        """The transversal element j(g, g_i)."""
        i = self.transversal.rep_position(g_i)
        return self.transversal.reps[self.j_table[g][i]]

    def h(self, g: int, g_i: int) -> int:
        """The subgroup element h(g, g_i)."""
        return self.h_table[g][self.transversal.rep_position(g_i)]

    def rows(self) -> list[tuple[int, int, int, int]]:
        """All (g, g_i, j, h) rows, g-major then transversal order."""
        out = []
        for g in self.group.elements():
            for i, g_i in enumerate(self.transversal.reps):
                out.append((g, g_i, self.transversal.reps[self.j_table[g][i]], self.h_table[g][i]))
        return out


def coset_factorize(G: FiniteGroup, H: Subgroup) -> CosetFactorization:
    """Compute j and h for every (g, g_i), g_i in ``left_transversal(G, H)``,
    and verify the factorization laws.

    Verified before returning: the defining equality g*g_i = j*h, the
    identity rows j(e,g_i)=g_i and h(e,g_i)=e, that g_i -> j(g,g_i) permutes
    the transversal for each g, and the cocycle identities
    j(gt,g_i)=j(g,j(t,g_i)) and h(gt,g_i)=h(g,j(t,g_i))*h(t,g_i) for all g, t.

    The cocycle identities are checked for t in ``G.generators`` only, which
    is exact.  Every t is a product t's with s a generator and t' shorter
    (or t = e, where the identity rows give both identities).  By induction
    on the length of t, with the identities for (gt', s), (g, t') and
    (t', s):
    j(gt,g_i) = j(gt', j(s,g_i)) = j(g, j(t', j(s,g_i))) = j(g, j(t,g_i)), and
    h(gt,g_i) = h(gt', j(s,g_i))*h(s,g_i)
    = h(g, j(t', j(s,g_i)))*h(t', j(s,g_i))*h(s,g_i) = h(g, j(t,g_i))*h(t,g_i),
    the last step by associativity in G.

    Raises:
        InternalInconsistency: if any of those laws fails (unreachable for a
            valid transversal).
    """
    transversal = left_transversal(G, H)
    reps = transversal.reps
    t = len(reps)
    j_rows = []
    h_rows = []
    for g in G.elements():
        j_row = []
        h_row = []
        for g_i in reps:
            p = G.mul(g, g_i)
            pos = transversal.coset_position(p)
            h_elem = G.mul(G.inv(reps[pos]), p)
            if h_elem not in H:
                raise InternalInconsistency("factor h landed outside the subgroup")
            if G.mul(reps[pos], h_elem) != p:
                raise InternalInconsistency("defining equality g*g_i = j*h fails")
            j_row.append(pos)
            h_row.append(h_elem)
        if sorted(j_row) != list(range(t)):
            raise InternalInconsistency(f"g_i -> j({G.name(g)},g_i) is not a permutation")
        j_rows.append(tuple(j_row))
        h_rows.append(tuple(h_row))
    cf = CosetFactorization(transversal, tuple(j_rows), tuple(h_rows))
    e = G.identity
    for i, g_i in enumerate(reps):
        if cf.j_table[e][i] != i or cf.h_table[e][i] != e:
            raise InternalInconsistency("identity rows of j/h are wrong")
    mul = G.table
    for s in G.generators:
        j_s, h_s = cf.j_table[s], cf.h_table[s]
        for g in G.elements():
            j_g, h_g = cf.j_table[g], cf.h_table[g]
            gs = mul[g][s]
            if cf.j_table[gs] != tuple([j_g[mid] for mid in j_s]):
                raise InternalInconsistency("cocycle identity for j fails")
            if cf.h_table[gs] != tuple([mul[h_g[mid]][h] for mid, h in zip(j_s, h_s)]):
                raise InternalInconsistency("cocycle identity for h fails")
    return cf


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

    def mismatches(self) -> list[RowCheck]:
        return [row for row in self.checked if not row.matches]

    def render_text(self) -> str:
        G = self.factorization.group
        lines = []
        for row in self.checked:
            head = f"(({G.name(row.g)},{G.name(row.g_i)}))  j={G.name(row.claimed_j)}  h={G.name(row.claimed_h)}"
            if row.matches:
                lines.append(f"MATCH     {head}")
            else:
                lines.append(
                    f"MISMATCH  {head}  corrected: j={G.name(row.computed_j)} h={G.name(row.computed_h)}"
                )
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
        UnknownElement: a row references an element outside G, or a g_i that
            is not a transversal representative.
    """
    G = cf.group
    transversal = cf.transversal
    checked: list[RowCheck] = []
    claimed_pairs = set()
    for (g_ref, gi_ref), j_ref, h_ref in claimed_rows:
        g = G.resolve(g_ref)
        g_i = G.resolve(gi_ref)
        transversal.rep_position(g_i)  # raises UnknownElement for non-reps
        claimed_j = G.resolve(j_ref)
        claimed_h = G.resolve(h_ref)
        checked.append(
            RowCheck(g, g_i, claimed_j, claimed_h, cf.j(g, g_i), cf.h(g, g_i))
        )
        claimed_pairs.add((g, g_i))
    missing = []
    for g in G.elements():
        for g_i in transversal.reps:
            if (g, g_i) not in claimed_pairs:
                missing.append((g, g_i, cf.j(g, g_i), cf.h(g, g_i)))
    return DiscrepancyReport(cf, checked, missing)
