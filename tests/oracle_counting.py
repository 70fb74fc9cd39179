"""Closed-form counts of partial actions, kept as a test oracle.

A partial action splits into orbits, and an orbit on k labelled points is
k points injected into a transitive G-set G/H, up to the automorphisms of
G/H, which form N_G(H)/H and act freely.  So there are

    c_k = sum over conjugacy classes [H] of (|G:H|)_k |H| / |N_G(H)|

orbits on k given points, (m)_k the falling factorial, and the actions on n
points follow by the exponential formula over set partitions: the block of
the first point has k points, chosen in C(n-1, k-1) ways.  The envelope of
an action is the disjoint union of its orbits' G/H, so its size is the sum
of |G:H| over orbits; the counts below are kept per envelope size.

On the n-th power of a block B, an orbit with stabilizer H carries a
homomorphism H -> Aut(B) and a free twist at each of its other points, so
it weighs |Hom(H, Aut B)| |Aut B|^(k-1).

Subgroups, normalizers and homomorphisms are found by brute force over
subsets and maps, independently of the enumerators and of the library's
subgroup sweep.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, perm


def _subgroups(G) -> list[frozenset]:
    """Every subgroup of G: the subsets with the identity closed under the
    product (closure suffices in a finite group)."""
    out = []
    others = [g for g in G.elements() if g != G.identity]
    for r in range(len(others) + 1):
        for rest in itertools.combinations(others, r):
            S = frozenset((G.identity,) + rest)
            if all(G.mul(a, b) in S for a in S for b in S):
                out.append(S)
    return out


def _hom_count(G, H: frozenset, aut) -> int:
    members = sorted(H)
    count = 0
    for images in itertools.product(aut.elements(), repeat=len(members)):
        phi = dict(zip(members, images))
        count += all(phi[G.mul(a, b)] == aut.mul(phi[a], phi[b]) for a in H for b in H)
    return count


def _orbit_weights(G, k: int, aut=None) -> Counter:
    """Orbits on k given points per envelope size |G:H|, one term per
    conjugacy class [H], weighted by their twists when ``aut`` is given."""
    out: Counter = Counter()
    seen: set = set()
    for H in _subgroups(G):
        if H in seen:
            continue
        conjugate = {g: frozenset(G.mul(G.mul(g, h), G.inv(g)) for h in H) for g in G.elements()}
        seen.update(conjugate.values())
        normalizer = [g for g, K in conjugate.items() if K == H]
        m = G.order // len(H)
        weight = perm(m, k) * len(H) // len(normalizer)
        if aut is not None:
            weight *= _hom_count(G, H, aut) * aut.order ** (k - 1)
        if weight:
            out[m] += weight
    return out


def count_partial_actions(G, n: int, aut=None) -> Counter:
    """The number of partial actions of G on n points (on the n-th power of
    a block with automorphism group ``aut``, when given), per envelope size."""
    weights = [None] + [_orbit_weights(G, k, aut) for k in range(1, n + 1)]
    counts = [Counter({0: 1})]
    for size in range(1, n + 1):
        total: Counter = Counter()
        for k in range(1, size + 1):
            for m, w in weights[k].items():
                for rest, c in counts[size - k].items():
                    total[m + rest] += comb(size - 1, k - 1) * w * c
        counts.append(total)
    return counts[n]
