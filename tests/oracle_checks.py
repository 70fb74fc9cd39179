"""Exhaustive homomorphism checks kept as test oracles.

The package checks associativity, the set and wreath action laws and the
cocycle identities of a coset factorization with the middle or right factor
restricted to a generating set.  These are the exhaustive scans they replace:
every triple, or every pair (g, t).  Each returns the first failure it finds,
or None.
"""

from __future__ import annotations

from partial_actions.block_algebras import wreath_compose


def associativity_failure(table):
    """First (a, b, c) with (a*b)*c != a*(b*c), over all triples."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def set_action_law_failure(group, carrier, maps):
    """First (g, t, x) with alpha_g(alpha_t(x)) != alpha_gt(x), over all pairs;
    (e, e, x) when the identity moves x."""
    e = group.identity
    for x in carrier:
        if maps[e][x] != x:
            return (e, e, x)
    for g in group.elements():
        for t in group.elements():
            gt = group.mul(g, t)
            for x in carrier:
                if maps[g][maps[t][x]] != maps[gt][x]:
                    return (g, t, x)
    return None


def wreath_action_law_failure(group, action):
    """First (g, t) with beta_g∘beta_t != beta_gt, over all pairs; (e, e) when
    beta_e is not the identity."""
    e = group.identity
    if not action[e].is_identity():
        return (e, e)
    for g in group.elements():
        for t in group.elements():
            if wreath_compose(action[g], action[t]) != action[group.mul(g, t)]:
                return (g, t)
    return None


def factor_tables(G, transversal):
    """j and h tables of g*g_i = j*h, computed directly from the table, in the
    layout of ``CosetFactorization``: j as transversal positions, h as
    elements."""
    reps = transversal.reps
    j_table, h_table = [], []
    for g in G.elements():
        j_row, h_row = [], []
        for g_i in reps:
            p = G.mul(g, g_i)
            pos = transversal.coset_position(p)
            j_row.append(pos)
            h_row.append(G.mul(G.inv(reps[pos]), p))
        j_table.append(j_row)
        h_table.append(h_row)
    return j_table, h_table


def cocycle_failure(G, j_table, h_table):
    """First (g, t, i) where j(gt,g_i) = j(g,j(t,g_i)) or
    h(gt,g_i) = h(g,j(t,g_i))*h(t,g_i) fails, over all pairs."""
    for g in G.elements():
        for t in G.elements():
            gt = G.mul(g, t)
            for i in range(len(j_table[0])):
                mid = j_table[t][i]
                if j_table[gt][i] != j_table[g][mid]:
                    return (g, t, i)
                if h_table[gt][i] != G.mul(h_table[g][mid], h_table[t][i]):
                    return (g, t, i)
    return None
