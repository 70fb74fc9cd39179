import pytest

from partial_actions.block_algebras import WreathMap
from partial_actions.errors import MalformedInput
from partial_actions.groups import Subgroup, cyclic_group, subgroup_closure, symmetric_group


def check_item(report, key):
    """The one item of report with the given key."""
    (item,) = [item for item in report.items if item.key == key]
    return item


# Helpers that the package no longer exports, kept for the tests that use them.


def whole_group(G):
    return Subgroup(G, tuple(range(G.order)))


def trivial_subgroup(G):
    return Subgroup(G, (G.identity,))


def ideals_isomorphic(a, b) -> bool:
    """Whether two central-idempotent ideals are isomorphic: their supports
    carry the same multiset of block classes."""
    def classes(ideal):
        return sorted(ideal.algebra.blocks[p].iso_class for p in ideal.support)
    return classes(a) == classes(b)


def wreath_inverse(w: WreathMap) -> WreathMap:
    """The inverse wreath map: position q goes back to p under the inverse
    of the twist at p."""
    pm = {q: p for p, q in w.position_map.items()}
    tw = {
        q: w.source.algebra.blocks[p].aut_group.inv(w.twists[p])
        for p, q in w.position_map.items()
    }
    return WreathMap(w.target, w.source, pm, tw)


def make_ideal_iso(a, b, theta) -> WreathMap:
    """The coefficient-transport isomorphism along a support bijection theta:
    the payload at position p moves untwisted to theta(p)."""
    theta = dict(theta)
    if set(theta) != set(a.support) or set(theta.values()) != set(b.support):
        raise MalformedInput("theta is not a bijection between the supports")
    twists = {p: a.algebra.blocks[p].aut_group.identity for p in a.support}
    return WreathMap(a, b, theta, twists)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3_swap_subgroup(s3):
    return subgroup_closure(s3, ["(12)"])
