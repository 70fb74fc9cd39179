"""Seeded inputs and output checks for the three benchmark workloads.

Every input is generated here from the seed alone, with no import of the
package under test, so that a change to the package cannot change what the
benchmark feeds it.  Group elements are built as permutations or tuples and
named exactly as the package names them (cycle notation for ``S<n>``, plain
labels for Cayley tables).

Each ``build_*`` function writes its input files into a work directory and
returns a :class:`Workload`: the CLI invocations, the work count behind
``items_per_s``, the input that ``setup_s`` parses, the recorded input
properties, and a ``check`` that turns the invocations' outputs into named
pass/fail results.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PINNED_ENUMERATE = Path(__file__).with_name("enumerate_z6x4.json")

ENVELOPE_CHECKS = ("ideal", "covers", "intersection", "equivariance")


@dataclass
class Output:
    """What one CLI invocation left behind."""

    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Workload:
    name: str
    invocations: list[list[str]]
    items: int
    setup: tuple[str, str]  # ("group" | "workbench", path of the parsed input)
    properties: dict
    check: Callable[[list[Output]], list[tuple[str, bool]]]
    # traced functions that must record calls on this workload
    expect_calls: tuple[str, ...] = ()


# ---------------------------------------------------------------- groups


def _cycle_notation(perm: tuple[int, ...]) -> str:
    """Cycle notation on points 1..n, the identity written ``1``."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
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


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a*b: apply b, then a (the package's convention)."""
    return tuple(a[b[x]] for x in range(len(b)))


def _is_even(perm: tuple[int, ...]) -> bool:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return inversions % 2 == 0


class Group:
    """A finite group as an element list with an index table."""

    def __init__(self, elements: list, mul: Callable, names: list[str]):
        self.elements = elements
        index = {x: i for i, x in enumerate(elements)}
        self.table = [[index[mul(a, b)] for b in elements] for a in elements]
        self.names = names
        self.order = len(elements)
        self.identity = next(
            e for e in range(self.order) if all(self.table[e][a] == a for a in range(self.order))
        )
        self.inverse = [self.table[a].index(self.identity) for a in range(self.order)]

    def cayley_doc(self) -> dict:
        return {"kind": "cayley", "table": self.table, "names": self.names}


def symmetric(n: int) -> Group:
    perms = list(itertools.permutations(range(n)))
    return Group(perms, _compose, [_cycle_notation(p) for p in perms])


def shuffled(elements: list, mul: Callable, rng: random.Random, prefix: str) -> Group:
    """The group on ``elements`` with its elements in a seeded order and
    labels that follow that order, so they carry no structure."""
    elements = list(elements)
    rng.shuffle(elements)
    return Group(elements, mul, [f"{prefix}{i}" for i in range(len(elements))])


def cyclic_power(n: int, k: int) -> tuple[list, Callable]:
    """Elements and product of (Z_n)^k."""
    return (
        list(itertools.product(range(n), repeat=k)),
        lambda a, b: tuple((x + y) % n for x, y in zip(a, b)),
    )


def alternating5() -> tuple[list, Callable]:
    return [p for p in itertools.permutations(range(5)) if _is_even(p)], _compose


def s4_times_c2() -> tuple[list, Callable]:
    return (
        list(itertools.product(itertools.permutations(range(4)), range(2))),
        lambda a, b: (_compose(a[0], b[0]), (a[1] + b[1]) % 2),
    )


# ---------------------------------------------------------------- actions


def regular_restriction(G: Group, subset: list[int]) -> tuple[dict, dict]:
    """The left regular action of G restricted to ``subset``, as
    element -> domain (set of points) and element -> {x: g*x} on D_{g^-1}."""
    inside = set(subset)
    domains, maps = {}, {}
    for g in range(G.order):
        m = {x: G.table[g][x] for x in subset if G.table[g][x] in inside}
        if m:
            maps[g] = m
            domains[g] = set(m.values())
    return domains, maps


def set_action_doc(G: Group, group_ref: str, subset: list[int], domains: dict, maps: dict) -> dict:
    order = {x: i for i, x in enumerate(subset)}
    name = G.names
    return {
        "kind": "set",
        "group": group_ref,
        "carrier": [name[x] for x in subset],
        "domains": {
            name[g]: [name[x] for x in sorted(d, key=order.__getitem__)] for g, d in domains.items()
        },
        "maps": {
            name[g]: {name[x]: name[y] for x, y in sorted(m.items(), key=lambda kv: order[kv[0]])}
            for g, m in maps.items()
        },
    }


def twisted_lift_doc(
    G: Group, group_ref: str, algebra_ref: str, subset: list[int], domains: dict, maps: dict,
    rng: random.Random,
) -> dict:
    """The set action lifted to Q^n with Aut(Q) = Z2: point i of ``subset``
    becomes block i, and alpha_g carries the coboundary twist c(p) + c(q)
    from block p to block q, so the action is valid and its twists are not
    all trivial."""
    pos = {x: i for i, x in enumerate(subset)}
    c = [rng.randrange(2) for _ in subset]
    doc = {
        "kind": "algebra",
        "group": group_ref,
        "algebra": algebra_ref,
        "domains": {},
        "maps": {},
        "twists": {},
    }
    for g, m in maps.items():
        key = G.names[g]
        doc["domains"][key] = sorted(pos[x] for x in domains[g])
        pairs = sorted((pos[x], pos[y]) for x, y in m.items())
        doc["maps"][key] = {str(p): q for p, q in pairs}
        doc["twists"][key] = {str(p): str((c[p] + c[q]) % 2) for p, q in pairs}
    return doc


def corrupted_doc(G: Group, set_doc: dict, maps: dict, rng: random.Random) -> dict:
    """A copy of a restricted regular action with two images swapped in the
    map of one element g of order > 2 and, to keep maps inverse to each
    other, in the map of g^-1.  Axiom (iii) then fails at g*h for h sending
    another point onto one of the swapped ones."""
    choices = [
        g for g, m in sorted(maps.items()) if G.inverse[g] != g and len(m) >= 2
    ]
    g = rng.choice(choices)
    x1, x2 = rng.sample(sorted(maps[g]), 2)
    y1, y2 = maps[g][x1], maps[g][x2]
    name = G.names
    doc = json.loads(json.dumps(set_doc))
    fwd = doc["maps"][name[g]]
    fwd[name[x1]], fwd[name[x2]] = name[y2], name[y1]
    back = doc["maps"][name[G.inverse[g]]]
    back[name[y1]], back[name[y2]] = name[x2], name[x1]
    return doc


def envelope_restriction(env: dict, twisted: bool) -> tuple[dict, dict]:
    """Restrict an emitted envelope to its embedded image, in input
    coordinates: per element g, the domain D_g = image ∩ beta_g(image) and
    the map beta_g induces on D_{g^-1} (with its twists, for algebras)."""
    embed = env["embedding"]["position_map"] if twisted else env["embedding"]
    back = {q: int(p) if twisted else p for p, q in embed.items()}
    domains, maps = {}, {}
    for g, beta in env["action"].items():
        moves = beta["map"] if twisted else beta
        m = {}
        for p, q in embed.items():
            target = back.get(moves[str(q)])
            if target is not None:
                m[p] = (target, beta["twists"][str(q)]) if twisted else target
        if m:
            maps[g] = m
            domains[g] = sorted(str(v[0] if twisted else v) for v in m.values())
    return domains, maps


def input_restriction(action: dict, twisted: bool) -> tuple[dict, dict]:
    """The same (domains, maps) pair read from a generated action document."""
    domains = {g: sorted(map(str, d)) for g, d in action["domains"].items() if d}
    maps = {
        g: {p: (q, action["twists"][g][p]) if twisted else q for p, q in m.items()}
        for g, m in action["maps"].items() if m
    }
    return domains, maps


def _line_algebra(n: int) -> dict:
    return {"blocks": [{"class": "Q", "aut": "Z2"}] * n}


def _write(path: Path, doc: dict) -> int:
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _json(out: Output):
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        return None


def _clean_exit(out: Output, code: int) -> bool:
    return out.exit_code == code and "Traceback" not in out.stderr


# ---------------------------------------------------------------- enumerate-z6x4


def build_enumerate(seed: int, workdir: Path) -> Workload:
    """Z6 as a Cayley table with seeded labels, enumerated on 4 points."""
    rng = random.Random(f"enumerate-z6x4:{seed}")
    G = shuffled(*cyclic_power(6, 1), rng, "z")
    path = workdir / "z6.json"
    size = _write(path, G.cayley_doc())
    pinned = json.loads(PINNED_ENUMERATE.read_text(encoding="utf-8"))
    expected_hist = {int(k): v for k, v in pinned["envelope_size_histogram"].items()}

    def check(outputs: list[Output]) -> list[tuple[str, bool]]:
        (out,) = outputs
        doc = _json(out) or {}
        sizes = doc.get("envelope_sizes", [])
        return [
            ("enumerate exits 0", _clean_exit(out, 0)),
            ("count is pinned", doc.get("count") == pinned["count"]),
            ("one document per action", len(doc.get("actions", [])) == pinned["count"]),
            ("envelope-size histogram is pinned", dict(Counter(sizes)) == expected_hist),
        ]

    return Workload(
        name="enumerate-z6x4",
        invocations=[["enumerate", "--group", str(path), "--size", "4", "--envelopes",
                      "--format", "json"]],
        items=pinned["count"],
        setup=("group", str(path)),
        properties={"group_order": 6, "carrier_points": 4, "input_bytes": size},
        check=check,
        expect_calls=(
            "cli.main",
            "set_actions.enumerate_partial_actions",
            "documents.set_action_to_doc",
            "set_actions.globalize_set",
            "set_actions.GlobalSetAction",
        ),
    )


# ---------------------------------------------------------------- globalize-s5


def _order4_subgroups_with_odd(S4: Group) -> list[list[int]]:
    """Subgroups of S4 of order 4 that contain an odd permutation, so that
    the sign homomorphism on them is onto Z2."""
    found = set()
    for a in range(S4.order):
        for b in range(S4.order):
            members = {S4.identity}
            frontier = [a, b]
            while frontier:
                x = frontier.pop()
                if x not in members:
                    members.add(x)
                    frontier += [S4.table[x][y] for y in list(members)]
                    frontier += [S4.table[y][x] for y in list(members)]
            if len(members) == 4 and not all(_is_even(S4.elements[m]) for m in members):
                found.add(frozenset(members))
    return sorted(sorted(h) for h in found)


def build_globalize(seed: int, workdir: Path) -> Workload:
    """The regular S5 action on 60 seeded points, its Z2-twisted lift, and a
    sign-twisted extension by zero from a seeded order-4 subgroup of S4."""
    rng = random.Random(f"globalize-s5:{seed}")
    S5 = symmetric(5)
    subset = rng.sample(range(S5.order), 60)
    domains, maps = regular_restriction(S5, subset)
    S4 = symmetric(4)
    H = rng.choice(_order4_subgroups_with_odd(S4))
    sign = {h: "0" if _is_even(S4.elements[h]) else "1" for h in H}
    doc = {
        "version": "1",
        "groups": {
            "S5": {"kind": "symmetric", "n": 5},
            "S4": {"kind": "symmetric", "n": 4},
            "Z2": {"kind": "cyclic", "n": 2},
        },
        "algebras": {
            "Q60": _line_algebra(60),
            "B": {"blocks": [{"class": "B", "aut": "Z2"}]},
        },
        "actions": {
            "s5_set": set_action_doc(S5, "S5", subset, domains, maps),
            "s5_lift": twisted_lift_doc(S5, "S5", "Q60", subset, domains, maps, rng),
            "s4_sign": {
                "kind": "algebra",
                "group": "S4",
                "algebra": "B",
                "domains": {S4.names[h]: [0] for h in H},
                "maps": {S4.names[h]: {"0": 0} for h in H},
                "twists": {S4.names[h]: {"0": sign[h]} for h in H},
            },
        },
    }
    path = workdir / "globalize.json"
    size = _write(path, doc)
    actions = doc["actions"]
    index = S4.order // len(H)

    def check(outputs: list[Output]) -> list[tuple[str, bool]]:
        (out,) = outputs
        doc_out = _json(out) or {}
        results = [("globalize exits 0", _clean_exit(out, 0))]
        sizes = {"s5_set": 120, "s5_lift": 120, "s4_sign": index}
        for name, want in sizes.items():
            env = doc_out.get(name, {})
            checks = env.get("checks", {})
            results.append((f"{name} envelope has {want} points or blocks",
                            len(env.get("envelope_blocks", [])) == want))
            results.append((f"{name} passes all four checks",
                            tuple(checks) == ENVELOPE_CHECKS and all(checks.values())))
            twisted = name != "s5_set"
            same = envelope_restriction(env, twisted) == input_restriction(actions[name], twisted)
            results.append((f"{name} envelope restricts back to the input", same))
        return results

    return Workload(
        name="globalize-s5",
        invocations=[["globalize", str(path), "--format", "json"]],
        items=120 + 120 + index,
        setup=("workbench", str(path)),
        properties={
            "group_orders": {"S5": 120, "S4": 24},
            "carrier_points": 60,
            "blocks": {"s5_lift": 60, "s4_sign": 1},
            "subgroup_order": len(H),
            "actions": 3,
            "document_bytes": size,
        },
        check=check,
        expect_calls=(
            "cli.main",
            "documents.load_workbench",
            "set_actions.verify_partial_action",
            "algebra_actions.verify_algebra_partial_action",
            "set_actions.globalize_set",
            "set_actions.GlobalSetAction",
            "set_actions.verify_set_globalization",
            "algebra_actions.globalize_block_power",
            "algebra_actions.globalize_extension_by_zero",
            "algebra_actions.verify_enveloping",
            "block_algebras.wreath_compose",
            "block_algebras.WreathMap",
            "groups.coset_factorize",
        ),
    )


# ---------------------------------------------------------------- verify-mixed

VERIFY_GROUPS = (
    ("C8xC8", lambda: cyclic_power(8, 2)),
    ("A5", alternating5),
    ("S4xC2", s4_times_c2),
    ("C4xC4xC4", lambda: cyclic_power(4, 3)),
)
RESTRICTIONS_PER_GROUP = 3


def build_verify(seed: int, workdir: Path) -> Workload:
    """Four Cayley-table groups of order 48-64; for each, seeded half-size
    restrictions of the regular action, their Z2-twisted lifts and corrupted
    copies; then the built-in S3 example."""
    rng = random.Random(f"verify-mixed:{seed}")
    doc = {"version": "1", "groups": {"Z2": {"kind": "cyclic", "n": 2}}, "algebras": {},
           "actions": {}}
    expected: dict[str, bool] = {}
    orders, carriers = [], []
    for gname, make in VERIFY_GROUPS:
        G = shuffled(*make(), rng, "x")
        doc["groups"][gname] = G.cayley_doc()
        half = G.order // 2
        algebra_ref = f"Q{half}"
        doc["algebras"][algebra_ref] = _line_algebra(half)
        orders.append(G.order)
        for r in range(RESTRICTIONS_PER_GROUP):
            subset = rng.sample(range(G.order), half)
            domains, maps = regular_restriction(G, subset)
            set_doc = set_action_doc(G, gname, subset, domains, maps)
            base = f"{gname}_r{r}"
            doc["actions"][f"{base}_set"] = set_doc
            doc["actions"][f"{base}_lift"] = twisted_lift_doc(
                G, gname, algebra_ref, subset, domains, maps, rng
            )
            doc["actions"][f"{base}_bad"] = corrupted_doc(G, set_doc, maps, rng)
            expected.update({f"{base}_set": True, f"{base}_lift": True, f"{base}_bad": False})
            carriers.append(half)
    path = workdir / "verify.json"
    size = _write(path, doc)

    def check(outputs: list[Output]) -> list[tuple[str, bool]]:
        verify, example = outputs
        reports = _json(verify) or {}
        results = [
            ("verify exits 1", _clean_exit(verify, 1)),
            ("verify reports every action", set(reports) == set(expected)),
        ]
        wrong = [n for n, ok in expected.items() if reports.get(n, {}).get("ok") is not ok]
        results.append(("every ok flag matches the generator", not wrong))
        s3 = _json(example) or {}
        beta = s3.get("beta", [])
        results += [
            ("example-s3 exits 0", _clean_exit(example, 0)),
            ("example-s3 table: 15 match, 2 mismatch, 1 missing",
             s3.get("table", {}).get("summary") == {"match": 15, "mismatch": 2, "missing": 1}),
            ("example-s3: six beta formulas pass",
             len(beta) == 6 and all(row.get("pass") is True for row in beta)),
        ]
        return results

    return Workload(
        name="verify-mixed",
        invocations=[["verify", str(path), "--format", "json"], ["example-s3", "--format", "json"]],
        items=len(expected),
        setup=("workbench", str(path)),
        properties={
            "group_orders": dict(zip([g for g, _ in VERIFY_GROUPS], orders)),
            "carrier_points": carriers,
            "actions": len(expected),
            "expected_failing": sum(1 for ok in expected.values() if not ok),
            "document_bytes": size,
        },
        check=check,
        expect_calls=(
            "cli.main",
            "documents.load_workbench",
            "groups.make_group",
            "block_algebras.WreathMap",
            "set_actions.verify_partial_action",
            "algebra_actions.verify_algebra_partial_action",
        ),
    )


WORKLOADS = {
    "enumerate-z6x4": build_enumerate,
    "globalize-s5": build_globalize,
    "verify-mixed": build_verify,
}
