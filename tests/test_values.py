"""The hand-written value classes against the ``dataclasses`` declarations
they replaced (``oracle_values.py``): for instances built from the same
arguments, ``==``, ``hash`` or unhashability, ``repr`` and the errors of
assignment must match.  A start-up guard checks that importing the package
loads neither ``dataclasses`` nor ``inspect``."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracle_values import ORACLES, to_oracle
from partial_actions import block_algebras, documents, groups, reporting
from partial_actions.algebra_actions import AlgebraPartialAction, globalize_block_power
from partial_actions.block_algebras import Block, BlockAlgebra, BlockIdeal, k_line_block
from partial_actions.cli import _action_verification
from partial_actions.documents import Workbench, load_workbench, parse_group
from partial_actions.groups import (
    all_subgroups,
    coset_factorize,
    cross_validate_table,
    cyclic_group,
    make_group,
    symmetric_group,
)
from partial_actions.reporting import VerificationReport
from partial_actions.set_actions import globalize_set, verify_set_globalization

DATA = Path(__file__).parent / "data"
MODULES = (groups, block_algebras, reporting, documents)
SRC = Path(__file__).parent.parent / "src"


def _instances() -> dict[str, list]:
    """Instances of every value class, by class name: groups from
    ``make_group`` and ``symmetric_group``, and algebras, ideals, wreath
    maps and reports from the golden documents."""
    relabelled = parse_group(json.loads((DATA / "group_s3_relabelled.json").read_text()), "$")
    groups = [
        make_group([[0, 1], [1, 0]]),
        make_group([[0, 1], [1, 0]], ["e", "s"]),
        cyclic_group(2),  # equal to the first: doc_kind is not compared
        cyclic_group(4),
        symmetric_group(3),
        make_group(symmetric_group(3).table, symmetric_group(3).names),
        relabelled,
        symmetric_group(4),
    ]
    found: dict[str, list] = {name: [] for name in ORACLES}
    found["FiniteGroup"] += groups
    for G in (symmetric_group(3), cyclic_group(4), relabelled):
        for H in all_subgroups(G):
            found["Subgroup"].append(H)
            cf = coset_factorize(G, H)
            found["CosetFactorization"].append(cf)
            claimed = [((g, gi), j, h) for g, gi, j, h in cf.rows()[:3]]
            claimed.append(((claimed[0][0]), claimed[0][2], G.inv(claimed[0][2])))
            report = cross_validate_table(cf, claimed)
            found["DiscrepancyReport"].append(report)
            found["RowCheck"] += report.checked
    for path in ("golden_globalize.json", "golden_relabelled.json"):
        wb = load_workbench(str(DATA / path))
        found["Workbench"].append(wb)
        found["FiniteGroup"] += wb.groups.values()
        for algebra in wb.algebras.values():
            found["BlockAlgebra"].append(algebra)
            found["Block"] += algebra.blocks
        for action in list(wb.actions.values())[:12]:
            report = _action_verification(action)
            found["VerificationReport"].append(report)
            found["CheckItem"] += report.items
            if not report.ok:
                continue
            if isinstance(action, AlgebraPartialAction):
                found["BlockIdeal"] += action.domains.values()
                found["WreathMap"] += action.maps.values()
                if action.algebra.n_blocks > 1:
                    checks = globalize_block_power(action).checks
                    found["VerificationReport"].append(checks)
                    found["CheckItem"] += checks.items
            else:
                checks = verify_set_globalization(action, globalize_set(action))
                found["VerificationReport"].append(checks)
                found["CheckItem"] += checks.items
    found["Workbench"].append(Workbench())
    found["VerificationReport"].append(VerificationReport("empty"))
    return found


INSTANCES = _instances()


def _pairs(values: list, limit: int = 40):
    """Every ordered pair of at most ``limit`` values, spread over the list."""
    step = max(1, len(values) // limit)
    picked = values[::step]
    return itertools.product(picked, picked)


def _outcome(call):
    """("returned", result) of call(), or ("raised", (type, message))."""
    try:
        return "returned", call()
    except Exception as exc:  # the oracle's errors are the expectation
        return "raised", (type(exc), str(exc))


@pytest.mark.parametrize("name", sorted(ORACLES))
class TestAgainstTheDataclasses:
    def test_every_class_has_instances(self, name):
        assert len(INSTANCES[name]) >= 2

    def test_repr(self, name):
        for value in INSTANCES[name]:
            assert repr(value) == repr(to_oracle(value))

    def test_hash_or_unhashability(self, name):
        for value in INSTANCES[name]:
            assert _outcome(lambda: hash(value)) == _outcome(lambda: hash(to_oracle(value)))

    def test_equality(self, name):
        for a, b in _pairs(INSTANCES[name]):
            oa, ob = to_oracle(a), to_oracle(b)
            assert (a == b) == (oa == ob)
            assert (a != b) == (oa != ob)
            if a == b and getattr(type(a), "__hash__", None) is not None:
                assert hash(a) == hash(b)
        for value in INSTANCES[name]:  # an equal value from the same arguments
            args = [getattr(value, f.name) for f in dataclasses.fields(ORACLES[name])]
            assert type(value)(*args) == value
            assert value != to_oracle(value) and to_oracle(value) != value
            # a subclass instance is unequal, in the package as in the oracle
            sub = type(name, (type(value),), {})(*args)
            oracle_sub = type(name, (ORACLES[name],), {})(*map(to_oracle, args))
            assert sub != value and value != sub
            assert oracle_sub != to_oracle(value) and to_oracle(value) != oracle_sub

    def test_assignment(self, name):
        oracle = ORACLES[name]
        value = INSTANCES[name][0]
        copy = to_oracle(value)
        field = dataclasses.fields(oracle)[0].name
        same = getattr(value, field)
        for attr in (field, "not_a_field"):
            real = _outcome(lambda: setattr(value, attr, same))
            expected = _outcome(lambda: setattr(copy, attr, to_oracle(same)))
            assert real[0] == expected[0]
            if real[0] == "raised":
                assert issubclass(real[1][0], AttributeError)
                assert real[1][1] == expected[1][1]
        deleted = _outcome(lambda: delattr(value, field))
        if oracle.__dataclass_params__.frozen:
            assert deleted[0] == "raised"
            assert issubclass(deleted[1][0], AttributeError)
            assert deleted[1][1] == _outcome(lambda: delattr(copy, field))[1][1]
        else:
            setattr(value, field, same)  # put back what was deleted
        assert repr(value) == repr(to_oracle(value))


S3 = symmetric_group(3)
Z2 = cyclic_group(2)
LINE2 = BlockAlgebra((k_line_block(), k_line_block()))
MIXED = BlockAlgebra((Block("L", Z2), k_line_block(), Block("L", Z2)))

# (class name, constructor arguments): normalized or rejected alike
CONSTRUCTIONS = [
    ("FiniteGroup", (((0, 1), (1, 0)), 0, ("a", "a"))),
    ("FiniteGroup", (((0, 1), (1, 0)), 0, ("a", 1))),
    ("Subgroup", (S3, [3, 0, 3])),
    ("Subgroup", (S3, (0, 3, 0))),
    ("Subgroup", (S3, (0, 4))),
    ("Subgroup", (S3, (0, True))),
    ("Subgroup", (S3, ())),
    ("Block", ("K", Z2)),
    ("BlockAlgebra", ([k_line_block(), k_line_block()],)),
    ("BlockAlgebra", ([],)),
    ("BlockAlgebra", ([Block("L", Z2), Block("L", S3)],)),
    ("BlockIdeal", (LINE2, [1, 0])),
    ("BlockIdeal", (LINE2, {2})),
    ("WreathMap", (BlockIdeal(LINE2, {0, 1}), BlockIdeal(LINE2, {0, 1}), {1: 0, 0: 1}, {1: 0, 0: 0})),
    ("WreathMap", (BlockIdeal(MIXED, {0, 2}), BlockIdeal(MIXED, {0, 2}), {2: 0, 0: 2}, {0: 1, 2: 0})),
    ("WreathMap", (BlockIdeal(MIXED, {0}), BlockIdeal(MIXED, {1}), {0: 1}, {0: 0})),
    ("WreathMap", (BlockIdeal(MIXED, {0}), BlockIdeal(MIXED, {2}), {0: 2}, {0: 2})),
    ("WreathMap", (BlockIdeal(LINE2, {0}), BlockIdeal(LINE2, {1}), {0: 1}, {1: 0})),
    ("CheckItem", ("a check", False)),
    ("CheckItem", ("a check", True, "a witness")),
    ("VerificationReport", ("subject",)),
    ("VerificationReport", ("subject", [], "a header:")),
    ("Workbench", ()),
    ("Workbench", ("2",)),
    ("CheckItem", ("a check", True, None, "ideal")),
]


@pytest.mark.parametrize("name,args", CONSTRUCTIONS)
def test_constructors_normalize_and_reject_alike(name, args):
    """The same arguments give equal fields, or the same error, in the
    same order of checks."""
    cls = next(getattr(m, name) for m in MODULES if hasattr(m, name))
    real = _outcome(lambda: cls(*args))
    expected = _outcome(lambda: ORACLES[name](*map(to_oracle, args)))
    if expected[0] == "raised":
        assert real == expected
    else:
        assert real[0] == "returned" and repr(real[1]) == repr(expected[1])
        assert to_oracle(real[1]) == expected[1]


def test_default_containers_are_fresh():
    a, b = VerificationReport("a"), VerificationReport("b")
    a.add("x", True)
    assert b.items == [] and a.items is not b.items
    first, second = Workbench(), Workbench()
    assert all(getattr(first, f) is not getattr(second, f) for f in ("groups", "algebras", "actions"))


@pytest.mark.parametrize("module", ["partial_actions.cli", "partial_actions"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Importing the package generates no code: ``-S`` keeps the host's
    ``site`` (and what its ``.pth`` files import) out of the check."""
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

