"""Compare the CLI's output under two checkouts, byte for byte.

    python3 tests/compare_outputs.py BASE_ROOT CHANGE_ROOT [--seed S]

Each run is one ``python -m partial_actions ...`` invocation, made once with
``BASE_ROOT/src`` and once with ``CHANGE_ROOT/src`` as ``PYTHONPATH``, with
``PYTHONHASHSEED=0``, on the same input files: the documents in this
checkout's ``tests/data`` and the seed-S inputs that perfbench's own
``workloads.build_*`` functions write.  A run differs when its stdout, its
stderr, its exit code or the file it writes differs.  The script prints
``N runs, K differ``, then one line per run that differs, and exits 1 when
any does.

The runs: ``globalize`` and ``verify``, text and JSON, on the two golden
documents, on ``parser_corners.json`` (a carrier of strings and integers,
``{"support": [...]}`` domains, twists by index and omitted, an
automorphism group whose identity is not element 0, an algebra of two
classes with different automorphism groups, an inline group and algebra),
on the globalize-s5 and verify-mixed inputs, and on ``rejected.json``,
written to the work directory, whose set actions the orbit certificate
rejects, so that the axiom scan names every witness (alpha_e swapping two
points over the trivial group, and two swapped restrictions of the
regular action of ``group_s3_relabelled.json``, whose identity is not
element 0); ``example-s3``, text and JSON; ``enumerate --envelopes``,
text and JSON, on the enumerate-z6x4 group at size 4, on
``group_s3_relabelled.json`` at sizes 3 and 4 (size 4 is the largest
enumeration whose identity is not element 0), on S3 at size 4, whose non-normal stabilizers give orbit pieces that share a
stabilizer order but not a placement, and on K4 at size 4, written as a
Cayley table to the work directory, whose three subgroups of order 2
are distinct stabilizers of one order; ``enumerate`` without
``--envelopes``, text and JSON, on the enumerate-z6x4 group at size 4,
and in JSON on Z2 at size 0, an empty carrier whose every domain is ``[]``;
``factorize``, text and JSON, with ``--subgroup (12)`` on S3 with
``--compare`` and the claimed rows of ``s3_example.CLAIMED_ROWS`` and on
``group_s3_relabelled.json``, with ``--subgroup (12),(34)`` on S4 (index
6), and on ``group_s3_relabelled.json`` (whose identity is not element 0)
with the trivial subgroup and with ``--subgroup (123)``; two ``--output`` runs in JSON,
``enumerate --envelopes`` on the enumerate-z6x4 group at size 4 and
``globalize`` on the globalize-s5 input, whose written files are compared
too; four bad-input runs, which exit 2: ``verify`` on a missing file,
and ``verify``, ``globalize`` and ``enumerate --group`` on a file that is
not JSON; four bad-algebra runs, which exit 2 naming the map or twist at
fault: ``verify`` on documents written to the work directory, each an
algebra action with one fault, a map key with a leading zero (``"01"``), a
twist index out of range, an image on a block of another class and an
image used twice; six bad-set runs, which exit 2 naming the entry at
fault: ``verify`` on documents written to the work directory, each a set
action with one fault, a domain point of the other JSON type (``"1"`` for
1), a map key outside the carrier, the colliding carrier points 1 and
``"1"``, a domain given as an object, a bad point in the first domain
entry beside an unknown element key in a later one, so that the runs
compare which of the two is named, and ``true`` after the point 1 in a
domain; and two bad-table runs, which exit 2
naming the failing triple of associativity: ``factorize --group`` on
``group_s4_nonassociative.json``
and ``verify`` on ``workbench_s4_nonassociative.json``, which inlines the
same table.  That table is an order-24 Latin square with identity 0 and
two-sided inverses, one intercalate switch away from ``symmetric_group(4)``,
whose first failure with the middle factor b in its generating set
(16, 17) is (2, 17, 10) scanning a first and (3, 16, 1) scanning b first,
so the runs compare which one the check names.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FORMATS = ("text", "json")
OUTPUT = "report.json"  # the file of an --output run, in its working directory
K4_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def golden_runs(
    docs: tuple[str, ...] = ("golden_globalize.json", "golden_relabelled.json"),
) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of ``globalize`` and ``verify`` on documents in
    ``tests/data``, by default the golden ones."""
    return [
        (f"{command} {doc} {fmt}", [command, str(DATA / doc), "--format", fmt])
        for doc in docs
        for command in ("globalize", "verify")
        for fmt in FORMATS
    ]


def seed_runs(workdir: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The runs on perfbench's seed inputs, which are written to workdir,
    and on the built-in example, the relabelled S3 table and a K4 table,
    which is written to workdir too."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    enumerate_wl = workloads.build_enumerate(seed, workdir)
    (z6_args,) = enumerate_wl.invocations
    z6 = z6_args[z6_args.index("--group") + 1]
    runs = []
    docs = [build(seed, workdir).invocations[0][1]
            for build in (workloads.build_globalize, workloads.build_verify)]
    for doc in docs:
        name = Path(doc).name
        runs += [
            (f"{command} seed-{seed} {name} {fmt}", [command, doc, "--format", fmt])
            for command in ("globalize", "verify")
            for fmt in FORMATS
        ]
    runs += [(f"example-s3 {fmt}", ["example-s3", "--format", fmt]) for fmt in FORMATS]
    k4 = workdir / "k4.json"
    k4.write_text(json.dumps({"kind": "cayley", "table": K4_TABLE}), encoding="utf-8")
    for label, group, size in (
        (f"seed-{seed} z6.json", z6, "4"),
        ("group_s3_relabelled.json", str(DATA / "group_s3_relabelled.json"), "3"),
        ("group_s3_relabelled.json", str(DATA / "group_s3_relabelled.json"), "4"),
        ("S3", "S3", "4"),
        ("k4.json", str(k4), "4"),
    ):
        runs += [
            (f"enumerate {label} --size {size} {fmt}",
             ["enumerate", "--group", group, "--size", size, "--envelopes", "--format", fmt])
            for fmt in FORMATS
        ]
    runs += [
        (f"enumerate seed-{seed} z6.json --size 4 {fmt} without --envelopes",
         ["enumerate", "--group", z6, "--size", "4", "--format", fmt])
        for fmt in FORMATS
    ]
    runs.append(("enumerate Z2 --size 0 json", ["enumerate", "--group", "Z2", "--size", "0",
                                                "--format", "json"]))
    runs += [
        (f"enumerate seed-{seed} z6.json --size 4 json --output",
         ["enumerate", "--group", z6, "--size", "4", "--envelopes", "--format", "json",
          "--output", OUTPUT]),
        (f"globalize seed-{seed} {Path(docs[0]).name} json --output",
         ["globalize", docs[0], "--format", "json", "--output", OUTPUT]),
    ]
    return runs


def rejected_runs(workdir: Path) -> list[tuple[str, list[str]]]:
    """``globalize`` and ``verify``, text and JSON, on a document written to
    workdir whose actions the orbit certificate rejects, so that the axiom
    scan names the witnesses: alpha_e swapping two points over the trivial
    group, and two swapped restrictions of the regular action of the
    relabelled S3 (whose identity is not element 0), one at (23) and one
    at the identity."""
    relabelled = json.loads((DATA / "group_s3_relabelled.json").read_text(encoding="utf-8"))
    domains = {"(132)": [1], "(123)": [0], "(23)": [1, 3], "(12)": [0, 3], "1": [0, 1, 3]}
    maps = {"(132)": {"0": 1}, "(123)": {"1": 0}, "(23)": {"1": 3, "3": 1},
            "(12)": {"0": 3, "3": 0}, "1": {"0": 0, "1": 1, "3": 3}}
    swapped_23 = {**maps, "(23)": {"1": 1, "3": 3}}
    swapped_e = {**maps, "1": {"0": 1, "1": 0, "3": 3}}
    doc = {
        "version": "1",
        "groups": {"Z1": {"kind": "cyclic", "n": 1}, "S3r": relabelled},
        "algebras": {},
        "actions": {
            "z1_swap": {"kind": "set", "group": "Z1", "carrier": ["a", "b"],
                        "maps": {"0": {"a": "b", "b": "a"}}},
            **{
                name: {"kind": "set", "group": "S3r", "carrier": [0, 1, 3], "domains": domains,
                       "maps": m}
                for name, m in (("s3r_swap_23", swapped_23), ("s3r_swap_e", swapped_e))
            },
        },
    }
    rejected = workdir / "rejected.json"
    rejected.write_text(json.dumps(doc), encoding="utf-8")
    return [
        (f"{command} rejected.json {fmt}", [command, str(rejected), "--format", fmt])
        for command in ("globalize", "verify")
        for fmt in FORMATS
    ]


def factorize_runs(workdir: Path) -> list[tuple[str, list[str]]]:
    """The ``factorize`` runs, with the built-in example's claimed rows
    written to workdir."""
    sys.path.insert(0, str(ROOT / "src"))
    from partial_actions.s3_example import CLAIMED_ROWS

    claims = workdir / "claims.json"
    rows = [[g, g_i, j, h] for (g, g_i), j, h in CLAIMED_ROWS]
    claims.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    relabelled = str(DATA / "group_s3_relabelled.json")
    return [
        (f"factorize {label} {fmt}", ["factorize", "--group", group, *extra, "--format", fmt])
        for label, group, extra in (
            ("S3 --compare claims.json --subgroup (12)", "S3",
             ["--subgroup", "(12)", "--compare", str(claims)]),
            ("group_s3_relabelled.json --subgroup (12)", relabelled, ["--subgroup", "(12)"]),
            ("S4 --subgroup (12),(34)", "S4", ["--subgroup", "(12),(34)"]),
            ("group_s3_relabelled.json", relabelled, []),
            ("group_s3_relabelled.json --subgroup (123)", relabelled, ["--subgroup", "(123)"]),
        )
        for fmt in FORMATS
    ]


def error_runs(workdir: Path) -> list[tuple[str, list[str]]]:
    """The bad-input runs, on a missing file and on invalid JSON written to
    workdir."""
    missing, bad = str(workdir / "missing.json"), workdir / "bad.json"
    bad.write_text("{bad", encoding="utf-8")
    return [
        ("verify missing.json", ["verify", missing]),
        ("verify bad.json", ["verify", str(bad)]),
        ("globalize bad.json", ["globalize", str(bad)]),
        ("enumerate --group bad.json", ["enumerate", "--group", str(bad), "--size", "1"]),
    ]


def bad_algebra_runs(workdir: Path) -> list[tuple[str, list[str]]]:
    """``verify`` on four documents written to workdir, each holding one
    algebra action of Z2 on blocks Q, Q, K with one fault in the map of 1:
    a key with a leading zero, a twist index out of range, an image on a
    block of another class (a ``ClassMismatch``) and an image used twice
    (no bijection)."""
    z2 = {"kind": "cyclic", "n": 2}
    base = {"kind": "algebra", "group": z2, "domains": {"1": [0, 1]},
            "algebra": {"blocks": [{"class": "Q", "aut": z2}] * 2 + [{"class": "K"}]}}
    faults = {
        "leading_zero": {"maps": {"1": {"01": 0, "0": 1}}},
        "twist_range": {"maps": {"1": {"0": 1, "1": 0}}, "twists": {"1": {"0": 2}}},
        "other_class": {"domains": {"1": [0, 2]}, "maps": {"1": {"0": 2, "2": 0}}},
        "image_twice": {"maps": {"1": {"0": 1, "1": 1}}},
    }
    runs = []
    for name, fault in faults.items():
        doc = workdir / f"{name}.json"
        doc.write_text(json.dumps({"version": "1", "actions": {name: {**base, **fault}}}),
                       encoding="utf-8")
        runs.append((f"verify {doc.name}", ["verify", str(doc)]))
    return runs


def bad_set_runs(workdir: Path) -> list[tuple[str, list[str]]]:
    """``verify`` on six documents written to workdir, each holding one
    set action of Z2 on the points 0 and 1 with one fault: a domain point
    of the other JSON type (``"1"`` for 1), a map key outside the carrier,
    the colliding carrier points 1 and ``"1"``, a domain given as an object,
    a bad point in the first domain entry beside an unknown element key in
    a later one, and ``true`` after the point 1 in a domain, which a set of
    the domain would drop."""
    base = {"kind": "set", "group": {"kind": "cyclic", "n": 2}, "carrier": [0, 1],
            "domains": {"1": [0, 1]}, "maps": {"1": {"0": 1, "1": 0}}}
    faults = {
        "other_type": {"domains": {"1": [0, "1"]}},
        "key_outside": {"maps": {"1": {"0": 1, "2": 0}}},
        "colliding": {"carrier": [1, "1"]},
        "domain_object": {"domains": {"1": {"support": [0, 1]}}},
        "bad_then_unknown": {"domains": {"1": [0, 2], "zz": [0]}},
        "equal_bool": {"domains": {"1": [0, 1, True]}},
    }
    runs = []
    for name, fault in faults.items():
        doc = workdir / f"{name}.json"
        doc.write_text(json.dumps({"version": "1", "actions": {name: {**base, **fault}}}),
                       encoding="utf-8")
        runs.append((f"verify {doc.name}", ["verify", str(doc)]))
    return runs


def bad_table_runs() -> list[tuple[str, list[str]]]:
    """The runs on a non-associative table, as a group file and inlined in
    a workbench."""
    return [
        ("factorize --group group_s4_nonassociative.json",
         ["factorize", "--group", str(DATA / "group_s4_nonassociative.json")]),
        ("verify workbench_s4_nonassociative.json",
         ["verify", str(DATA / "workbench_s4_nonassociative.json")]),
    ]


def run_cli(root: Path, args: list[str], cwd: Path) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of the CLI of the checkout at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-m", "partial_actions", *args], cwd=cwd, env=env, capture_output=True
    )
    return done.stdout, done.stderr, done.returncode


def outcome(root: Path, args: list[str], cwd: Path) -> tuple:
    """``run_cli``'s result, and for an ``--output`` run the bytes of the
    file it wrote (``None`` when it wrote none), which is then removed."""
    result = run_cli(root, args, cwd)
    if "--output" not in args:
        return result
    written = cwd / args[args.index("--output") + 1]
    data = written.read_bytes() if written.exists() else None
    written.unlink(missing_ok=True)
    return (*result, data)


def compare(base: Path, change: Path, runs: list[tuple[str, list[str]]]) -> list[str]:
    """The names of the runs whose output differs between the checkouts."""
    for root in (base, change):
        if not (root / "src" / "partial_actions").is_dir():
            raise SystemExit(f"{root} holds no src/partial_actions")
    with tempfile.TemporaryDirectory() as cwd:
        return [
            name for name, args in runs
            if outcome(base, args, Path(cwd)) != outcome(change, args, Path(cwd))
        ]


def all_runs(workdir: Path, seed: int) -> list[tuple[str, list[str]]]:
    """Every run, with its input files written to workdir."""
    runs = golden_runs() + golden_runs(("parser_corners.json",)) + seed_runs(workdir, seed)
    runs += rejected_runs(workdir) + factorize_runs(workdir) + error_runs(workdir)
    return runs + bad_algebra_runs(workdir) + bad_set_runs(workdir) + bad_table_runs()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the checkout compared against")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--seed", type=int, default=7, help="seed of the perfbench inputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        runs = all_runs(Path(workdir), args.seed)
        differ = compare(args.base.resolve(), args.change.resolve(), runs)
    print(f"{len(runs)} runs, {len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
