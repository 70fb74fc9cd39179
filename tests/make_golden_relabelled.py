"""Write the relabelled golden workbench, ``tests/data/golden_relabelled.json``.

Its groups are Cayley tables whose identity is not element 0: S3 with e at
element 5 and Z4 with e at element 3, each element keeping its old name.
Its actions cover, on both groups: one block extended by zero from every
subgroup, through the last homomorphism into Aut = Z2, Z3 and relabelled
S3; set actions; lifts of set actions onto the scalar line and onto a
Z2-block; twisted actions on two blocks; and one mixed-class product.

    PYTHONPATH=src python tests/make_golden_relabelled.py > tests/data/golden_relabelled.json

The recorded outputs beside it come from the CLI on that document:
``globalize`` and ``verify`` with ``--format json`` and ``--format text``
give ``golden_relabelled.out.{json,txt}`` and
``golden_relabelled.verify.out.{json,txt}``, and, run from
``tests/data``, ``enumerate --group group_s3_relabelled.json --size 3
--envelopes`` gives ``enumerate_s3_relabelled.out.txt``.  Regenerate them
only on purpose, when the output is meant to change.
"""

from __future__ import annotations

import json
import sys

from partial_actions.algebra_actions import (
    _from_position_data,
    _homomorphisms,
    _position_data,
    enumerate_algebra_partial_actions,
    extend_by_zero_algebra,
    lift_set_action,
    product_partial_action,
)
from partial_actions.block_algebras import Block, BlockAlgebra, block_power, k_line_block
from partial_actions.documents import Workbench, _write_json, parse_workbench, workbench_to_doc
from partial_actions.groups import all_subgroups, cyclic_group, make_group, symmetric_group
from partial_actions.set_actions import enumerate_partial_actions


def relabelled_named(G):
    """G with element a renamed |G|-1-a, each element keeping its name."""
    last = G.order - 1
    table = [[last - G.table[last - a][last - b] for b in G.elements()] for a in G.elements()]
    return make_group(table, [G.name(last - a) for a in G.elements()])


def lifted_onto(spa, block):
    """``lift_set_action(spa)`` with each scalar line replaced by block: the
    same supports and position maps, and identity twists."""
    supports, maps, _, _ = _position_data(lift_set_action(spa))
    twists = [dict.fromkeys(m, block.aut_group.identity) for m in maps]
    return _from_position_data(
        spa.group, block_power(block, len(spa.carrier)), supports, maps, twists
    )


def workbench() -> Workbench:
    S3r = relabelled_named(symmetric_group(3))
    Z4r = relabelled_named(make_group(cyclic_group(4).table, ["e", "a", "a2", "a3"]))
    wb = Workbench()
    wb.groups.update({"S3r": S3r, "Z4r": Z4r, "Z2": cyclic_group(2), "Z3": cyclic_group(3)})
    blocks = {
        "Q": Block("Q", wb.groups["Z2"]),
        "R": Block("R", wb.groups["Z3"]),
        "P": Block("P", S3r),
        "K": k_line_block(),
    }
    singles = {k: BlockAlgebra((b,)) for k, b in blocks.items()}
    for k, A in singles.items():
        wb.algebras[k + "1"] = A

    def add(name, pa, algebra_name):
        wb.algebras.setdefault(algebra_name, pa.algebra)
        pa.algebra = wb.algebras[algebra_name]  # one named algebra per shape
        wb.actions[name] = pa

    for gname, G in (("S3r", S3r), ("Z4r", Z4r)):
        for i, H in enumerate(all_subgroups(G)):
            for k in ("Q", "R", "P"):
                phi = _homomorphisms(G, H.members, blocks[k].aut_group)[-1]
                add(f"ext_{gname}_H{i}_{k}", extend_by_zero_algebra(blocks[k], H, phi), k + "1")
        trivial = all_subgroups(G)[0]
        add(f"ext_{gname}_zero_K", extend_by_zero_algebra(blocks["K"], trivial, {G.identity: 0}), "K1")
    for gname, G, step in (("S3r", S3r, 61), ("Z4r", Z4r, 23)):
        actions = enumerate_partial_actions(G, ("a", "b", "c"))
        for j in range(0, len(actions), step):
            wb.actions[f"set_{gname}_{j}"] = actions[j]
    for gname, G, step in (("S3r", S3r, 113), ("Z4r", Z4r, 31)):
        actions = enumerate_partial_actions(G, 3)
        for j in range(5, len(actions), step):
            for k in ("K", "Q"):
                add(f"lift_{gname}_{j}_{k}", lifted_onto(actions[j], blocks[k]), f"{k}3")
    for gname, G, k, step in (("S3r", S3r, "Q", 29), ("Z4r", Z4r, "R", 9), ("S3r", S3r, "P", 211)):
        actions = enumerate_algebra_partial_actions(G, 2, blocks[k])
        for j in range(3, len(actions), step):
            add(f"twisted_{gname}_{k}_{j}", actions[j], f"{k}2")
    q = enumerate_algebra_partial_actions(S3r, 2, blocks["Q"])[-3]
    line = lift_set_action(enumerate_partial_actions(S3r, 1)[-1])
    add("mixed_S3r", product_partial_action([q, line]), "QQK")
    return wb


def main() -> None:
    wb = workbench()
    doc = workbench_to_doc(wb)
    back = parse_workbench(json.loads(json.dumps(doc)))
    for name, action in wb.actions.items():
        if back.actions[name] != action:
            raise SystemExit(f"{name} does not survive a round trip through its document")
    _write_json(doc, sys.stdout.write)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
