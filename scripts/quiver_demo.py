#!/usr/bin/env python3
"""Walk through the two-way-quiver example with the library API.

Builds the order-2 subgroup of S3, factorizes cosets, extends the swap
action by zero, globalizes it through both pipelines, and prints the
enveloping action applied to a symbolic element.

Usage: python scripts/quiver_demo.py
"""

from partial_actions import (
    extend_by_zero_algebra,
    globalizations_equivalent,
    globalize_block_power,
    globalize_extension_by_zero,
    symbolic_basis,
    wreath_apply,
)
from partial_actions.s3_example import build_setup, factorization


def main() -> None:
    G, H, block, hom = build_setup()
    print(f"group: S3, subgroup H = {{{', '.join(G.name(m) for m in H.members)}}}")

    cf = factorization()
    print(f"transversal: {[G.name(r) for r in cf.reps]}")
    print("sample factorizations g*g_i = j*h:")
    for g_label, gi_label in [("(23)", "(13)"), ("(12)", "(13)"), ("(123)", "(23)")]:
        g = G.element_by_name(g_label)
        gi = G.element_by_name(gi_label)
        print(
            f"  {g_label}*{gi_label} = {G.name(cf.j(g, gi))}*{G.name(cf.h(g, gi))}"
        )

    result = globalize_extension_by_zero(block, H, hom)
    print(f"\nenvelope: {result.block_count} copies of the block, indexed {result.provenance}")
    element = symbolic_basis(result.envelope.full_ideal())
    print("action on the symbolic element (x0, x1, x2):")
    aut = block.aut_group
    for g in G.elements():
        moved = wreath_apply(result.action[g], element)
        rendered = ", ".join(
            (aut.name(f) + "." if f != aut.identity else "") + s
            for _, (f, s) in sorted(moved.items())
        )
        print(f"  beta_{G.name(g):6s}: ({rendered})")

    other = globalize_block_power(extend_by_zero_algebra(block, H, hom))
    iso = globalizations_equivalent(result, other)
    print(f"\nindependent pipeline agrees: {iso is not None and iso.is_identity()}")
    print(result.checks.render_text())


if __name__ == "__main__":
    main()
