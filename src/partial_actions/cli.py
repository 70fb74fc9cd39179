"""Command-line workbench: verify | factorize | globalize | enumerate | example-s3.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from . import s3_example
from .algebra_actions import (
    AlgebraPartialAction,
    globalize_block_power,
    globalize_extension_by_zero,
    classify_indecomposable,
    verify_algebra_partial_action,
)
from .documents import (
    DocumentError,
    _read_json,
    _wreath_map_doc,
    _write_json,
    group_to_doc,
    load_workbench,
    parse_group,
    set_action_to_doc,
)
from .errors import PartialActionError, UnknownElement
from .groups import (
    FiniteGroup,
    coset_factorize,
    cross_validate_table,
    cyclic_group,
    subgroup_closure,
    symmetric_group,
)
from .set_actions import (
    SetPartialAction,
    _stabilizer_sizes,
    enumerate_partial_actions,
    globalize_set,
    verify_partial_action,
    verify_set_globalization,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2

_GROUP_SPEC = re.compile(r"^([SZC])(\d+)$", re.IGNORECASE)


def _group_from_spec(spec: str) -> FiniteGroup:
    """Accept S<n>, Z<n>/C<n>, or a path to a JSON group document."""
    m = _GROUP_SPEC.match(spec.strip())
    if m:
        kind, n = m.group(1).upper(), int(m.group(2))
        return symmetric_group(n) if kind == "S" else cyclic_group(n)
    return parse_group(_read_json(spec), "$")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


_BATCH = 1 << 16  # characters per write: a few large writes, not one per piece


def _emit_json(payload, output: Optional[str]) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to ``output``, or
    to stdout, streamed in writes of at least ``_BATCH`` characters but the
    last."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            _write_batched(payload, fh.write)
    else:
        _write_batched(payload, sys.stdout.write)


def _write_batched(payload, write) -> None:
    batch: list[str] = []
    size = 0

    def add(piece: str) -> None:
        nonlocal size
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            write("".join(batch))
            batch.clear()
            size = 0

    _write_json(payload, add)
    batch.append("\n")
    write("".join(batch))


def _action_verification(action):
    if isinstance(action, AlgebraPartialAction):
        return verify_algebra_partial_action(action)
    return verify_partial_action(action)


def _located(name: str, step, action):
    """step(action), with a package error re-raised as bad input at the
    action's path in the document."""
    try:
        return step(action)
    except PartialActionError as exc:
        raise DocumentError(f"{type(exc).__name__}: {exc}", f"$.actions.{name}") from exc


def cmd_verify(args) -> int:
    wb = load_workbench(args.file)
    if not wb.actions:
        raise DocumentError("document contains no actions", "$.actions")
    reports = {n: _located(n, _action_verification, a) for n, a in wb.actions.items()}
    if args.format == "json":
        _emit_json({n: r.to_dict() for n, r in reports.items()}, args.output)
    else:
        blocks = []
        for name, report in reports.items():
            blocks.append(f"[{name}]\n{report.render_text()}")
        _emit("\n\n".join(blocks), args.output)
    return EXIT_OK if all(r.ok for r in reports.values()) else EXIT_VERIFICATION


def _render_factorization_text(cf, report=None) -> str:
    G = cf.group
    header = f"{'(g, g_i)':<18} {'j':<8} {'h':<8}"
    lines = [header, "-" * len(header)]
    annotations = {}
    if report is not None:
        for row in report.checked:
            annotations[row.g, row.g_i] = "MATCH" if row.matches else (
                f"MISMATCH (claimed j={G.name(row.claimed_j)}, h={G.name(row.claimed_h)})"
            )
        annotations.update(((g, g_i), "MISSING from claim") for g, g_i, _, _ in report.missing)
    for g, g_i, j, h in cf.rows():
        pair = f"({G.name(g)},{G.name(g_i)})"
        note = f"  {annotations[(g, g_i)]}" if (g, g_i) in annotations else ""
        lines.append(f"{pair:<18} {G.name(j):<8} {G.name(h):<8}{note}")
    if report is not None:
        lines += ["", report.render_text().splitlines()[-1]]
    return "\n".join(lines)


def cmd_factorize(args) -> int:
    G = _group_from_spec(args.group)
    generators = [s.strip() for s in args.subgroup.split(",") if s.strip()] if args.subgroup else []
    H = subgroup_closure(G, generators)
    cf = coset_factorize(G, H)
    report = None
    if args.compare:
        doc = _read_json(args.compare)
        claims = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(claims, list) or not all(
            isinstance(r, list) and len(r) == 4 and all(isinstance(x, (str, int)) for x in r)
            for r in claims
        ):
            raise DocumentError("rows must be a list of [g, g_i, j, h] element labels", "$.rows")
        for i, r in enumerate(claims):
            try:
                _, g_i, _, _ = map(G.resolve, r)
                cf.rep_position(g_i)
            except UnknownElement as exc:
                raise DocumentError(f"{type(exc).__name__}: {exc}", f"$.rows[{i}]") from exc
        report = cross_validate_table(cf, [((g, g_i), j, h) for g, g_i, j, h in claims])
    if args.format == "json":
        payload = {
            "group": group_to_doc(G),
            "subgroup": [G.name(m) for m in H.members],
            "transversal": [G.name(r) for r in cf.reps],
            "rows": [
                {"g": G.name(g), "g_i": G.name(g_i), "j": G.name(j), "h": G.name(h)}
                for g, g_i, j, h in cf.rows()
            ],
        }
        if report is not None:
            payload["comparison"] = report.to_dict()
        _emit_json(payload, args.output)
    else:
        _emit(_render_factorization_text(cf, report), args.output)
    return EXIT_OK


def _globalize_one(action):
    """Route an action to its pipeline; returns (kind, result-ish, checks).

    One block is an extension by zero from a subgroup; any other block
    algebra goes through the envelope of its idempotent restriction.  Both
    share one assembly; the one-block branch stays because its report lists
    transversal names and numbers the blocks from the identity's coset."""
    if isinstance(action, AlgebraPartialAction):
        if action.algebra.n_blocks == 1:
            H, hom = classify_indecomposable(action)
            result = globalize_extension_by_zero(action.algebra.blocks[0], H, hom)
        else:
            result = globalize_block_power(action)
        return "algebra", result, result.checks
    sg = globalize_set(action)
    checks = verify_set_globalization(action, sg)
    return "set", sg, checks


def _globalization_doc(kind: str, result, checks) -> dict:
    passed = {item.key: item.passed for item in checks.items}
    if kind == "algebra":
        G = result.source.group
        action_doc = {}
        for g in G.elements():
            position_map, twists = _wreath_map_doc(result.action[g])
            action_doc[G.name(g)] = {"map": position_map, "twists": twists}
        return {
            "kind": "algebra",
            "envelope_blocks": [list(p) if isinstance(p, tuple) else p for p in result.provenance],
            "action": action_doc,
            "embedding": {"position_map": _wreath_map_doc(result.embedding)[0]},
            "checks": passed,
        }
    G = result.envelope.group
    return {
        "kind": "set",
        "envelope_blocks": [[G.name(g), x] for (g, x) in result.orbit_witness],
        "action": {
            G.name(g): {str(p): q for p, q in result.envelope.maps[g].items()}
            for g in G.elements()
        },
        "embedding": {str(x): c for x, c in sorted(result.embedding.items(), key=lambda kv: str(kv[0]))},
        "checks": passed,
    }


def _globalization_text(name: str, kind: str, result, checks) -> str:
    lines = [f"[{name}] {kind} globalization"]
    if kind == "algebra":
        lines.append(f"envelope blocks ({result.block_count}): {list(result.provenance)}")
    else:
        G = result.envelope.group
        witnesses = [f"[{G.name(g)},{x!r}]" for (g, x) in result.orbit_witness]
        lines.append(f"envelope points ({result.size}): {', '.join(witnesses)}")
    lines.append(checks.render_text())
    return "\n".join(lines)


def cmd_globalize(args) -> int:
    wb = load_workbench(args.file)
    if not wb.actions:
        raise DocumentError("document contains no actions", "$.actions")
    names = [args.action] if args.action else list(wb.actions)
    for name in names:
        if name not in wb.actions:
            raise DocumentError(f"no action named {name!r}", "$.actions")
    all_ok = True
    docs = {}
    texts = []
    for name in names:
        action = wb.actions[name]
        pre = _located(name, _action_verification, action)
        if not pre.ok:
            all_ok = False
            texts.append(f"[{name}] input is not a partial action\n{pre.render_text()}")
            docs[name] = {"input_verification": pre.to_dict()}
            continue
        kind, result, checks = _located(name, _globalize_one, action)
        all_ok = all_ok and checks.ok
        docs[name] = _globalization_doc(kind, result, checks)
        texts.append(_globalization_text(name, kind, result, checks))
    if args.format == "json":
        _emit_json(docs if len(docs) > 1 else docs[names[0]], args.output)
    else:
        _emit("\n\n".join(texts), args.output)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _render_action_line(spa: SetPartialAction) -> str:
    G = spa.group
    parts = []
    for g in G.elements():
        if g == G.identity or not spa.domains[g]:
            continue
        dom = [x for x in spa.carrier if x in spa.domains[g]]
        images = ",".join(f"{x!r}->{y!r}" for x, y in spa.maps[g].items())
        parts.append(f"{G.name(g)}: D={dom!r} [{images}]")
    return "; ".join(parts) if parts else "all domains empty off the identity"


def _enumerate_doc(G: FiniteGroup, actions: list, sizes: Optional[list]) -> dict:
    """The JSON report of ``enumerate``.  Its actions share one group
    document, one carrier list, one list per distinct domain and one dict
    per distinct map, each encoded at most twice, then reused; the output
    is streamed."""
    group_doc = group_to_doc(G)
    memo: dict = {}
    payload: dict = {"count": len(actions)}
    payload["actions"] = [set_action_to_doc(a, group_doc, _memo=memo) for a in actions]
    if sizes is not None:
        payload["envelope_sizes"] = sizes
    return payload


def cmd_enumerate(args) -> int:
    G = _group_from_spec(args.group)
    stabilizers = [] if args.envelopes else None
    actions = enumerate_partial_actions(G, args.size, _stabilizers=stabilizers)
    sizes = None if stabilizers is None else _stabilizer_sizes(G, stabilizers)
    if args.format == "json":
        _emit_json(_enumerate_doc(G, actions, sizes), args.output)
    else:
        lines = [f"{len(actions)} partial actions of {args.group} on {args.size} points"]
        for i, a in enumerate(actions):
            line = f"#{i}: {_render_action_line(a)}"
            if sizes is not None:
                line += f"  -> envelope size {sizes[i]}"
            lines.append(line)
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_example_s3(args) -> int:
    sections = ("table", "beta") if args.section == "all" else (args.section,)
    texts = []
    payload: dict = {}
    ok = True
    for section in sections:
        if section == "table":
            report = s3_example.run_table_section()
            payload["table"] = report.to_dict()
            texts.append("j/h table comparison:\n" + report.render_text())
        else:
            rows = s3_example.run_beta_section()
            ok = ok and all(passed for *_, passed in rows)
            payload["beta"] = [
                {"element": name, "expected": exp, "computed": got, "pass": passed}
                for name, exp, got, passed in rows
            ]
            lines = ["enveloping-action formulas (blocks ordered 1, (13), (23)):"]
            for name, exp, got, passed in rows:
                status = "PASS" if passed else "FAIL"
                lines.append(f"  {status}  beta_{name}{got}  expected {exp}")
            texts.append("\n".join(lines))
    if args.format == "json":
        _emit_json(payload, args.output)
    else:
        _emit("\n\n".join(texts), args.output)
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partial-actions",
        description="Construct, verify and globalize partial actions of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", metavar="PATH", default=None)

    p = sub.add_parser("verify", help="check the actions in a document against the axioms")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factorize", help="print the j/h coset factorization table")
    p.add_argument("--group", required=True, help="S<n>, Z<n>, or a JSON group file")
    p.add_argument("--subgroup", default="", help="comma-separated generator labels")
    p.add_argument("--compare", metavar="FILE", default=None, help="claimed rows to cross-check")
    common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("globalize", help="compute and check enveloping actions")
    p.add_argument("file")
    p.add_argument("--action", default=None, help="globalize only the named action")
    common(p)
    p.set_defaults(func=cmd_globalize)

    p = sub.add_parser("enumerate", help="list all partial actions at desk scale")
    p.add_argument("--group", required=True)
    p.add_argument("--size", type=int, required=True, help="carrier size")
    p.add_argument("--envelopes", action="store_true", help="also print envelope sizes")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("example-s3", help="reproduce the built-in S3 worked example")
    p.add_argument("--section", choices=("table", "beta", "all"), default="all")
    common(p)
    p.set_defaults(func=cmd_example_s3)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output:  # an unwritable --output fails before any work, and the probe leaves no file
        try:
            existed = os.path.lexists(args.output)
            open(args.output, "a", encoding="utf-8").close()
            if not existed:
                os.remove(args.output)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"input error: cannot write {args.output}: {reason}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except (DocumentError, OSError) as exc:  # OSError: a write that fails after the check
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PartialActionError as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
