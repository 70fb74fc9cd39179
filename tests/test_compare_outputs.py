"""The byte-identity check of ``compare_outputs.py``: a checkout matches
itself on the golden documents, a CLI that prints something else differs
on every run, one that writes another ``--output`` file differs, the
bad-input and bad-table runs are rejected as input errors, the
bad-algebra runs name the map or twist at fault, the bad-set runs name the
carrier, domain or map at fault, and the rejected-action runs reach the
axiom scan."""

import json

from compare_outputs import (
    OUTPUT,
    ROOT,
    all_runs,
    bad_algebra_runs,
    bad_set_runs,
    bad_table_runs,
    compare,
    error_runs,
    golden_runs,
    rejected_runs,
    run_cli,
)


def test_every_run_has_its_own_name(tmp_path):
    """67 runs, the relabelled S3 (identity off element 0) enumerated at
    size 4, in text and JSON, among them."""
    names = [name for name, _ in all_runs(tmp_path, 7)]
    assert len(names) == len(set(names)) == 67
    for fmt in ("text", "json"):
        assert f"enumerate group_s3_relabelled.json --size 4 {fmt}" in names


def test_a_checkout_matches_itself_on_the_golden_documents():
    runs = golden_runs()
    assert len(runs) == 8
    assert compare(ROOT, ROOT, runs) == []


def test_a_different_cli_differs(tmp_path):
    package = tmp_path / "src" / "partial_actions"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('another CLI')\n")
    runs = golden_runs()[:2]
    assert compare(ROOT, tmp_path, runs) == [name for name, _ in runs]


def test_a_different_output_file_differs(tmp_path):
    """Two CLIs that print nothing and write different files to --output."""
    roots = []
    for text in ("one", "other"):
        package = tmp_path / text / "src" / "partial_actions"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(
            f"import sys\nopen(sys.argv[sys.argv.index('--output') + 1], 'w').write({text!r})\n"
        )
        roots.append(tmp_path / text)
    runs = [("writes", ["--output", OUTPUT])]
    assert compare(roots[0], roots[0], runs) == []
    assert compare(roots[0], roots[1], runs) == ["writes"]


def test_the_bad_input_runs_exit_two_at_the_root(tmp_path):
    runs = error_runs(tmp_path)
    assert len(runs) == 4
    for name, args in runs:
        out, err, code = run_cli(ROOT, args, tmp_path)
        assert (out, code) == (b"", 2), name
        assert err.startswith(b"input error: ") and err.endswith(b"(at $)\n"), name


def test_the_bad_algebra_runs_name_the_map_or_twist(tmp_path):
    runs = bad_algebra_runs(tmp_path)
    assert [name for name, _ in runs] == [
        "verify leading_zero.json", "verify twist_range.json", "verify other_class.json",
        "verify image_twice.json",
    ]
    expected = [
        "block position '01' has a leading zero (at $.actions.leading_zero.maps.1)",
        "bad automorphism index 2 (at $.actions.twist_range.twists.1)",
        "position 0 (Q) cannot map onto position 2 (K) (at $.actions.other_class.maps.1)",
        "position map is not a bijection onto the target support"
        " (at $.actions.image_twice.maps.1)",
    ]
    for (name, args), message in zip(runs, expected):
        out, err, code = run_cli(ROOT, args, tmp_path)
        assert (out, code) == (b"", 2), name
        assert err.decode() == f"input error: {message}\n", name


def test_the_bad_set_runs_name_the_entry_at_fault(tmp_path):
    runs = bad_set_runs(tmp_path)
    assert [name for name, _ in runs] == [
        "verify other_type.json", "verify key_outside.json", "verify colliding.json",
        "verify domain_object.json", "verify bad_then_unknown.json", "verify equal_bool.json",
    ]
    expected = [
        "point '1' not in the carrier (at $.actions.other_type.domains.1)",
        "point '2' not in the carrier (at $.actions.key_outside.maps.1)",
        "carrier points collide at '1' (at $.actions.colliding.carrier)",
        "domain must be a list (at $.actions.domain_object.domains.1)",
        "point 2 not in the carrier (at $.actions.bad_then_unknown.domains.1)",
        "point True not in the carrier (at $.actions.equal_bool.domains.1)",
    ]
    for (name, args), message in zip(runs, expected):
        out, err, code = run_cli(ROOT, args, tmp_path)
        assert (out, code) == (b"", 2), name
        assert err.decode() == f"input error: {message}\n", name


def test_the_bad_table_runs_name_the_generator_major_triple(tmp_path):
    # (2, 17, 10) fails too, and is first when a, not b, is the outer loop
    runs = bad_table_runs()
    assert len(runs) == 2
    for (name, args), where in zip(runs, ("$", "$.actions.on_a_loop.group")):
        out, err, code = run_cli(ROOT, args, tmp_path)
        assert (out, code) == (b"", 2), name
        assert err.decode() == (
            f"input error: associativity fails at (3,16,1): (3*16)*1 != 3*(16*1) (at {where})\n"
        ), name


def test_the_rejected_runs_name_the_scan_witnesses(tmp_path):
    runs = rejected_runs(tmp_path)
    assert len(runs) == 4
    name, args = runs[-1]
    assert name == "verify rejected.json json"
    out, err, code = run_cli(ROOT, args, tmp_path)
    assert (err, code) == (b"", 1)
    intersection = {action: report["items"][3]["witness"] for action, report in json.loads(out).items()}
    assert intersection == {
        "z1_swap": None,
        "s3r_swap_23": "g=(23), h=(132): alpha_g(D_g^-1 ∩ D_h) != D_g ∩ D_gh",
        "s3r_swap_e": "g=1, h=(132): alpha_g(D_g^-1 ∩ D_h) != D_g ∩ D_gh",
    }
