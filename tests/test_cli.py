import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import make_golden_relabelled
from partial_actions import cli
from partial_actions.algebra_actions import globalize_block_power, lift_set_action
from partial_actions.cli import main
from partial_actions.documents import workbench_to_doc
from partial_actions.set_actions import (
    enumerate_partial_actions,
    globalize_set,
    verify_set_globalization,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def quiver_file(tmp_path):
    """The built-in worked example as a document: the swap action on one
    quiver block, extended by zero inside S3."""
    return write(
        tmp_path,
        "quiver.json",
        {
            "version": "1",
            "groups": {"S3": {"kind": "symmetric", "n": 3}, "Z2": {"kind": "cyclic", "n": 2}},
            "algebras": {"quiver": {"blocks": [{"class": "two_way_quiver", "aut": "Z2"}]}},
            "actions": {
                "alpha": {
                    "kind": "algebra",
                    "group": "S3",
                    "algebra": "quiver",
                    "domains": {"1": [0], "(12)": [0]},
                    "maps": {"1": {"0": 0}, "(12)": {"0": 0}},
                    "twists": {"1": {"0": "0"}, "(12)": {"0": "1"}},
                }
            },
        },
    )


@pytest.fixture
def set_action_file(tmp_path):
    return write(
        tmp_path,
        "half.json",
        {
            "version": "1",
            "groups": {"Z2": {"kind": "cyclic", "n": 2}},
            "actions": {
                "half": {
                    "kind": "set",
                    "group": "Z2",
                    "carrier": [0, 1],
                    "domains": {"1": [0]},
                    "maps": {"1": {"0": 0}},
                }
            },
        },
    )


class TestVerifyCommand:
    def test_valid_file_exits_zero(self, quiver_file, capsys):
        assert main(["verify", quiver_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_broken_identity_domain_exits_one(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.json",
            {
                "version": "1",
                "groups": {"Z2": {"kind": "cyclic", "n": 2}},
                "actions": {
                    "bad": {
                        "kind": "set",
                        "group": "Z2",
                        "carrier": ["a", "b"],
                        "domains": {"0": ["a"]},
                        "maps": {"0": {"a": "a"}},
                    }
                },
            },
        )
        assert main(["verify", path]) == 1
        assert "(i)" in capsys.readouterr().out

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_json_format(self, quiver_file, capsys):
        assert main(["verify", quiver_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"]["ok"] is True

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Witnesses name the first failing point in carrier order, so a
        report on string points is the same under every hash seed."""
        points = [f"p{i}" for i in range(8)]
        cycle = {x: points[(i + 1) % 8] for i, x in enumerate(points)}
        actions = {
            # every point fails axiom (iii) in row (1, 1)
            "cycle": {"domains": {"1": points}, "maps": {"1": cycle}},
            # D_e omits five points
            "short": {"domains": {"0": points[5:]}, "maps": {"0": {x: x for x in points[5:]}}},
        }
        for doc in actions.values():
            doc.update({"kind": "set", "group": "Z2", "carrier": points})
        path = write(
            tmp_path,
            "cycle.json",
            {"version": "1", "groups": {"Z2": {"kind": "cyclic", "n": 2}}, "actions": actions},
        )
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "partial_actions", "verify", path, "--format", "json"],
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 1
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "x='p0'" in outputs[0] and "D_e omits 'p0'" in outputs[0]

    @pytest.mark.parametrize("command", ["verify", "globalize"])
    def test_structural_rejection_names_the_action(self, command, tmp_path, capsys):
        doc = json.loads((DATA / "golden_globalize.json").read_text(encoding="utf-8"))
        doc["actions"]["line_z3"]["domains"] = {}
        path = write(tmp_path, "doc.json", doc)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: MalformedInput: map of 1 does not run")
        assert err.rstrip().endswith("(at $.actions.line_z3)")


class TestFactorizeCommand:
    @staticmethod
    def data_rows(out):
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if set(l.strip()) == {"-"}) + 1
        return [l for l in lines[start:] if l.startswith("(")]

    def test_full_table_row_count(self, capsys):
        assert main(["factorize", "--group", "S3", "--subgroup", "(12)"]) == 0
        assert len(self.data_rows(capsys.readouterr().out)) == 18

    def test_whole_group_single_column(self, capsys):
        assert main(["factorize", "--group", "S3", "--subgroup", "(12),(123)"]) == 0
        assert len(self.data_rows(capsys.readouterr().out)) == 6  # |T| = 1

    def test_compare_annotations(self, tmp_path, capsys):
        rows = {"rows": [["(23)", "1", "(23)", "(23)"], ["1", "1", "1", "1"]]}
        compare = write(tmp_path, "claims.json", rows)
        assert main(["factorize", "--group", "S3", "--subgroup", "(12)", "--compare", compare]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "MATCH" in out and "MISSING" in out

    @pytest.mark.parametrize(
        "claims,where",
        [
            ("{}", "$.rows"),
            ("[]", "$.rows"),
            ('{"rows": "none"}', "$.rows"),
            ('{"rows": [["(23)", "1", "(23)"]]}', "$.rows"),
            ('{"rows": [7]}', "$.rows"),
            ('{"rows": [["(23)", "1", ["(23)"], "1"]]}', "$.rows"),
            ("{not json", "$"),
            ('{"rows": [[true, "1", "(23)", "(23)"]]}', "$.rows[0]"),
            ('{"rows": [["1", "1", "1", "1"], ["(23)", false, "(23)", "(23)"]]}', "$.rows[1]"),
            ('{"rows": [["(99)", "1", "1", "1"]]}', "$.rows[0]"),
            ('{"rows": [[99, 0, 0, 0]]}', "$.rows[0]"),
            ('{"rows": [[0, 0, -1, 0]]}', "$.rows[0]"),
            ('{"rows": [["1", "(12)", "1", "1"]]}', "$.rows[0]"),
        ],
    )
    def test_malformed_compare_file_exits_two(self, claims, where, tmp_path, capsys):
        compare = tmp_path / "claims.json"
        compare.write_text(claims, encoding="utf-8")
        argv = ["factorize", "--group", "S3", "--subgroup", "(12)", "--compare", str(compare)]
        assert main(argv) == 2
        assert f"(at {where})" in capsys.readouterr().err

    def test_boolean_row_is_an_unknown_element(self, tmp_path, capsys):
        compare = write(tmp_path, "claims.json", {"rows": [["1"] * 4, [True, "1", "(23)", "(23)"]]})
        argv = ["factorize", "--group", "S3", "--subgroup", "(12)", "--compare", compare]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "input error: UnknownElement: element reference True is neither a name nor "
            "an index (at $.rows[1])\n"
        )

    def test_bad_group_spec_exits_two(self, capsys):
        assert main(["factorize", "--group", "Q8", "--subgroup", ""]) == 2

    def test_cyclic_cap_exits_two(self, capsys):
        assert main(["factorize", "--group", "Z721"]) == 2
        assert "SizeLimit" in capsys.readouterr().err
        assert main(["enumerate", "--group", "Z3000", "--size", "1"]) == 2

    def test_huge_cyclic_document_exits_two(self, tmp_path):
        # Z100000 would be a 10^10-entry table, so the CLI runs in a child
        # with a 1 GiB address-space limit and a timeout: code that builds
        # the table dies there instead of exhausting the machine's memory
        doc = json.loads((DATA / "golden_globalize.json").read_text(encoding="utf-8"))
        doc["groups"]["Z4"]["n"] = 100000
        path = write(tmp_path, "huge.json", doc)
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "partial_actions", "verify", path],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "input error:" in proc.stderr and "(at $.groups.Z4)" in proc.stderr

    def test_rendering_is_stable_across_runs(self, capsys):
        assert main(["factorize", "--group", "S3", "--subgroup", "(12)"]) == 0
        first = capsys.readouterr().out
        assert main(["factorize", "--group", "S3", "--subgroup", "(12)"]) == 0
        assert capsys.readouterr().out == first

    def test_json_output_file(self, tmp_path):
        out_path = tmp_path / "table.json"
        assert (
            main(
                [
                    "factorize",
                    "--group",
                    "Z4",
                    "--subgroup",
                    "2",
                    "--format",
                    "json",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["transversal"] == ["0", "1"]
        assert len(payload["rows"]) == 8


class TestGlobalizeCommand:
    def test_quiver_file(self, quiver_file, capsys):
        assert main(["globalize", quiver_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "algebra"
        assert len(payload["envelope_blocks"]) == 3
        assert all(payload["checks"].values())

    def test_set_action_file(self, set_action_file, capsys):
        assert main(["globalize", set_action_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "set"
        assert len(payload["envelope_blocks"]) == 3
        assert all(payload["checks"].values())

    def test_global_action_is_fixed_point(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "global.json",
            {
                "version": "1",
                "groups": {"Z2": {"kind": "cyclic", "n": 2}},
                "actions": {
                    "swap": {
                        "kind": "set",
                        "group": "Z2",
                        "carrier": ["a", "b"],
                        "domains": {"1": ["a", "b"]},
                        "maps": {"1": {"a": "b", "b": "a"}},
                    }
                },
            },
        )
        assert main(["globalize", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["envelope_blocks"]) == 2

    @pytest.mark.parametrize("fmt,suffix", [("json", "out.json"), ("text", "out.txt")])
    def test_golden_output(self, fmt, suffix, capsys):
        """Line-block, twisted, mixed-label line and single-block actions
        globalize to exactly the recorded output."""
        assert main(["globalize", str(DATA / "golden_globalize.json"), "--format", fmt]) == 0
        expected = (DATA / f"golden_globalize.{suffix}").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command,fmt,suffix", [
        ("globalize", "json", "out.json"), ("globalize", "text", "out.txt"),
        ("verify", "json", "verify.out.json"), ("verify", "text", "verify.out.txt"),
    ])
    def test_relabelled_golden_output(self, command, fmt, suffix, capsys):
        """On Cayley tables whose identity is not element 0 (S3 with e at 5,
        Z4 with e at 3): extensions by zero of one block from every
        subgroup, set actions, lifts and twisted multi-block actions give
        exactly the recorded output."""
        assert main([command, str(DATA / "golden_relabelled.json"), "--format", fmt]) == 0
        expected = (DATA / f"golden_relabelled.{suffix}").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_relabelled_golden_document_is_its_generator_output(self):
        """``make_golden_relabelled.py`` writes the recorded document byte
        for byte, which also pins the order of its enumerated actions."""
        wb = make_golden_relabelled.workbench()
        expected = (DATA / "golden_relabelled.json").read_text(encoding="utf-8")
        assert json.dumps(workbench_to_doc(wb), indent=2) + "\n" == expected

    def test_every_set_check_has_a_json_key(self, z2):
        """The set `checks` block is keyed by each report item's key, the
        keys of the algebra report."""
        spa = enumerate_partial_actions(z2, 2)[-1]
        report = verify_set_globalization(spa, globalize_set(spa))
        algebra = globalize_block_power(lift_set_action(spa)).checks
        keys = ["ideal", "covers", "intersection", "equivariance"]
        assert [item.key for item in report.items] == [item.key for item in algebra.items] == keys

    def test_invalid_action_exits_one(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "invalid.json",
            {
                "version": "1",
                "groups": {"Z4": {"kind": "cyclic", "n": 4}},
                "actions": {
                    "broken": {
                        "kind": "set",
                        "group": "Z4",
                        "carrier": ["a", "b"],
                        "domains": {"1": ["a", "b"], "3": ["a", "b"]},
                        "maps": {"1": {"a": "b", "b": "a"}, "3": {"a": "b", "b": "a"}},
                    }
                },
            },
        )
        assert main(["globalize", path]) == 1
        assert "not a partial action" in capsys.readouterr().out


class TestEnumerateCommand:
    def test_z2_two_points(self, capsys):
        assert main(["enumerate", "--group", "Z2", "--size", "2"]) == 0
        assert "5 partial actions" in capsys.readouterr().out

    def test_trivial_group(self, capsys):
        assert main(["enumerate", "--group", "Z1", "--size", "3"]) == 0
        assert "1 partial action" in capsys.readouterr().out

    def test_z2_one_point(self, capsys):
        assert main(["enumerate", "--group", "Z2", "--size", "1"]) == 0
        assert "2 partial actions" in capsys.readouterr().out

    def test_envelope_sizes(self, capsys):
        """Each reported size, in text and in JSON, is the size of the
        action's envelope from globalize_set."""
        from partial_actions.groups import symmetric_group

        expected = [globalize_set(a).size for a in enumerate_partial_actions(symmetric_group(3), 3)]
        argv = ["enumerate", "--group", "S3", "--size", "3", "--envelopes"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == len(expected) == 458
        for i, (line, size) in enumerate(zip(lines, expected)):
            assert line.startswith(f"#{i}: ") and line.endswith(f"  -> envelope size {size}")
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["envelope_sizes"] == expected
        assert len(set(expected)) > 1

    def test_relabelled_s3_golden_output(self, capsys, monkeypatch):
        """S3 with e at element 5 on three points, in the recorded order and
        with the recorded envelope sizes (the header echoes the group path)."""
        monkeypatch.chdir(DATA)
        argv = ["enumerate", "--group", "group_s3_relabelled.json", "--size", "3", "--envelopes"]
        assert main(argv) == 0
        expected = (DATA / "enumerate_s3_relabelled.out.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_size_limit_exits_two(self, capsys):
        for size in ("9", "-1"):
            assert main(["enumerate", "--group", "Z2", "--size", size]) == 2

    @pytest.mark.parametrize(
        "text,where",
        [
            ('{"kind": "cayley", "table": [[0, 1], [1, 2]]}', "$"),
            ('{"kind": "cyclic", "n": true}', "$.n"),
            ("{not json", "$"),
        ],
    )
    def test_group_file_errors_are_located_at_the_root(self, text, where, tmp_path, capsys):
        group = tmp_path / "group.json"
        group.write_text(text, encoding="utf-8")
        assert main(["enumerate", "--group", str(group), "--size", "1"]) == 2
        assert capsys.readouterr().err.rstrip().endswith(f"(at {where})")

    def test_unreadable_group_file_is_located_at_the_root(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["factorize", "--group", str(missing)]) == 2
        assert capsys.readouterr().err.rstrip().endswith("(at $)")


FILE_ARGUMENTS = {
    "verify": ["verify", "{}"],
    "globalize": ["globalize", "{}"],
    "factorize --group": ["factorize", "--group", "{}"],
    "factorize --compare": ["factorize", "--group", "S3", "--compare", "{}"],
    "enumerate --group": ["enumerate", "--group", "{}", "--size", "1"],
}
FILE_FAULTS = {
    "missing": None,
    "directory": None,
    "not UTF-8": b"\xff\xfe",
    "invalid JSON": b"{bad",
    "nested 100,000 deep": b"[" * 100_000 + b"]" * 100_000,
    "5,000-digit integer": b"9" * 5_000,
}


@pytest.mark.parametrize("fault", FILE_FAULTS)
@pytest.mark.parametrize("argument", FILE_ARGUMENTS)
def test_unreadable_input_file_exits_two_at_the_root(argument, fault, tmp_path, capsys):
    """Every file argument is read by one reader: a file that cannot be
    opened or decoded is bad input at ``$``, never a traceback.  Before, a
    non-UTF-8 file, deep nesting and an over-long integer exited 1 with a
    traceback on every argument, and a missing ``--compare`` file had no
    path."""
    path = tmp_path / "input.json"
    if fault == "directory":
        path.mkdir()
    elif FILE_FAULTS[fault] is not None:
        path.write_bytes(FILE_FAULTS[fault])
    argv = [str(path) if a == "{}" else a for a in FILE_ARGUMENTS[argument]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.endswith("(at $)\n")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_output_fails_before_any_work(tmp_path, capsys):
    """Before, ``verify`` computed every report and then exited 2 with a
    bare ``[Errno 21] Is a directory``, which hid whether the actions
    verified; an unreadable input is not reached."""
    missing, directory = tmp_path / "missing.json", tmp_path / "out"
    directory.mkdir()
    assert main(["verify", str(missing), "--output", str(directory)]) == 2
    assert capsys.readouterr().err == f"input error: cannot write {directory}: Is a directory\n"


def test_failed_run_leaves_the_output_as_it_was(tmp_path, capsys):
    missing, existing, new = tmp_path / "missing.json", tmp_path / "old.txt", tmp_path / "new.txt"
    existing.write_text("earlier report\n", encoding="utf-8")
    for output in (existing, new):
        assert main(["verify", str(missing), "--output", str(output)]) == 2
        assert f"cannot read {missing}" in capsys.readouterr().err
    assert existing.read_text(encoding="utf-8") == "earlier report\n"
    assert not new.exists()


class TestBenchmarkScale:
    """``globalize`` in process on the globalize benchmark's shape: S5 acting
    by left multiplication, restricted to 60 of its 120 elements, as a set
    action and as its lift to 60 blocks with Aut = Z2 and coboundary twists
    c(p) + c(q).  At this size every envelope map is a wreath map within one
    single-class algebra, the constructors' whole-map path."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        import random

        from partial_actions.groups import symmetric_group

        G = symmetric_group(5)
        rng = random.Random(5)
        subset = rng.sample(range(G.order), 60)
        pos = {x: i for i, x in enumerate(subset)}
        c = [rng.randrange(2) for _ in subset]
        n = G.name
        set_doc = {"kind": "set", "group": "S5", "carrier": [n(x) for x in subset],
                   "domains": {}, "maps": {}}
        lift_doc = {"kind": "algebra", "group": "S5", "algebra": "Q60",
                    "domains": {}, "maps": {}, "twists": {}}
        for g in G.elements():
            pairs = [(x, G.mul(g, x)) for x in subset if G.mul(g, x) in pos]
            if not pairs:
                continue
            set_doc["domains"][n(g)] = [n(y) for _, y in pairs]
            set_doc["maps"][n(g)] = {n(x): n(y) for x, y in pairs}
            lift_doc["domains"][n(g)] = sorted(pos[y] for _, y in pairs)
            lift_doc["maps"][n(g)] = {str(pos[x]): pos[y] for x, y in pairs}
            lift_doc["twists"][n(g)] = {str(pos[x]): str((c[pos[x]] + c[pos[y]]) % 2)
                                        for x, y in pairs}
        doc = {
            "version": "1",
            "groups": {"S5": {"kind": "symmetric", "n": 5}, "Z2": {"kind": "cyclic", "n": 2}},
            "algebras": {"Q60": {"blocks": [{"class": "Q", "aut": "Z2"}] * 60}},
            "actions": {"s5_set": set_doc, "s5_lift": lift_doc},
        }
        path = write(tmp_path_factory.mktemp("scale"), "s5.json", doc)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["globalize", path, "--format", "json"])
        return doc, code, json.loads(out.getvalue())

    def test_every_check_passes(self, report):
        _, code, payload = report
        assert code == 0
        for name in ("s5_set", "s5_lift"):
            assert len(payload[name]["envelope_blocks"]) == 120
            assert payload[name]["checks"] == {
                "ideal": True, "covers": True, "intersection": True, "equivariance": True,
            }

    def test_envelopes_restrict_to_their_inputs(self, report):
        doc, _, payload = report
        for name, twisted in (("s5_set", False), ("s5_lift", True)):
            env = payload[name]
            embed = env["embedding"]["position_map"] if twisted else env["embedding"]
            back = {q: p for p, q in embed.items()}
            restricted = {}
            for g, beta in env["action"].items():
                moves = beta["map"] if twisted else beta
                m = {}
                for p, q in embed.items():
                    if moves[str(q)] in back:
                        target = back[moves[str(q)]]
                        m[p] = (int(target), beta["twists"][str(q)]) if twisted else target
                if m:
                    restricted[g] = m
            given = doc["actions"][name]
            if twisted:
                given = {g: {p: (q, given["twists"][g][p]) for p, q in m.items()}
                         for g, m in given["maps"].items()}
            else:
                given = given["maps"]
            assert restricted == given


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", str(DATA / "golden_globalize.json")], 0),
        (["verify", "{broken}"], 1),
        (["factorize", "--group", "S3", "--subgroup", "(12)", "--compare", "{claims}"], 0),
        (["globalize", str(DATA / "golden_globalize.json")], 0),
        (["enumerate", "--group", "S3", "--size", "2", "--envelopes"], 0),
        (["example-s3"], 0),
    ],
)
def test_json_output_is_json_dumps_indent_2(argv, code, tmp_path, capsys, monkeypatch):
    """Every ``--format json`` report is what ``json.dumps(..., indent=2)``
    prints for the same payload."""
    broken = json.loads((DATA / "golden_globalize.json").read_text(encoding="utf-8"))
    broken["actions"]["short_e"] = {  # D_e omits a point: verify exits 1
        "kind": "set", "group": "Z2", "carrier": ["a", "b"],
        "domains": {"0": ["a"]}, "maps": {"0": {"a": "a"}},
    }
    files = {
        "broken": write(tmp_path, "broken.json", broken),
        "claims": write(tmp_path, "claims.json", {"rows": [["(23)", "1", "(23)", "(13)"]]}),
    }
    argv = [arg.format(**files) for arg in argv] + ["--format", "json"]
    oracle_calls = []

    def oracle(obj, write):
        oracle_calls.append(obj)
        write(json.dumps(obj, indent=2))

    outputs = []
    for writer in (cli._write_json, oracle):
        monkeypatch.setattr(cli, "_write_json", writer)
        assert main(argv) == code
        outputs.append(capsys.readouterr().out)
    assert len(oracle_calls) == 1  # the CLI writes through the patched seam
    assert outputs[0] == outputs[1]


class TestExampleCommand:
    def test_beta_section_exit_zero(self, capsys):
        assert main(["example-s3", "--section", "beta"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_table_section_counts(self, capsys):
        assert main(["example-s3", "--section", "table"]) == 0
        out = capsys.readouterr().out
        assert "15 match, 2 mismatch, 1 missing" in out

    def test_all_sections_json(self, capsys):
        assert main(["example-s3", "--section", "all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"]["summary"] == {"match": 15, "mismatch": 2, "missing": 1}
        assert all(row["pass"] for row in payload["beta"])


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_paths(child, prefix + (i,))


GOLDEN_DOC = json.loads((DATA / "golden_globalize.json").read_text(encoding="utf-8"))
GOLDEN_PATHS = list(_json_paths(GOLDEN_DOC))
# wrong types, then out-of-range values: negative, above every size cap
# (cyclic n 720, symmetric n 6, table order 64), unknown names, non-finite
# numbers (Python's json reads Infinity and NaN).  Far larger orders are
# tested in a memory-capped child (test_huge_cyclic_document_exits_two): code
# without the cyclic cap would build their tables in this process.
FUZZ_VALUES = (
    None, True, 1.5, "x", [], {}, [[0]], {"x": 0},
    -1, 0, 721, "no-such-name", float("inf"), float("nan"),
)


def _mutate(doc, path, op, value):
    if not path:
        return value if op == "replace" else {}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if op == "replace":
        parent[last] = value
    elif op == "delete":
        del parent[last]
    elif isinstance(parent, dict):  # rename: the same value under an unknown key
        parent[str(value)] = parent.pop(last)
    else:
        parent.append(parent[last])
    return doc


def _has_false_check(payload):
    if payload is False:
        return True
    if isinstance(payload, dict):
        return any(_has_false_check(v) for v in payload.values())
    if isinstance(payload, list):
        return any(_has_false_check(v) for v in payload)
    return False


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["verify", "globalize"]),
    path=st.sampled_from(GOLDEN_PATHS),
    op=st.sampled_from(["replace", "delete", "rename"]),
    value=st.sampled_from(FUZZ_VALUES),
)
def test_mutated_golden_document(tmp_path_factory, command, path, op, value):
    """Wrong types, missing keys and out-of-range values at every JSON path
    of the golden workbench: nothing raises past main, bad input exits 2 with
    an ``input error:`` line that locates it (a ``$.`` path, or ``$`` when
    the document itself is not an object), and exit 1 comes only with a
    failed check."""
    doc = _mutate(copy.deepcopy(GOLDEN_DOC), path, op, value)
    file = tmp_path_factory.mktemp("fuzz") / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(file), "--format", "json"])
    if code == 2:
        assert err.getvalue().startswith("input error: ")
        assert "(at $." in err.getvalue() or err.getvalue().rstrip().endswith("(at $)")
    else:
        assert code in (0, 1)
        assert code == int(_has_false_check(json.loads(out.getvalue())))


SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,last_line",
    [
        (
            "survey_envelopes.py", ["--max-size", "2"],
            "Z6 on 2 point(s):    24 actions; envelope sizes "
            "{2:2, 3:4, 4:3, 5:2, 6:6, 7:2, 8:2, 9:2, 12:1}",
        ),
        ("quiver_demo.py", [], "result: PASS"),
    ],
)
def test_script_runs(script, args, last_line):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_globalize_of_an_unknown_action_names_it(set_action_file, capsys):
    assert main(["globalize", set_action_file, "--action", "nosuch"]) == 2
    assert capsys.readouterr().err == "input error: no action named 'nosuch' (at $.actions)\n"


def test_text_output_file_holds_the_printed_report(set_action_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["verify", set_action_file]) == 0
    printed = capsys.readouterr().out
    assert main(["verify", set_action_file, "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("command", ["verify", "globalize"])
def test_a_document_with_no_actions_exits_two(command, tmp_path, capsys):
    path = write(tmp_path, "empty.json", {"version": "1", "actions": {}})
    assert main([command, path]) == 2
    assert capsys.readouterr().err == "input error: document contains no actions (at $.actions)\n"
