import json
from pathlib import Path

import pytest

from partial_actions.cli import _set_check_key, main
from partial_actions.errors import InternalInconsistency
from partial_actions.set_actions import (
    enumerate_partial_actions,
    globalize_set,
    verify_set_globalization,
)

DATA = Path(__file__).parent / "data"


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
        ],
    )
    def test_malformed_compare_file_exits_two(self, claims, where, tmp_path, capsys):
        compare = tmp_path / "claims.json"
        compare.write_text(claims, encoding="utf-8")
        argv = ["factorize", "--group", "S3", "--subgroup", "(12)", "--compare", str(compare)]
        assert main(argv) == 2
        assert f"(at {where})" in capsys.readouterr().err

    def test_bad_group_spec_exits_two(self, capsys):
        assert main(["factorize", "--group", "Q8", "--subgroup", ""]) == 2

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

    def test_every_set_check_has_a_json_key(self, z2):
        """The set `checks` block is keyed by report item name, not position."""
        spa = enumerate_partial_actions(z2, 2)[-1]
        report = verify_set_globalization(spa, globalize_set(spa))
        keys = [_set_check_key(item.name) for item in report.items]
        assert keys == ["ideal", "covers", "intersection", "equivariance"]
        with pytest.raises(InternalInconsistency):
            _set_check_key("an unnamed check")

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
        assert main(["enumerate", "--group", "Z2", "--size", "2", "--envelopes"]) == 0
        out = capsys.readouterr().out
        assert "envelope size" in out

    def test_size_limit_exits_two(self, capsys):
        for size in ("9", "-1"):
            assert main(["enumerate", "--group", "Z2", "--size", size]) == 2


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
