import copy
import gc
import io
import json
import math
import re
import sys
import tempfile
import tracemalloc
from functools import lru_cache
from pathlib import Path

import oracle_checks
import oracle_documents
import pytest
from hypothesis import given, settings, strategies as st

from partial_actions import cli, documents
from partial_actions.algebra_actions import AlgebraPartialAction
from partial_actions.cli import main
from partial_actions.documents import (
    DocumentError,
    Workbench,
    _write_json,
    _resolve_element,
    algebra_action_to_doc,
    algebra_to_doc,
    group_to_doc,
    load_workbench,
    parse_algebra,
    parse_algebra_action,
    parse_group,
    parse_set_action,
    parse_workbench,
    set_action_to_doc,
    workbench_to_doc,
)
from partial_actions.errors import SizeLimit, UnknownElement
from partial_actions.groups import cyclic_group, make_group, subgroup_closure, symmetric_group
from partial_actions.set_actions import (
    GlobalSetAction,
    SetPartialAction,
    enumerate_partial_actions,
    globalize_set,
)

DATA = Path(__file__).parent / "data"

# a group from each constructor, and one read from a file
BUILT_GROUPS = {
    "cyclic_group": cyclic_group(4),
    "symmetric_group": symmetric_group(3),
    "make_group with names": make_group(cyclic_group(4).table, ["e", "a", "a2", "a3"]),
    "Subgroup.as_group": subgroup_closure(symmetric_group(4), ["(12)", "(34)"]).as_group(),
    "group_s3_relabelled.json": parse_group(json.loads((DATA / "group_s3_relabelled.json").read_text())),
}


class TestGroupDocs:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "symmetric", "n": 3},
            {"kind": "cyclic", "n": 4},
            {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", "s"]},
        ],
    )
    def test_round_trip(self, doc):
        G = parse_group(doc)
        again = parse_group(group_to_doc(G))
        assert again == G
        assert group_to_doc(again) == group_to_doc(G)

    @pytest.mark.parametrize("G", BUILT_GROUPS.values(), ids=BUILT_GROUPS.keys())
    def test_built_group_round_trip(self, G):
        assert parse_group(group_to_doc(G)) == G

    def test_built_groups_round_trip_through_a_workbench(self):
        wb = Workbench(groups=dict(BUILT_GROUPS))
        for name, G in BUILT_GROUPS.items():
            wb.actions[name] = enumerate_partial_actions(G, 2)[-1]
        again = parse_workbench(json.loads(json.dumps(workbench_to_doc(wb))))
        assert again.groups == wb.groups
        assert again.actions == wb.actions

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            parse_group({"kind": "dihedral", "n": 4})

    def test_invalid_table(self):
        with pytest.raises(DocumentError):
            parse_group({"kind": "cayley", "table": [[0, 0], [1, 1]]})

    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (True, "table entry True is not an integer"),
            (1.0, "table entry 1.0 is not an integer"),
            ("1", "table entry '1' is not an integer"),
            (None, "table row must be a list"),
            ({"0": 1}, "table row must be a list"),
        ],
    )
    def test_table_fault_is_named(self, bad, message, at):
        """A row is checked as a whole; the entry or row at fault is named
        with its path, the first one when a row holds two."""
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        i = j = 0 if at == "first" else 3
        if message.startswith("table row"):
            table[i], where = bad, f"$.G.table[{i}]"
        else:
            table[i][j], where = bad, f"$.G.table[{i}][{j}]"
            if at == "first":
                table[i][3] = 2.5  # a later fault in the same row is not named
        with pytest.raises(DocumentError) as got:
            parse_group({"kind": "cayley", "table": table}, "$.G")
        assert (str(got.value), got.value.path) == (f"{message} (at {where})", where)

    @pytest.mark.parametrize("inline", [False, True], ids=["groups", "inline"])
    @pytest.mark.parametrize(
        "gdoc,build,message",
        [
            ({"kind": "symmetric", "n": 7}, lambda: symmetric_group(7),
             "symmetric group cap is n <= 6"),
            ({"kind": "cyclic", "n": 721}, lambda: cyclic_group(721),
             "cyclic group cap is n <= 720"),
            ({"kind": "cayley", "table": [[(i + j) % 65 for j in range(65)] for i in range(65)]},
             lambda: make_group([[(i + j) % 65 for j in range(65)] for i in range(65)]),
             "order 65 exceeds the cap of 64"),
        ],
        ids=["symmetric 7", "cyclic 721", "cayley 65"],
    )
    def test_capped_group_is_refused_at_its_path(self, gdoc, build, message, inline,
                                                 tmp_path, capsys):
        """A group over its constructor's cap is a ``DocumentError`` with
        the ``SizeLimit`` text at the group's path, and ``verify`` exits 2."""
        with pytest.raises(SizeLimit) as cap:
            build()
        assert str(cap.value) == message
        if inline:
            doc = {"actions": {"alpha": {"kind": "set", "group": gdoc, "carrier": []}}}
            where = "$.actions.alpha.group"
        else:
            doc, where = {"groups": {"G": gdoc}}, "$.groups.G"
        with pytest.raises(DocumentError) as got:
            parse_workbench(doc)
        assert (str(got.value), got.value.path) == (f"{message} (at {where})", where)
        assert isinstance(got.value.__cause__, SizeLimit)
        file = tmp_path / "capped.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"input error: {message} (at {where})\n"


class TestSetActionDocs:
    def doc(self):
        return {
            "kind": "set",
            "group": {"kind": "cyclic", "n": 2},
            "carrier": ["a", "b"],
            "domains": {"1": ["a"]},
            "maps": {"1": {"a": "a"}},
        }

    def test_parse(self):
        spa = parse_set_action(self.doc(), {})
        assert spa.domains[1] == frozenset({"a"})
        assert spa.domains[0] == frozenset({"a", "b"})  # identity defaults full

    def test_round_trip(self):
        spa = parse_set_action(self.doc(), {})
        doc2 = set_action_to_doc(spa)
        spa2 = parse_set_action(doc2, {})
        assert spa2 == spa
        assert set_action_to_doc(spa2) == doc2

    def test_shared_group_document(self):
        spa = parse_set_action(self.doc(), {})
        group_doc = group_to_doc(spa.group)
        doc = set_action_to_doc(spa, group_doc)
        assert doc["group"] is group_doc
        assert doc == set_action_to_doc(spa)

    def test_omitted_elements_have_empty_domains(self):
        doc = self.doc()
        del doc["domains"]
        del doc["maps"]
        spa = parse_set_action(doc, {})
        assert spa.domains[1] == frozenset()

    def test_unknown_point(self):
        doc = self.doc()
        doc["domains"]["1"] = ["z"]
        with pytest.raises(DocumentError):
            parse_set_action(doc, {})

    def test_unknown_element_key(self):
        doc = self.doc()
        doc["domains"]["sigma"] = ["a"]
        with pytest.raises(DocumentError):
            parse_set_action(doc, {})

    def test_integer_carrier_points(self):
        doc = {
            "kind": "set",
            "group": {"kind": "cyclic", "n": 2},
            "carrier": [0, 1],
            "domains": {"1": [0, 1]},
            "maps": {"1": {"0": 1, "1": 0}},
        }
        spa = parse_set_action(doc, {})
        assert spa.maps[1] == {0: 1, 1: 0}

    @pytest.mark.parametrize("pairs,key", [({1: 0, "0": 1}, 1), ({"0": 1, True: 0}, True)])
    def test_map_key_that_is_no_string(self, pairs, key):
        """From Python, a map key that is no string is refused, although
        ``str(1)`` names a carrier point; the oracle agrees."""
        doc = {"kind": "set", "group": {"kind": "cyclic", "n": 2}, "carrier": [0, 1],
               "maps": {"1": pairs}}
        message = f"map key {key!r} is not a string (at alpha.maps.1)"
        for parse in (parse_set_action, oracle_documents.parse_set_action):
            with pytest.raises(DocumentError) as err:
                parse(doc, {}, "alpha")
            assert (str(err.value), err.value.path) == (message, "alpha.maps.1")

    @pytest.mark.parametrize("domain,point", [([0, 1, True], True), ([1, 1.0], 1.0)])
    def test_point_equal_to_an_earlier_point_is_checked(self, domain, point):
        """True and 1.0 equal the point 1 but are not it; a set of the domain
        would drop them after 1, so the type check reads every entry."""
        doc = {"kind": "set", "group": {"kind": "cyclic", "n": 2}, "carrier": [0, 1],
               "domains": {"1": domain}}
        message = f"point {point!r} not in the carrier (at alpha.domains.1)"
        for parse in (parse_set_action, oracle_documents.parse_set_action):
            with pytest.raises(DocumentError) as err:
                parse(doc, {}, "alpha")
            assert (str(err.value), err.value.path) == (message, "alpha.domains.1")

    def test_constructor_fault_is_located(self):
        """A caller's str subclass point passes the parser, which matches
        points by equality; the constructor, which also matches their
        types, refuses the plain "a" and the error gets the action's path."""

        class Label(str):
            pass

        doc = {**self.doc(), "carrier": [Label("a"), "b"]}
        with pytest.raises(DocumentError, match=r"^domain of 1 leaves the carrier \(at alpha\)$") as err:
            parse_set_action(doc, {}, "alpha")
        assert err.value.path == "alpha"


K4 = make_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
ENUMERATED_GROUPS = {
    **{f"Z{n}": cyclic_group(n) for n in range(1, 7)},
    "K4": K4,
    "S3": symmetric_group(3),
    "group_s3_relabelled.json": BUILT_GROUPS["group_s3_relabelled.json"],
}


def _docs(actions, memo) -> list:
    """The documents of ``actions`` on one shared group document, through
    one memo (``None`` for none), as ``enumerate --format json`` makes them."""
    group_doc = group_to_doc(actions[0].group)
    return [set_action_to_doc(a, group_doc, _memo=memo) for a in actions]


def _assert_memo_changes_no_text(actions):
    """Compared one document at a time first, so that a failure names the
    first action that differs without diffing megabytes of text."""
    fresh, shared = _docs(actions, None), _docs(actions, {})
    expected = [json.dumps(d, indent=2) for d in fresh]
    assert [json.dumps(d, indent=2) for d in shared] == expected
    assert _json_text(shared) == json.dumps(fresh, indent=2)


class TestSharedActionDocs:
    """With a memo, the documents of one group's actions on one carrier
    share their carrier, equal domains and equal maps; their text is that
    of fresh documents, ``json.dumps`` with or without the memo."""

    @pytest.mark.parametrize("size", range(5))
    @pytest.mark.parametrize("name", ENUMERATED_GROUPS)
    def test_enumerated_actions(self, name, size):
        _assert_memo_changes_no_text(enumerate_partial_actions(ENUMERATED_GROUPS[name], size))

    def test_string_carriers(self):
        Z2, Z3 = cyclic_group(2), cyclic_group(3)
        carrier = ["c", "a", "b"]
        actions = [
            SetPartialAction(Z2, carrier),
            SetPartialAction(Z2, carrier, {1: ["a", "b"]}, {1: {"b": "a", "a": "b"}}),
            SetPartialAction(Z2, carrier, {1: ["c"]}, {1: {"c": "c"}}),
            SetPartialAction(Z2, carrier, {0: ["a"], 1: ["a", "c"]}, {0: {"a": "a"}}),
        ]
        _assert_memo_changes_no_text(actions)
        _assert_memo_changes_no_text(enumerate_partial_actions(Z3, ["x", "é", "a\nb"]))

    def test_equal_maps_with_different_domains(self):
        """Equal maps share one dict and equal domains one list; neither
        memo key stands in for the other."""
        Z2 = cyclic_group(2)
        one = SetPartialAction(Z2, [0, 1], {1: [0]}, {1: {0: 1}})
        other = SetPartialAction(Z2, [0, 1], {1: [0, 1]}, {1: {0: 1}})
        assert one.maps == other.maps and one.domains != other.domains
        _assert_memo_changes_no_text([one, other])
        first, second = _docs([one, other], {})
        assert first["maps"]["1"] is second["maps"]["1"]
        assert first["domains"]["1"] == [0] and second["domains"]["1"] == [0, 1]

    def test_one_document_shares_its_equal_parts(self):
        """Without a memo, equal domains and equal maps share one container
        within the one document."""
        swap, fix = {0: 1, 1: 0}, {0: 0, 1: 1}  # Z4 acting through Z2
        spa = GlobalSetAction(cyclic_group(4), [0, 1], {1: swap, 2: fix, 3: swap})
        doc = set_action_to_doc(spa)
        assert len({id(d) for d in doc["domains"].values()}) == 1
        assert doc["maps"]["0"] is doc["maps"]["2"] and doc["maps"]["1"] is doc["maps"]["3"]
        assert doc["maps"]["0"] is not doc["maps"]["1"]
        assert set_action_to_doc(spa)["carrier"] is not doc["carrier"]

    def test_enumerate_report_shares_each_distinct_part(self):
        """On the enumerate-z6x4 report: one carrier list, one list per
        distinct domain and one dict per distinct map."""
        docs = _z6x4_payload()["actions"]
        assert len(docs) == 1628
        assert len({id(d["carrier"]) for d in docs}) == 1
        for section, distinct in (("domains", 15), ("maps", 202)):
            values = [v for d in docs for v in d[section].values()]
            assert len({id(v) for v in values}) == len({json.dumps(v) for v in values}) == distinct


class TestAlgebraDocs:
    def algebra_doc(self):
        return {
            "blocks": [
                {"class": "L", "aut": {"kind": "cyclic", "n": 2}},
                {"class": "L", "aut": {"kind": "cyclic", "n": 2}},
            ]
        }

    def action_doc(self):
        return {
            "kind": "algebra",
            "group": {"kind": "cyclic", "n": 2},
            "algebra": self.algebra_doc(),
            "domains": {"1": [0, 1]},
            "maps": {"1": {"0": 1, "1": 0}},
            "twists": {"1": {"0": "1", "1": "1"}},
        }

    def test_algebra_round_trip(self):
        A = parse_algebra(self.algebra_doc(), {})
        assert parse_algebra(algebra_to_doc(A), {}) == A

    def test_action_round_trip(self):
        from partial_actions.documents import parse_algebra_action

        pa = parse_algebra_action(self.action_doc(), {}, {})
        doc2 = algebra_action_to_doc(pa)
        pa2 = parse_algebra_action(doc2, {}, {})
        assert pa2 == pa

    def test_twists_default_to_identity(self):
        from partial_actions.documents import parse_algebra_action

        doc = self.action_doc()
        del doc["twists"]
        pa = parse_algebra_action(doc, {}, {})
        assert pa.maps[1].twists == {0: 0, 1: 0}

    def test_support_form_for_domains(self):
        from partial_actions.documents import parse_algebra_action

        doc = self.action_doc()
        doc["domains"]["1"] = {"support": [0, 1]}
        pa = parse_algebra_action(doc, {}, {})
        assert pa.support(1) == frozenset({0, 1})

    def test_bad_position(self):
        from partial_actions.documents import parse_algebra_action

        doc = self.action_doc()
        doc["domains"]["1"] = [0, 7]
        with pytest.raises(DocumentError):
            parse_algebra_action(doc, {}, {})


class TestWorkbench:
    def doc(self):
        return {
            "version": "1",
            "groups": {"G": {"kind": "symmetric", "n": 3}},
            "algebras": {"A": {"blocks": [{"class": "K"}]}},
            "actions": {
                "alpha": {
                    "kind": "set",
                    "group": "G",
                    "carrier": ["p"],
                    "domains": {"(12)": ["p"]},
                    "maps": {"(12)": {"p": "p"}},
                },
                "beta": {
                    "kind": "algebra",
                    "group": "G",
                    "algebra": "A",
                    "domains": {},
                    "maps": {},
                },
            },
        }

    def test_parse_and_resolve(self):
        wb = parse_workbench(self.doc())
        assert wb.groups["G"] == symmetric_group(3)
        assert wb.actions["alpha"].group == wb.groups["G"]
        assert wb.actions["beta"].algebra == wb.algebras["A"]

    def test_round_trip_identity(self):
        wb = parse_workbench(self.doc())
        doc2 = workbench_to_doc(wb)
        wb2 = parse_workbench(doc2)
        assert wb2.groups == wb.groups
        assert wb2.algebras == wb.algebras
        assert wb2.actions["alpha"] == wb.actions["alpha"]
        assert wb2.actions["beta"] == wb.actions["beta"]
        assert workbench_to_doc(wb2) == doc2

    def test_unresolved_reference(self):
        doc = self.doc()
        doc["actions"]["alpha"]["group"] = "H"
        with pytest.raises(DocumentError, match="unknown group"):
            parse_workbench(doc)

    @pytest.mark.parametrize("carrier", [[1, "1"], ["a", 1, "1"]])
    def test_colliding_carrier_points_exit_two(self, carrier, tmp_path, capsys):
        """1 and "1" are distinct points with one JSON key form, so a
        domain or map key could not tell them apart."""
        doc = self.doc()
        doc["actions"]["alpha"] = {"kind": "set", "group": "G", "carrier": carrier}
        message = "carrier points collide at '1' (at $.actions.alpha.carrier)"
        with pytest.raises(DocumentError) as err:
            parse_workbench(doc)
        assert (str(err.value), err.value.path) == (message, "$.actions.alpha.carrier")
        file = tmp_path / "collide.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_bad_version(self):
        doc = self.doc()
        doc["version"] = "99"
        with pytest.raises(DocumentError):
            parse_workbench(doc)

    @pytest.mark.parametrize(
        "section,value,path",
        [
            ("groups", [["G"]], "$.groups"),
            ("actions", [1], "$.actions"),
            ("alpha.domains", [["p"]], "$.actions.alpha.domains"),
            ("alpha.maps", ["p"], "$.actions.alpha.maps"),
            ("alpha.carrier", [["p"]], "$.actions.alpha.carrier[0]"),
            ("beta.domains", [0], "$.actions.beta.domains"),
            ("beta.maps", [{"0": 0}], "$.actions.beta.maps"),
            ("beta.twists", [{"0": "1"}], "$.actions.beta.twists"),
            ("beta.twists", {"(12)": ["1"]}, "$.actions.beta.twists.(12)"),
        ],
    )
    def test_wrong_json_type_exits_two(self, section, value, path, tmp_path, capsys):
        doc = self.doc()
        doc["actions"]["beta"].update(domains={"(12)": [0]}, maps={"(12)": {"0": 0}})
        *parents, key = section.split(".")
        target = doc["actions"][parents[0]] if parents else doc
        target[key] = value
        file = tmp_path / "wrong.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert f"(at {path})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where,value,path",
        [
            ("groups.G.n", 2.5, "$.groups.G.n"),
            ("groups.G.n", True, "$.groups.G.n"),
            ("groups.G.n", "3", "$.groups.G.n"),
            ("groups.G", {"kind": "cayley", "table": [[0, 1], [1.0, 0]]}, "$.groups.G.table[1][0]"),
            ("actions.beta.domains.(12)", [0.7], "$.actions.beta.domains.(12)"),
            ("actions.beta.domains.(12)", [True], "$.actions.beta.domains.(12)"),
            ("actions.beta.maps.(12)", {"0": True}, "$.actions.beta.maps.(12)"),
            ("actions.beta.maps.(12)", {"0": 0.2}, "$.actions.beta.maps.(12)"),
            ("actions.beta.maps.(12)", {"0.0": 0}, "$.actions.beta.maps.(12)"),
            ("actions.beta.twists", {"(12)": {"0": True}}, "$.actions.beta.twists.(12)"),
            ("actions.beta.twists", {"(12)": {"0": None}}, "$.actions.beta.twists.(12)"),
        ],
    )
    def test_non_integer_exits_two(self, where, value, path, tmp_path, capsys):
        # no bool, float or string is read as an integer; map keys are the
        # JSON strings of positions, such as "0"
        doc = self.doc()
        doc["algebras"]["A"]["blocks"][0]["aut"] = {"kind": "cyclic", "n": 2}
        doc["actions"]["beta"].update(domains={"(12)": [0]}, maps={"(12)": {"0": 0}})
        *parents, key = where.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
        file = tmp_path / "coerced.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert "is not an integer" in err and f"(at {path})" in err

    @pytest.mark.parametrize(
        "where,value,path",
        [
            ("actions.alpha.domains.(12)", [True], "$.actions.alpha.domains.(12)"),
            ("actions.alpha.maps.(12)", {"True": "1"}, "$.actions.alpha.maps.(12)"),
            ("groups.H", {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": [True, "s"]},
             "$.groups.H.names[0]"),
            ("groups.H", {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", 2.5]},
             "$.groups.H.names[1]"),
            ("algebras.A.blocks", [{"class": True}], "$.algebras.A.blocks[0].class"),
            ("version", 1, "$.version"),
        ],
    )
    def test_coerced_value_exits_two(self, where, value, path, tmp_path, capsys):
        # with carrier ["True", 1], the domain entry true is not the point
        # "True" and the map value "1" is not the point 1; names, classes
        # and the version are strings, never stringified
        doc = self.doc()
        doc["actions"]["alpha"].update(
            carrier=["True", 1], domains={"(12)": ["True"]}, maps={"(12)": {"True": "True"}}
        )
        *parents, key = where.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
        file = tmp_path / "coerced.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert f"(at {path})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "twists,path",
        [
            ({"0": {"0": "1"}}, "$.actions.beta.twists.0"),
            ({"1": {"7": "1"}}, "$.actions.beta.twists.1"),
        ],
    )
    def test_stray_twist_exits_two(self, twists, path, tmp_path, capsys):
        # a twist for an element without a map, or at a position its map
        # does not move, was dropped: an identity with a twist verified OK
        doc = {
            "version": "1",
            "groups": {"Z2": {"kind": "cyclic", "n": 2}},
            "algebras": {"A": {"blocks": [{"class": "L", "aut": "Z2"}] * 2}},
            "actions": {
                "beta": {
                    "kind": "algebra",
                    "group": "Z2",
                    "algebra": "A",
                    "domains": {"1": [0, 1]},
                    "maps": {"1": {"0": 1, "1": 0}},
                    "twists": twists,
                }
            },
        }
        file = tmp_path / "stray.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert f"(at {path})" in capsys.readouterr().err

    def test_workbench_to_doc_uses_references(self):
        wb = parse_workbench(self.doc())
        doc2 = workbench_to_doc(wb)
        assert doc2["actions"]["alpha"]["group"] == "G"
        assert doc2["actions"]["beta"]["algebra"] == "A"

    @pytest.mark.parametrize(
        "place,path",
        [
            ("groups.G", "$.groups.G"),
            ("groups.H", "$.groups.H"),
            ("actions.alpha.group", "$.actions.alpha.group"),
            ("algebras.A.blocks.0.aut", "$.algebras.A.blocks[0].aut"),
        ],
    )
    def test_repeated_element_name_exits_two(self, place, path, tmp_path, capsys):
        # a group is rejected where it is defined, whether or not an action
        # uses it (G is used by both actions, H by none)
        doc = self.doc()
        *parents, key = place.split(".")
        target = doc
        for name in parents:
            target = target[int(name)] if name.isdigit() else target[name]
        target[key] = {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", "e"]}
        file = tmp_path / "repeated.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"input error: duplicate element name 'e' (at {path})\n"


def _golden_groups() -> list:
    """Every group of the golden documents: named, inline, and the
    automorphism groups of every block."""
    found = []
    for name in ("golden_globalize.json", "golden_relabelled.json"):
        wb = load_workbench(str(DATA / name))
        algebras = [*wb.algebras.values()]
        found += wb.groups.values()
        for action in wb.actions.values():
            found.append(action.group)
            if isinstance(action, AlgebraPartialAction):
                algebras.append(action.algebra)
        found += [b.aut_group for A in algebras for b in A.blocks]
    groups = []
    for G in found:
        if G not in groups:
            groups.append(G)
    return groups


_GOLDEN_GROUPS = _golden_groups()


@st.composite
def _group_and_key(draw):
    G = draw(st.sampled_from(_GOLDEN_GROUPS))
    key = draw(
        st.one_of(
            st.sampled_from(G.names),
            st.tuples(st.sampled_from(G.names), st.sampled_from(" 0a)")).map("".join),
            st.from_regex(r"[0-9]{1,2}", fullmatch=True),
            st.text(max_size=4),
            st.integers(-2, G.order + 2),
            st.booleans(),
        )
    )
    return G, key


def _outcome(resolve, *args):
    try:
        return resolve(*args)
    except DocumentError as exc:
        return str(exc), exc.path


class TestElementResolutionOracle:
    """Resolution through the group against the parser's former name index
    (``oracle_checks``), on every group of the golden documents."""

    def test_golden_groups(self):
        assert len(_GOLDEN_GROUPS) >= 6
        assert any(G.identity != 0 for G in _GOLDEN_GROUPS)

    @settings(max_examples=300, deadline=None)
    @given(_group_and_key())
    def test_element_keys(self, case):
        G, key = case
        path = "$.actions.a.maps"
        got = _outcome(_resolve_element, G, key, path)
        if type(key) is bool:  # the oracle reads a bool as the index it equals
            assert got == (f"unknown group element {key!r} (at {path})", path)
        else:
            index = oracle_checks._name_index(G, path)
            assert got == _outcome(oracle_checks._resolve_element, G, index, key, path)

    @settings(max_examples=300, deadline=None)
    @given(_group_and_key())
    def test_twist_names(self, case):
        aut, ref = case
        ref = str(ref)  # a twist given by name is a string
        path = "$.actions.a.twists.g"
        try:
            got = aut.element_by_name(ref)
        except UnknownElement:
            got = (f"unknown automorphism {ref!r} (at {path})", path)
        assert got == _outcome(oracle_checks.resolve_twist_name, aut, ref, path)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, the infinities and -0.0 included
    st.text(),
    st.sampled_from(["", "\n", "a\r\n\tb", '"\\', "\x00\x1f", "é", "\u2028", "\U0001f600"]),
)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3),
    )


_TREES = st.recursive(_SCALARS, _containers, max_leaves=8)


def _pieces(obj) -> list[str]:
    pieces: list[str] = []
    _write_json(obj, pieces.append)
    return pieces


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``: the pieces of ``_write_json`` joined."""
    return "".join(_pieces(obj))


@lru_cache(maxsize=None)
def _z6x4_payload() -> dict:
    """What ``enumerate --group Z6 --size 4 --envelopes --format json``
    writes, built by the CLI's own call: 1,628 action documents that share
    one group document, one carrier list and their equal domains and maps."""
    G = cyclic_group(6)
    actions = enumerate_partial_actions(G, 4)
    return cli._enumerate_doc(G, actions, [globalize_set(a).size for a in actions])


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps what it is given and counts its writes."""

    def __init__(self):
        self.writes = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


class TestJsonText:
    """The CLI's writer against its oracle, ``json.dumps(obj, indent=2)``."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_json_dumps(self, data):
        # one container placed at depths 1 and 3 and wherever the drawn
        # tree puts it, also inside dicts that json.dumps encodes itself
        shared = data.draw(_containers(_TREES))
        tree = data.draw(st.recursive(_SCALARS | st.just(shared), _containers, max_leaves=16))
        for obj in (shared, [shared, tree, {"at": [shared]}]):
            expected = json.dumps(obj, indent=2)
            assert "".join(_pieces(obj)) == expected

    def test_named_cases(self):
        class Label(str):
            pass

        class Index(int):
            def __repr__(self):
                return "Index()"

        group = {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", "s\n"]}
        cases = [
            [group, {"a": [group, {"b": group}]}, (group,)],
            {"x": {2: [group, {"y": [group]}]}, "z": group},
            {None: 1, True: [], False: {}, 2.5: (), math.nan: [math.inf, -math.inf, -0.0]},
            [Label("é"), Index(3), {Label("k"): Index(4)}],
            [[], {}, (), [[]], {"": {}}],
            [1, "a", None, True, [2, 2.5], 0.5, {"k": False}, -7],
            "top", 3, None, 1.5,
        ]
        for obj in cases:
            expected = json.dumps(obj, indent=2)
            assert "".join(_pieces(obj)) == expected

    # leaf containers: exact scalars only, with strings that hold the item
    # separator, a newline and non-ASCII text
    LEAVES = [
        ["a, b", ", ", "\n", "é日本\U0001f600", "", 0, -7, 10**20, True, False, None],
        ("one",),
        {"a, b": ", ", "\n": "x\ny", "é": "日本", "k": 1, "t": True, "n": None},
        {"only": "\U0001f600"},
    ]

    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("leaf", LEAVES, ids=["list", "tuple", "dict", "one-item dict"])
    def test_leaf_container_at_every_depth(self, leaf, depth):
        """A leaf nested ``depth`` deep, in dicts and lists by turns, is
        written as one piece at its indent."""
        obj = leaf
        for level in range(depth):
            obj = [obj, "a, b"] if level % 2 else {"at": obj, "s": "\n"}
        pieces = _pieces(obj)
        assert "".join(pieces) == json.dumps(obj, indent=2)
        assert json.dumps(leaf, indent=2).replace("\n", "\n" + "  " * depth) in pieces

    def test_shared_leaf_met_at_two_depths(self, monkeypatch):
        """A leaf met three times, at depths 1 and 3, is encoded twice and
        its text reused at the other depth, as any shared container is."""
        leaf = {"a, b": "c\nd", "é": "日本", "n": 3}
        obj = [leaf, {"deep": [leaf]}, leaf]
        encoded = []
        leaf_encoder = documents._leaf_encoder

        def counted(inner):
            encode = leaf_encoder(inner)
            return lambda o: encoded.append(id(o)) or encode(o)

        monkeypatch.setattr(documents, "_leaf_encoder", counted)
        assert _json_text(obj) == json.dumps(obj, indent=2)
        assert encoded.count(id(leaf)) == 2

    @pytest.mark.parametrize(
        "obj",
        [object(), [1, {2, 3}], {"a": [b"bytes"]}, {(1, 2): 0}],
    )
    def test_unserializable_value_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            _write_json(obj, [].append)

    def test_circular_reference_raises_value_error(self):
        loop: list = [1]
        loop.append({"again": loop})
        with pytest.raises(ValueError, match="Circular reference"):
            _write_json(loop, [].append)

    def test_shared_container_is_encoded_at_most_twice(self, monkeypatch):
        group = {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", "s"]}
        obj = [group, {"a": group}, [[group]], group, {"b": [group]}]
        encoded = []
        write_members = documents._write_members

        def counted(o, *args):
            encoded.append(id(o))
            write_members(o, *args)

        monkeypatch.setattr(documents, "_write_members", counted)
        assert _json_text(obj) == json.dumps(obj, indent=2)
        assert encoded.count(id(group)) == 2
        assert encoded.count(id(group["table"])) == 2

    def test_pieces_are_no_longer_than_a_member(self):
        docs = [set_action_to_doc(a) for a in enumerate_partial_actions(symmetric_group(3), 3)]
        docs = docs[:200]
        assert len({json.dumps(d) for d in docs}) == 200
        pieces = _pieces(docs)
        assert "".join(pieces) == json.dumps(docs, indent=2)
        assert max(map(len, pieces)) <= max(len(json.dumps(d, indent=2)) for d in docs)

    def test_cli_makes_few_large_writes(self, monkeypatch):
        """A write-through stdout passes each write on to the raw stream;
        the CLI batches the pieces so that it gets a few large writes."""
        raw = _CountingRaw()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        cli._emit_json(_z6x4_payload(), None)
        stdout.flush()
        expected = (json.dumps(_z6x4_payload(), indent=2) + "\n").encode("utf-8")
        assert bytes(raw.data) == expected
        assert raw.writes <= len(expected) // 4096 + 2

    def test_nothing_outlives_the_call(self):
        """Before, the writer's memo held the text of every container until
        the next cyclic collection: 22.5 MiB on a larger payload."""
        payload = _z6x4_payload()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = _json_text(payload)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert text == json.dumps(payload, indent=2)
        assert left <= sys.getsizeof(text) + 64 * 1024


def _leading_zero_doc(pairs: dict) -> dict:
    """Z2 on eight blocks: the map of 1 is ``pairs``, its domain their images."""
    return {
        "version": "1",
        "groups": {"Z2": {"kind": "cyclic", "n": 2}},
        "algebras": {"A": {"blocks": [{"class": "L", "aut": "Z2"}] * 8}},
        "actions": {
            "beta": {
                "kind": "algebra",
                "group": "Z2",
                "algebra": "A",
                "domains": {"1": sorted(set(pairs.values()))},
                "maps": {"1": pairs},
            }
        },
    }


class TestPositionKeys:
    """A block-position key is the decimal form of its position: ``"01"``
    was read as 1, so that ``{"01": 0, "1": 0}`` kept only the later entry."""

    CASES = [
        ({"00": 0}, "'00'"),
        ({"01": 1}, "'01'"),
        ({"007": 7}, "'007'"),
        ({"0": 1, "01": 0, "1": 0}, "'01'"),
    ]

    @pytest.mark.parametrize("pairs,key", CASES)
    def test_library_rejects(self, pairs, key):
        message = f"block position {key} has a leading zero"
        for parse in (parse_workbench, oracle_documents.parse_workbench):
            with pytest.raises(DocumentError, match=f"^{message} ") as got:
                parse(_leading_zero_doc(pairs))
            assert got.value.path == "$.actions.beta.maps.1"

    @pytest.mark.parametrize("pairs,key", CASES)
    def test_cli_exits_two(self, pairs, key, tmp_path, capsys):
        file = tmp_path / "keys.json"
        file.write_text(json.dumps(_leading_zero_doc(pairs)), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == (
            f"input error: block position {key} has a leading zero (at $.actions.beta.maps.1)\n"
        )

    @pytest.mark.parametrize("pairs,message", [
        ({"1": 0, 1: 1}, "map keys '1' and 1 name block position 1"),
        ({1: 0, "1": 0}, "map keys 1 and '1' name block position 1"),
        ({"0": 2, "1": 0, 0: 3, 1: 1}, "map keys '0' and 0 name block position 0"),
        ({"1": 0, 1: 1, "9": 0}, "block position 9 out of range"),
    ])
    def test_two_keys_of_one_position_are_refused(self, pairs, message):
        """A Python mapping can name one position twice, as "1" and 1; the
        last entry used to stand.  Faults of single entries come first."""
        for parse in (parse_workbench, oracle_documents.parse_workbench):
            with pytest.raises(DocumentError, match=f"^{re.escape(message)} ") as got:
                parse(_leading_zero_doc(pairs))
            assert got.value.path == "$.actions.beta.maps.1"

    def test_decimal_keys_are_read(self):
        for key in ("0", "7"):
            pa = parse_workbench(_leading_zero_doc({key: int(key)})).actions["beta"]
            assert pa.maps[1].position_map == {int(key): int(key)}

    def test_out_of_range_key_of_any_length(self):
        # int() refuses a string of more than 4,300 digits with ValueError
        for key in ("8", "9" * 5000):
            with pytest.raises(DocumentError, match="out of range") as got:
                parse_workbench(_leading_zero_doc({key: 0}))
            assert got.value.path == "$.actions.beta.maps.1"


def _element_key_doc(kind: str, domains: dict, maps: dict) -> dict:
    """Z2 acting on the carrier [0, 1], or on two blocks with Aut Z2, as
    action ``a`` of ``kind`` with the given ``domains`` and ``maps``."""
    action = {"kind": kind, "group": "Z2", "domains": domains, "maps": maps}
    doc = {"version": "1", "groups": {"Z2": {"kind": "cyclic", "n": 2}}, "actions": {"a": action}}
    if kind == "set":
        action["carrier"] = [0, 1]
    else:
        doc["algebras"] = {"A": {"blocks": [{"class": "L", "aut": "Z2"}] * 2}}
        action.update(algebra="A", twists={})
    return doc


class TestElementKeys:
    SWAP = {"0": 1, "1": 0}

    @pytest.mark.parametrize("kind,domains,maps,message,where", [
        ("set", {"1": [0, 1], 1: []}, {}, "element keys '1' and 1 name element 1", "domains"),
        ("set", {1: [], "1": [0, 1]}, {"1": SWAP}, "element keys 1 and '1' name element 1",
         "domains"),
        ("set", {"1": [0, 1]}, {"1": SWAP, 1: SWAP}, "element keys '1' and 1 name element 1",
         "maps"),
        ("set", {"0": [0, 1], 0: [0, 1]}, {}, "element keys '0' and 0 name element 0", "domains"),
        ("set", {"1": [0, 7], 1: []}, {}, "point 7 not in the carrier", "domains.1"),
        ("algebra", {"1": [0, 1], 1: [0, 1]}, {"1": SWAP}, "element keys '1' and 1 name element 1",
         "domains"),
        ("algebra", {"1": [0, 1]}, {"1": SWAP, 1: SWAP}, "element keys '1' and 1 name element 1",
         "maps"),
    ])
    def test_two_keys_of_one_element_are_refused(self, kind, domains, maps, message, where):
        """A Python mapping can name one element twice, as the name "1" and
        the index 1; the last entry used to stand.  Entries are checked in
        document order, so a fault of an earlier entry comes first."""
        for parse in (parse_workbench, oracle_documents.parse_workbench):
            with pytest.raises(DocumentError, match=f"^{re.escape(message)} ") as got:
                parse(_element_key_doc(kind, domains, maps))
            assert got.value.path == f"$.actions.a.{where}"

    @pytest.mark.parametrize("kind", ["set", "algebra"])
    def test_one_key_per_element_is_read(self, kind):
        doc = _element_key_doc(kind, {"1": [0, 1]}, {1: self.SWAP})
        for parse in (parse_workbench, oracle_documents.parse_workbench):
            m = parse(doc).actions["a"].maps[1]
            assert (m if kind == "set" else m.position_map) == {0: 1, 1: 0}


@lru_cache(maxsize=None)
def _seed_documents() -> tuple:
    """(document, its parsed groups and algebras) for the golden documents,
    the parser-corner document and the seed-5 verify-mixed input that
    perfbench writes."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as workdir:
        mixed = workloads.build_verify(5, Path(workdir)).invocations[0][1]
        docs = [json.loads(Path(mixed).read_text(encoding="utf-8"))]
    for name in ("golden_globalize.json", "golden_relabelled.json", "parser_corners.json"):
        docs.append(json.loads((DATA / name).read_text(encoding="utf-8")))
    seeds = []
    for doc in docs:
        wb = parse_workbench({**doc, "actions": {}})
        seeds.append((doc, wb.groups, wb.algebras))
    return tuple(seeds)


def _parsed(parse, *args):
    """The action parse builds, with its document text, or the type,
    message and path of the ``DocumentError`` it raises; any other
    exception propagates."""
    try:
        action = parse(*args)
    except DocumentError as exc:
        return type(exc), str(exc), exc.path
    to_doc = set_action_to_doc if isinstance(action, SetPartialAction) else algebra_action_to_doc
    return action, _json_text(to_doc(action))


def _entry(data, action: dict, section: str):
    """A drawn (container, key) of an entry of one element's list or map in
    ``action[section]``, or None; a domain in the ideal form is entered."""
    entries = [v for v in action.get(section, {}).values() if isinstance(v, (list, dict))]
    entries = [v.get("support") if isinstance(v, dict) and "support" in v else v for v in entries]
    entries = [v for v in entries if isinstance(v, (list, dict)) and v]
    if not entries:
        return None
    container = data.draw(st.sampled_from(entries))
    keys = range(len(container)) if isinstance(container, list) else list(container)
    return container, data.draw(st.sampled_from(keys))


def _other_values(x) -> list:
    """Values that are not the point or position x but may be read as it."""
    if type(x) is int:
        twins = [str(x), float(x)]
    else:
        twins = [int(x) if type(x) is str and x.isascii() and x.isdigit() else 10**6, 1.5]
    return [True, False, *twins, [x], None, "zz", 10**6, -1, x]


def _replace_key(mapping: dict, old: str, new: str) -> None:
    """``mapping`` with the key old renamed new, at its place."""
    items = [(new if k == old else k, v) for k, v in mapping.items()]
    mapping.clear()
    mapping.update(items)


def _rename_element(data, action: dict, G) -> None:
    """An element key of ``domains`` or ``maps`` renamed to one that names
    no element of G: an unknown name, an index out of range (as a name and
    as a Python int), ``"True"`` or ``""``; or to the Python int index of
    the element that a key of the section names, which repeats that
    element unless the key is the one renamed."""
    section = action.get(data.draw(st.sampled_from(["domains", "maps"])), {})
    if section:
        key = data.draw(st.sampled_from(list(section)))
        new = data.draw(st.sampled_from(["zz", str(G.order), G.order, "True", "", "twin"]))
        if new == "twin":
            other = data.draw(st.sampled_from(list(section)))
            new = G.names.index(other) if other in G.names else 0
        _replace_key(section, key, new)


def _mutate_set(data, action: dict, context) -> None:
    what = data.draw(st.sampled_from(["point", "key", "carrier", "mix", "form", "element"]))
    carrier = action.get("carrier")
    if what == "point":  # a domain point or a map value
        found = _entry(data, action, data.draw(st.sampled_from(["domains", "maps"])))
        if found:
            container, k = found
            container[k] = data.draw(st.sampled_from(_other_values(container[k])))
    elif what == "key":  # a string outside the carrier, or a Python int
        found = _entry(data, action, "maps")
        if found and isinstance(found[1], str):
            pairs, k = found
            number = int(k) if k.isascii() and k.isdigit() else 0
            choices = ["zz", "True", "1.0", "01", k + " ", number]
            _replace_key(pairs, k, data.draw(st.sampled_from(choices)))
    elif what == "carrier" and carrier:  # a bad point, or one that collides with another
        i = data.draw(st.integers(0, len(carrier) - 1))
        x = carrier[i]
        carrier[i] = data.draw(st.sampled_from(_other_values(x)))
    elif what == "mix" and carrier:  # a point of the other JSON type, everywhere
        i = data.draw(st.integers(0, len(carrier) - 1))
        x = carrier[i]
        y = str(x) if type(x) is int else 1000 + i
        carrier[i] = y
        for xs in action.get("domains", {}).values():
            if isinstance(xs, list):
                xs[:] = [y if p == x and type(p) is type(x) else p for p in xs]
        for pairs in action.get("maps", {}).values():
            _replace_key(pairs, str(x), str(y))
            for k, v in pairs.items():
                if v == x and type(v) is type(x):
                    pairs[k] = y
    elif what == "form":  # the ideal form is no set-action domain
        domains = action.get("domains", {})
        if domains:
            key = data.draw(st.sampled_from(list(domains)))
            domains[key] = {"support": domains[key]}
    elif what == "element":
        _rename_element(data, action, context)


_ABSENT = object()  # a twist drawn to be taken out


def _mutate_algebra(data, action: dict, context) -> None:
    G, algebra = context
    n = algebra.n_blocks
    kinds = ["position", "key", "twist", "stray", "form", "int key", "image", "element"]
    maps = action.get("maps", {})
    if any(type(k) is not str for m in maps.values() if isinstance(m, dict) for k in m):
        kinds = [k for k in kinds if k not in ("key", "twist")]  # these need str keys
    what = data.draw(st.sampled_from(kinds))
    if what == "position":  # a domain position or a map value
        found = _entry(data, action, data.draw(st.sampled_from(["domains", "maps"])))
        if found:
            container, k = found
            container[k] = data.draw(st.sampled_from(_other_values(container[k]) + [n, n + 3, 0]))
    elif what == "key":
        found = _entry(data, action, "maps")
        if found:
            pairs, k = found
            new = data.draw(st.sampled_from(
                ["0" + k, "00", "007", str(n), "-1", "0.0", " 1", "x", k + "0", "1" * 5, "0"]
            ))
            if new not in pairs:
                _replace_key(pairs, k, new)
    elif what == "twist":  # missing, by integer index, by name, or no automorphism
        found = _entry(data, action, "maps")
        if found:
            pairs, k = found
            key = next(g for g, m in action["maps"].items() if m is pairs)
            twists = action.setdefault("twists", {}).setdefault(key, {})
            p = int(k) if k.isascii() and k.isdigit() and int(k) < n else 0
            aut = algebra.blocks[p].aut_group
            choices = [*range(-1, aut.order + 1), *aut.names, "zz", True, None, 1.5, _ABSENT]
            ref = data.draw(st.sampled_from(choices))
            if ref is _ABSENT:
                twists.pop(k, None)
            else:
                twists[k] = ref
    elif what == "stray":  # a twist at a position the map leaves, or for no map
        maps = action.get("maps", {})
        key = data.draw(st.sampled_from(G.names))
        where = data.draw(st.sampled_from([str(p) for p in range(n)] + ["01"]))
        if key not in maps or where not in maps[key]:
            action.setdefault("twists", {}).setdefault(key, {})[where] = G.names[0]
    elif what == "form":  # a position list to the ideal form and back
        domains = action.get("domains", {})
        if domains:
            key = data.draw(st.sampled_from(list(domains)))
            d = domains[key]
            wrapped = isinstance(d, dict) and "support" in d
            domains[key] = d["support"] if wrapped else {"support": d}
    elif what == "int key":  # the key as a Python int or bool, for or beside its string
        found = _entry(data, action, "maps")
        if found:
            pairs, k = found
            digits = isinstance(k, str) and k.isascii() and k.isdigit()
            new = data.draw(st.sampled_from([int(k) if digits else 0, True, False, -1, n]))
            beside = data.draw(st.booleans())  # "1" and 1 name one position
            if beside:
                pairs[new] = pairs[k]
            elif new not in pairs:
                _replace_key(pairs, k, new)
            twists = action.get("twists", {}).get(
                next(g for g, m in maps.items() if m is pairs), {})
            if isinstance(twists, dict) and k in twists and data.draw(st.booleans()):
                if beside:
                    twists[new] = twists[k]
                elif new not in twists:
                    _replace_key(twists, k, new)
    elif what == "image":  # onto an image already used, or swapped onto another class
        found = _entry(data, action, "maps")
        if found and len(found[0]) > 1:
            pairs, k = found
            others = [j for j in pairs if j != k]

            def iso_class(q):
                return algebra.blocks[q].iso_class if type(q) is int and 0 <= q < n else None

            foreign = [j for j in others if iso_class(pairs[j]) != iso_class(pairs[k])]
            j = data.draw(st.sampled_from(foreign or others))
            if data.draw(st.booleans()):  # no bijection
                pairs[k] = pairs[j]
            else:  # a class mismatch when the two images differ in class
                pairs[k], pairs[j] = pairs[j], pairs[k]
    elif what == "element":
        _rename_element(data, action, G)


class TestParserOracle:
    """The whole-structure parser against the per-entry one it replaced
    (``oracle_documents``), on mutations of the golden documents, the
    parser-corner document and a perfbench input: both accept the same
    actions and build equal ones, and reject the rest with the same
    exception type, message and path."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_action(self, data):
        doc, groups, algebras = data.draw(st.sampled_from(_seed_documents()))
        name = data.draw(st.sampled_from(sorted(doc["actions"])))
        action = copy.deepcopy(doc["actions"][name])
        path = f"$.actions.{name}"
        gref = action["group"]
        G = groups[gref] if isinstance(gref, str) else parse_group(gref)
        if action["kind"] == "set":
            mutate, context = _mutate_set, G
            args = (groups, path)
            parsers = (parse_set_action, oracle_documents.parse_set_action)
        else:
            aref = action["algebra"]
            algebra = algebras[aref] if isinstance(aref, str) else parse_algebra(aref, groups)
            mutate, context = _mutate_algebra, (G, algebra)
            args = (groups, algebras, path)
            parsers = (parse_algebra_action, oracle_documents.parse_algebra_action)
        for _ in range(data.draw(st.integers(0, 3))):
            mutate(data, action, context)
        new, old = (_parsed(parse, action, *args) for parse in parsers)
        assert new == old

    def test_seed_documents_parse_alike(self):
        for doc, _, _ in _seed_documents():
            new = parse_workbench(doc)
            assert new == oracle_documents.parse_workbench(doc)
