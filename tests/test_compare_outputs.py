"""The byte-identity check of ``compare_outputs.py``: a checkout matches
itself on the golden documents, and a CLI that prints something else
differs on every run."""

from compare_outputs import ROOT, compare, golden_runs


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
