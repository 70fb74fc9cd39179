"""perfbench's coverage guard, in the test suite: each benchmark workload,
built from a small seed and run in this process under perfbench's own
tracer, must give output that passes its checks and record calls of every
function that its ``expect_calls`` names.  A change that takes a traced
function off a workload's path fails here, not only in a traced benchmark
run."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from partial_actions import cli

sys.path.insert(0, str(Path(__file__).parent.parent))
from perfbench import tracer, workloads  # noqa: E402  (perfbench is not installed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_call_is_recorded(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    trace = tracer.Tracer()
    trace.install()
    outputs = []
    try:
        for argv in workload.invocations:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append(workloads.Output(code, out.getvalue(), err.getvalue()))
    finally:
        trace.uninstall()
    assert [label for label, ok in workload.check(outputs) if not ok] == []
    figures = trace.layer_figures()
    assert [n for n in workload.expect_calls if figures[n]["calls"] == 0] == []
