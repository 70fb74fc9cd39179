"""The scripts that the README names run from the source tree
(``PYTHONPATH=src``), exit 0 and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/survey_envelopes.py", "--max-size", "2"],
    ["scripts/quiver_demo.py"],
], ids=["survey_envelopes", "quiver_demo"])
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
