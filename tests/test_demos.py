"""Each demo runs to the end: exit 0 and nothing on stderr, so a public
name removed from the package cannot leave a demo broken."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == "", done.stderr
