"""The narrative scripts in demos/ run and reach their verdicts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hetindex

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# as in test_cli.run_cli: the child imports the package under test
PACKAGE_ROOT = str(Path(hetindex.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script, verdict", [
    ("rotating_line.py", r"index: 1"),
    ("kernel_coincidence.py", r"lambda = 0\.8:\s+kernel dim 1\s.*"),
    ("maslov_crossings.py",
     r"graphs of t and -t:\s+maslov -1\s+z2 1\s+agree: True"),
    ("maslov_crossings.py",
     r"cubic against zero:\s+maslov -1\s+z2 1\s+agree: True"),
    ("maslov_crossings.py",
     r"\s+crossing at t =\s+\S+\s+kernel dim 2\s+signature \+0"),
    ("poschl_teller_theorem.py", r"agree: True"),
    ("cubic_bifurcation.py", r"bifurcates: True"),
])
def test_demo_script(script, verdict, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(DEMOS / script)],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert sum(bool(re.fullmatch(verdict, ln)) for ln in lines) == 1, \
        res.stdout
