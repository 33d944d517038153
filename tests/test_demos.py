"""The public API as its consumers see it: every exported name, every demo."""

import glob
import os
import re
import subprocess
import sys

import pytest

import meshdft as md

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
# the users the public API serves: the demos, the acceptance criteria and the benchmark
API_USERS = DEMOS + [
    os.path.join(ROOT, "tests", "test_acceptance.py"),
    os.path.join(ROOT, "tests", "helpers.py"),
] + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))


def test_every_exported_name_resolves():
    assert len(set(md.__all__)) == len(md.__all__)
    calls = set()
    for path in API_USERS:
        with open(path) as f:
            calls.update(re.findall(r"\bmd\.(\w+)", f.read()))
    for name in md.__all__:
        value = getattr(md, name, None)
        assert value is not None, name
        is_error = isinstance(value, type) and issubclass(value, md.MeshDftError)
        assert is_error or name in calls, f"{name} has no caller among the API's users"


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, timeout=120,
        cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
