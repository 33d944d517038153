"""The public API as its consumers see it: every exported name, every demo."""

import glob
import os
import subprocess
import sys

import pytest

import meshdft as md

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_every_exported_name_resolves():
    assert len(set(md.__all__)) == len(md.__all__)
    for name in md.__all__:
        assert getattr(md, name, None) is not None, name


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
