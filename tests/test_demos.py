"""Smoke test: every demo script runs to completion against the package.

The demos are copied to a temporary directory first, so files they write
(demo 04 writes plot data next to itself) stay out of the source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    copy = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", copy, ignore=shutil.ignore_patterns("output"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(copy / script.name)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
