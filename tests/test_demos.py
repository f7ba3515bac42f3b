"""Smoke test: every demo script and README's library example run to completion.

Each runs as ``python -W error``, so a warning fails it as it would fail an
in-process test.  The demos are copied to a temporary directory first, so
files they write (demo 04 writes plot data next to itself) stay out of the
source tree.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_strict(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", str(script)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    copy = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", copy, ignore=shutil.ignore_patterns("output"))
    result = run_strict(copy / script.name, tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library usage", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0],
                         flags=re.DOTALL)
    script = tmp_path / "library_usage.py"
    script.write_text(block)
    result = run_strict(script, tmp_path)
    assert result.returncode == 0, result.stderr
