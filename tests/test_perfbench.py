"""The benchmark's tracer can still wrap every layer boundary it names.

``perfbench/spans.py`` wraps functions and methods of ``knotopt`` by name
(``harness.write_rows``, ``spg.minimize_y``, ...).  Renaming one of them
breaks only the traced benchmark run, so this test instruments a fresh
import of the package and restores it, in a subprocess that imports both
from the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import types

import knotopt
import spans

modules = [m for m in vars(knotopt).values() if isinstance(m, types.ModuleType)]
owners = modules + [v for m in modules for v in vars(m).values()
                    if isinstance(v, type) and v.__module__.startswith("knotopt")]
before = [(owner, key, value) for owner in owners
          for key, value in list(vars(owner).items())]
tracer = spans.Tracer()
tracer.instrument(knotopt)
wrapped = [key for owner, key, value in before if vars(owner).get(key) is not value]
assert {"write_rows", "minimize_y", "project", "grad"} <= set(wrapped), wrapped
tracer.restore()
left = [key for owner, key, value in before if vars(owner).get(key) is not value]
assert not left, f"restore() left wrappers on {left}"
"""


def test_tracer_instruments_and_restores_knotopt():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run([sys.executable, "-B", "-c", SCRIPT], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
