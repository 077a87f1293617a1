"""The benchmark's own self-test, run with the test suite.

perfbench traces public functions of the package by name.  Deleting or
renaming one of them breaks the benchmark's metrics without failing any
other test here, so its self-test runs as one test.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    # no bytecode: the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
