"""The benchmark's contract with the package, run with the test suite.

perfbench traces public functions of the package by name.  Deleting or
renaming one of them breaks the benchmark's metrics without failing any
other test here, so its self-test runs as one test.  Conversely, a public
function that no module of the package uses and the benchmark does not
trace is reached by tests alone: a second home for a formula.
"""

import glob
import inspect
import json
import os
import re
import subprocess
import sys

from cqed_lab import inference, instrument, model, spectra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    # no bytecode: the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_every_public_function_is_used_or_traced():
    # a use is any occurrence of the name in the package's modules besides
    # its own def and its __all__ entry; classes, the types functions
    # return, are exempt
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        traced = {name.rsplit(".", 1)[0]
                  for name in (m["name"] for m in json.load(fh)["per_layer"])
                  if name.count(".") == 2}
    text = "\n".join(
        open(path).read()
        for path in glob.glob(os.path.join(ROOT, "src", "cqed_lab", "*.py"))
        if os.path.basename(path) != "__init__.py")
    unused = []
    for module in (model, spectra, instrument, inference):
        layer = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            if (inspect.isclass(getattr(module, name))
                    or f"{layer}.{name}" in traced):
                continue
            uses = len(re.findall(rf"\b{name}\b", text))
            if uses <= 2:  # its def and its __all__ entry
                unused.append(f"{layer}.{name}")
    assert unused == []
