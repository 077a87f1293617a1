"""Import-time layer and source size, both measured from outside the package.

``parse`` reads the stderr of ``python -X importtime -c "import cqed_lab.cli"``;
each line is ``import time: <self us> | <cumulative us> | <indented name>``.
"""

from __future__ import annotations

import os

# metric suffix -> module whose cumulative import time it reports
MODULES = {"total_s": "cqed_lab.cli", "scipy_stats_s": "scipy.stats",
           "scipy_optimize_s": "scipy.optimize",
           "scipy_signal_s": "scipy.signal"}


def parse(text: str) -> dict:
    """``import.<suffix>`` -> cumulative seconds; 0.0 for a module not imported.

    A module imported by ``cqed_lab.cli`` is listed once, under whichever
    importer loaded it first, so the cumulative figure is its full cost.
    """
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the column header line
        cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
    if MODULES["total_s"] not in cumulative:
        raise ValueError("importtime output does not list cqed_lab.cli")
    return {f"import.{k}": cumulative.get(mod, 0.0) for k, mod in MODULES.items()}


def src_lines(package_dir: str) -> dict:
    """``<module>.src_lines`` for each module and ``total.src_lines``."""
    out, total = {}, 0
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            n = sum(1 for _ in fh)
        stem = name[:-3].strip("_")
        out[f"{stem}.src_lines"] = n
        total += n
    out["total.src_lines"] = total
    return out
