"""g recovery on synthetic data from known truth, through the CLI.

A data set is one paper system's benchmark config
(``perfbench/workloads.render_config``) with zero detuning as its only
sweep point, synthesized in-process at one seed: the zero-detuning
spectrum and decay curve that compare-g reads.  :func:`recover` runs
compare-g on each seed's set and returns, per side, g, its reported sigma,
z = (g - truth) / sigma and the fit's flags, with the exit code.  The
tests in ``test_recovery.py`` hold its gates; run as a script, it prints
the summary table for seeds 1-12.
"""

import json
import os
import statistics
import sys
import tempfile

from cqed_lab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

SEEDS = range(1, 13)
SIDES = ("spectral", "dynamical")


def zero_detuning_config(system: str) -> str:
    """The benchmark config of ``system`` with one sweep point, 0 ueV."""
    lines = [line for line in workloads.render_config(system).splitlines()
             if not line.startswith(("delta_min_ueV", "delta_max_ueV",
                                     "delta_step_ueV"))]
    at = lines.index("[sweep]") + 1
    return "\n".join(lines[:at] + ["deltas_ueV = 0"] + lines[at:]) + "\n"


def datasets(root: str, system: str, seeds=SEEDS) -> tuple:
    """The config of ``system`` written under ``root``, and the directory
    ``synthesize`` wrote for each seed."""
    config = os.path.join(root, f"{system}.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(zero_detuning_config(system))
    dirs = {}
    for seed in seeds:
        dirs[seed] = os.path.join(root, f"{system}-{seed}")
        if cli.main(["synthesize", "--config", config, "--out", dirs[seed],
                     "--seed", str(seed), "--quiet"]) != 0:
            raise RuntimeError(f"synthesize failed on {system} seed {seed}")
    return config, dirs


def recover(root: str, system: str, seeds=SEEDS) -> dict:
    """compare-g on each seed's data set: {seed: {"code": exit code, side:
    {"g", "sigma", "z", "flags"}}}; sigma and z are None where the side
    reports no sigma (the dynamical side does not)."""
    truth = workloads.SYSTEMS[system]["g"]
    config, dirs = datasets(root, system, seeds)
    runs = {}
    for seed, data in dirs.items():
        report = os.path.join(data, "report")
        code = cli.main(["compare-g", "--config", config, "--out", report,
                         "--quiet", "--spectrum",
                         os.path.join(data, workloads.spectrum_name(0.0)),
                         "--decay", os.path.join(data, "decay.txt")])
        with open(os.path.join(report, "compare_g.json"),
                  encoding="utf-8") as fh:
            sides = json.load(fh)
        runs[seed] = {"code": code}
        for side in SIDES:
            fit = sides[side]
            g, sigma = fit.get("g_ueV"), fit.get("g_stderr_ueV")
            runs[seed][side] = {
                "g": g, "sigma": sigma,
                "z": None if sigma is None else (g - truth) / sigma,
                "flags": fit.get("messages", [])}
    return runs


def summary(system: str, runs: dict) -> dict:
    """Mean g, its scatter over seeds, z's sd and max |z| where there is a
    sigma, and the number of flagged seeds, per side."""
    out = {"truth": workloads.SYSTEMS[system]["g"]}
    for side in SIDES:
        fits = [run[side] for run in runs.values()]
        g = [fit["g"] for fit in fits]
        z = [fit["z"] for fit in fits if fit["z"] is not None]
        out[side] = {"mean_g": statistics.fmean(g),
                     "scatter": statistics.stdev(g),
                     "z_sd": statistics.stdev(z) if len(z) > 1 else None,
                     "max_abs_z": max(map(abs, z), default=None),
                     "flagged": sum(bool(fit["flags"]) for fit in fits)}
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        for system in workloads.SYSTEMS:
            print(system, json.dumps(summary(system, recover(root, system)),
                                     indent=1))
