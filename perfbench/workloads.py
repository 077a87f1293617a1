"""Bench-owned configs and the CLI invocations of each workload.

Both paper systems are described here once.  Configs are rendered to text
at set-up (so their hashes can be recorded) and every input file the
program sees is produced from them by ``cqed-lab synthesize`` with a seed
derived from the benchmark's ``--seed``.
"""

from __future__ import annotations

import glob
import hashlib
import os

WAVELENGTH_NM = 930.0
SPECTROMETER_Q = 40000.0
APD_IRF_FWHM_NS = 0.05
PEAK_COUNTS = 1e4

# Rates in ueV; sweeps as (min, max, step) in ueV.
SYSTEMS = {
    "mp": {"g": 22.6, "kappa": 110.0, "gamma": 1.3, "gamma_dp": 6.3,
           "sweep": (-300.0, 300.0, 25.0)},
    "pc": {"g": 92.4, "kappa": 195.0, "gamma": 0.2, "gamma_dp": 4.0,
           "sweep": (-600.0, 600.0, 50.0)},
}

WORKLOADS = ("sweep_fit", "forward_sweep")

# Fit cost depends on the noise realization (a PC pair fit takes 10% more or
# fewer evaluations from one seed to the next), so sweep_fit passes cycle
# through several input sets and a run averages over them.
SETS = {"sweep_fit": 3, "forward_sweep": 1}


def truth_label(system: str) -> str:
    """Crossing/anti-crossing truth from the strong-coupling condition."""
    p = SYSTEMS[system]
    threshold = abs(p["kappa"] - p["gamma"] - 2.0 * p["gamma_dp"]) / 4.0
    return "anti_crossing" if p["g"] > threshold else "crossing"


def render_config(system: str) -> str:
    """Experiment config text for one system, in the CLI's format."""
    p = SYSTEMS[system]
    lo, hi, step = p["sweep"]
    return "\n".join([
        "[system]",
        f"g_ueV = {p['g']}",
        f"kappa_ueV = {p['kappa']}",
        f"gamma_ueV = {p['gamma']}",
        f"gamma_dp_ueV = {p['gamma_dp']}",
        f"wavelength_nm = {WAVELENGTH_NM}",
        "",
        "[sweep]",
        f"delta_min_ueV = {lo}",
        f"delta_max_ueV = {hi}",
        f"delta_step_ueV = {step}",
        "",
        "[spectra]",
        "grid_points = 4096",
        "convolve_irf = true",
        "",
        "[instrument]",
        f"spectrometer_q = {SPECTROMETER_Q}",
        f"temporal_irf_fwhm_ns = {APD_IRF_FWHM_NS}",
        "",
        "[decay]",
        "delta_ueV = 0",
        "",
        "[fit]",
        "decay_mode = multi",
        "coupling_mode = full",
        "",
        "[synthesize]",
        f"peak_counts = {PEAK_COUNTS}",
        "noise = true",
        ""])


def sweep_deltas(system: str) -> list:
    lo, hi, step = SYSTEMS[system]["sweep"]
    n = int(round((hi - lo) / step)) + 1
    return [lo + k * step for k in range(n)]


def spectrum_name(delta: float) -> str:
    """File name the CLI gives the spectrum at detuning ``delta``."""
    return f"spectrum_delta_{delta:+010.3f}ueV.txt"


def set_seed(seed: int, k: int) -> int:
    """CLI seed of input set ``k``; set 0 uses the benchmark seed itself."""
    return seed + 100_000 * k


def _invocations(workload: str, seed: int, inputs: str, configs: str) -> list:
    """The workload's CLI invocations in order, reading inputs from ``inputs``.

    Each is a dict with ``step`` (unique name), ``command`` (subcommand),
    ``system``, ``args`` (``{pass}`` is replaced by the pass directory),
    ``out`` (output subdirectory) and ``files`` (absolute input paths, or a
    ``{pass}`` glob resolved when the step runs).
    """
    def inv(step, command, system, config, files=(), extra=()):
        return {"step": step, "command": command, "system": system,
                "args": [command, "--config", os.path.join(configs, config),
                         "--out", os.path.join("{pass}", step), "--jobs", "1",
                         *extra],
                "out": step, "files": files}

    if workload == "sweep_fit":
        steps = []
        for s in SYSTEMS:
            files = [os.path.join(inputs, s, spectrum_name(d))
                     for d in sweep_deltas(s)]
            steps.append(inv(f"fit_spectra_{s}", "fit-spectra", s, f"{s}.ini",
                             files))
        for s in SYSTEMS:
            steps.append(inv(f"compare_g_{s}", "compare-g", s, f"{s}.ini",
                             extra=("--spectrum",
                                    os.path.join(inputs, s, spectrum_name(0.0)),
                                    "--decay",
                                    os.path.join(inputs, s, "decay.txt"))))
        return steps
    if workload == "forward_sweep":
        steps = [inv(f"simulate_sweep_{s}", "simulate-sweep", s, f"{s}.ini")
                 for s in SYSTEMS]
        steps.append(inv("synthesize_pc", "synthesize", "pc", "pc.ini",
                         extra=("--seed", str(seed))))
        steps.append(inv("deconvolve_pc", "deconvolve", "pc", "pc.ini",
                         files=os.path.join("{pass}", "simulate_sweep_pc",
                                            "spectrum_delta_*ueV.txt")))
        return steps
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, root: str) -> dict:
    """Write the configs under ``root`` and return the workload's plan.

    The plan is plain JSON data: config hashes, set-up synthesize jobs and,
    for each input set, the invocations that read it.  Input files are
    produced by running the jobs.
    """
    configs = os.path.join(root, "configs")
    inputs = os.path.join(root, "inputs")
    os.makedirs(configs, exist_ok=True)
    hashes = {}
    for s in SYSTEMS:
        text = render_config(s)
        with open(os.path.join(configs, f"{s}.ini"), "w", encoding="utf-8") as fh:
            fh.write(text)
        hashes[f"{s}.ini"] = hashlib.sha256(text.encode()).hexdigest()
    # Each synthesize call writes a system's sweep spectra and its
    # zero-detuning decay curve.
    jobs = [["synthesize", "--config", os.path.join(configs, f"{s}.ini"),
             "--out", os.path.join(inputs, f"set{k}", s),
             "--seed", str(set_seed(seed, k)), "--quiet"]
            for k in range(SETS[workload]) if workload == "sweep_fit"
            for s in SYSTEMS]
    sets = [_invocations(workload, set_seed(seed, k),
                         os.path.join(inputs, f"set{k}"), configs)
            for k in range(SETS[workload])]
    return {"workload": workload, "seed": seed, "config_sha256": hashes,
            "synth_jobs": jobs, "sets": sets}


def resolve(invocation: dict, pass_dir: str) -> tuple:
    """(argv, input files) of one invocation for one pass directory."""
    files = invocation["files"]
    if isinstance(files, str):
        files = sorted(glob.glob(files.replace("{pass}", pass_dir)))
    argv = [a.replace("{pass}", pass_dir) for a in invocation["args"]]
    return argv + list(files), list(files)
