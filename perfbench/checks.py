"""Output checker: every exit code and every file a workload step writes.

A step's items are its input files (or sweep points), its classification,
its compare-g sides and its own exit.  An item fails when the program
reports the failure (a per-file error, an unavailable side, a non-zero exit)
or when its output does not check out.  Outputs that are missing, do not
parse, hold non-finite values, have the wrong row count, or disagree with
the exit code are *problems*: they make the run incorrect, not just failed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import workloads

LABELS = ("crossing", "anti_crossing")


@dataclass
class StepCheck:
    """Outcome of checking one invocation's outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def item(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def read_table(path: str) -> tuple:
    """Header metadata and numeric rows of a cqed-lab column text file.

    Raises ValueError on a malformed or non-finite row.
    """
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = val.strip()
                continue
            row = [float(tok) for tok in line.split()]
            if len(row) < 2 or not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path}: bad data row {line!r}")
            rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{path}: fewer than two samples")
    return meta, rows


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: str) -> list:
    """Data rows of a CLI CSV file (after its comment and header lines)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing format or header line")
    return [ln.split(",") for ln in lines[2:]]


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_fit_spectra(chk, out, files, rc, system):
    verdict = read_json(os.path.join(out, "verdict.json"))
    rows = _csv_rows(os.path.join(out, "sweep_records.csv"))
    n_rec, n_fail = verdict["n_records"], verdict["n_failures"]
    if n_rec + n_fail != len(files):
        chk.problems.append(f"verdict counts {n_rec}+{n_fail} != "
                            f"{len(files)} inputs")
    if len(rows) != n_rec:
        chk.problems.append(f"sweep_records.csv has {len(rows)} rows, "
                            f"verdict says {n_rec}")
    for row in rows:
        if len(row) != 10 or not _finite([float(v) for v in row[1:]]):
            chk.problems.append(f"bad sweep record {row!r}")
            break
    label = verdict["label"]
    classified = label in LABELS
    if classified and not _finite([verdict["min_separation_ueV"],
                                   verdict["threshold_ueV"]]):
        chk.problems.append("verdict separation/threshold not finite")
    elif not classified and label != "unclassified":
        chk.problems.append(f"unknown verdict label {label!r}")
    for k in range(len(files)):
        chk.item(k >= n_fail)
    chk.item(classified)
    if (rc == 0) != (n_fail == 0 and classified):
        chk.problems.append(f"exit code {rc} disagrees with {n_fail} failures")
    chk.quality = {"verdict": label, "truth": workloads.truth_label(system),
                   "verdict_ok": float(label == workloads.truth_label(system)),
                   "failed_fits": n_fail,
                   "min_separation_ueV": verdict.get("min_separation_ueV")}


def _check_compare_g(chk, out, args, rc, system):
    report = read_json(os.path.join(out, "compare_g.json"))
    truth = workloads.SYSTEMS[system]["g"]
    all_ok = True
    for side, flag in (("spectral", "--spectrum"), ("dynamical", "--decay")):
        info = report[side]
        if flag not in args:
            if info.get("available"):
                chk.problems.append(f"{side} side present but not requested")
            continue
        ok = bool(info.get("available"))
        if ok:
            g = info["g_ueV"]
            if not (_finite([g]) and g > 0):
                chk.problems.append(f"{side} g not finite and positive: {g!r}")
                ok = False
            else:
                chk.quality[f"g_{side}_ueV"] = g
                chk.quality[f"g_{side}_err"] = abs(g - truth) / truth
        elif not info.get("error"):
            chk.problems.append(f"{side} side unavailable without an error")
        chk.item(ok)
        all_ok = all_ok and ok
    if (rc == 0) != all_ok:
        chk.problems.append(f"exit code {rc} disagrees with available sides")


def _check_simulate_sweep(chk, out, rc, system):
    deltas = workloads.sweep_deltas(system)
    rows = _csv_rows(os.path.join(out, "sweep.csv"))
    if len(rows) != len(deltas):
        chk.problems.append(f"sweep.csv has {len(rows)} rows for "
                            f"{len(deltas)} detunings")
    for row in rows:
        vals = [float(v) for v in row]
        if len(vals) != 3 or not _finite(vals[:2]):
            chk.problems.append(f"bad sweep row {row!r}")
            break
    for d in deltas:
        _, data = read_table(os.path.join(out, workloads.spectrum_name(d)))
        chk.item(len(data) == 4096)
    if rc != 0:
        chk.problems.append(f"simulate-sweep exited {rc}")


def _check_synthesize(chk, out, rc, system):
    names = [workloads.spectrum_name(d) for d in workloads.sweep_deltas(system)]
    for name in names + ["decay.txt"]:
        _, data = read_table(os.path.join(out, name))
        read_json(os.path.join(out, name.replace(".txt", "_truth.json")))
        chk.item(min(row[1] for row in data) >= 0)
    if rc != 0:
        chk.problems.append(f"synthesize exited {rc}")


def _check_deconvolve(chk, out, files, rc, system):
    if len(files) != len(workloads.sweep_deltas(system)):
        chk.problems.append(f"deconvolve got {len(files)} input files")
    for path in files:
        base = os.path.splitext(os.path.basename(path))[0]
        target = os.path.join(out, base + "_deconvolved.txt")
        if not os.path.exists(target):
            if rc == 0:
                chk.problems.append(f"{target} missing after exit 0")
            chk.item(False)
            continue
        _, data = read_table(target)
        _, source = read_table(path)
        if len(data) != len(source):
            chk.problems.append(f"{target}: {len(data)} rows for "
                                f"{len(source)} input rows")
        chk.item(True)


def check_step(invocation: dict, pass_dir: str, argv: list, files: list,
               rc) -> StepCheck:
    """Check one invocation's exit code and outputs in ``pass_dir``."""
    chk = StepCheck()
    out = os.path.join(pass_dir, invocation["out"])
    command, system = invocation["command"], invocation["system"]
    try:
        if command == "fit-spectra":
            _check_fit_spectra(chk, out, files, rc, system)
        elif command == "compare-g":
            _check_compare_g(chk, out, argv, rc, system)
        elif command == "simulate-sweep":
            _check_simulate_sweep(chk, out, rc, system)
        elif command == "synthesize":
            _check_synthesize(chk, out, rc, system)
        elif command == "deconvolve":
            _check_deconvolve(chk, out, files, rc, system)
        else:
            chk.problems.append(f"no checker for {command!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        chk.problems.append(f"{invocation['step']}: {type(exc).__name__}: {exc}")
        chk.item(False)
    chk.item(rc == 0)
    return chk


def output_digest(pass_dir: str) -> dict:
    """relative path -> sha256 of every output file under ``pass_dir``.

    Console logs (``*.log``) are excluded: they are not program outputs.
    """
    import hashlib
    digest = {}
    for root, _, names in os.walk(pass_dir):
        for name in names:
            if name.endswith(".log"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, pass_dir)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digest
