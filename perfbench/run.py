"""End-to-end benchmark of the cqed-lab CLI on both paper systems.

    python3 perfbench/run.py --workload sweep_fit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up renders the bench-owned
configs and synthesizes the inputs from ``--seed`` under
``.perfbench_work/``.  The load is a closed loop with one caller: each pass
runs the workload's CLI invocations one after another, each as a fresh
``python3`` process with ``--jobs 1``.  After one pass over each input set,
passes repeat while the next one is expected to end within ``--seconds``.
Every exit code and output file is checked; ``attempted`` and ``failed``
count the items of the first cycle, so they depend on the seed alone.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
timed from outside the child processes.  ``--trace 1`` reports the
per-layer metrics: import times from ``-X importtime``, source size, and
spans around every public function of each module, recorded in-process
with each invocation run untraced and traced back to back (the difference
is the tracing overhead).  Every metric is printed by name with its unit;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import importtime
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "cqed_lab")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150.0
IMPORTTIME_REPEATS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SUBCOMMANDS = ("fit-spectra", "compare-g", "simulate-sweep", "synthesize",
               "deconvolve")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(PACKAGE)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, log_path: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``python3 ARGS`` to completion; wall clock and peak RSS from outside."""
    with open(log_path, "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], stdout=log,
                                stderr=log, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "start": start, "end": end,
            "rss_mb": usage.ru_maxrss / 1024.0}


def read_record(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def set_up(workload: str, seed: int, run_dir: str) -> dict:
    """Render configs and synthesize the seeded inputs; return the plan."""
    plan = workloads.prepare(workload, seed, run_dir)
    plan["pass_root"] = os.path.join(run_dir, "passes")
    jobs = os.path.join(run_dir, "synth_jobs.json")
    with open(jobs, "w", encoding="utf-8") as fh:
        json.dump(plan["synth_jobs"], fh)
    record = os.path.join(run_dir, "setup.record.json")
    t0 = time.monotonic()
    res = spawn([os.path.join(HERE, "launch.py"), record, "--batch", jobs],
                os.path.join(run_dir, "setup.log"))
    rec = read_record(record)
    if res["rc"] != 0 or not rec:
        raise BenchError(f"input synthesis failed (exit {res['rc']}); see "
                         f"{os.path.join(run_dir, 'setup.log')}")
    if os.path.dirname(os.path.abspath(rec["module"])) != PACKAGE:
        raise BenchError(f"imported cqed_lab from {rec['module']}, not "
                         f"from {PACKAGE}")
    plan["manifest"] = {
        "workload": workload, "seed": seed,
        "config_sha256": plan["config_sha256"],
        "python": platform.python_version(), "numpy": rec["numpy"],
        "scipy": rec["scipy"], "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "bench_setup_s": time.monotonic() - t0,
    }
    return plan


def tally(checked: list) -> tuple:
    """(attempted, failed, problems) summed over StepCheck objects."""
    return (sum(c.attempted for c in checked), sum(c.failed for c in checked),
            [p for c in checked for p in c.problems])


def quality(checked_steps: list) -> dict:
    """Recovery metrics of one pass: verdicts and g errors against truth."""
    verdicts, spec_err, dyn_err, table = [], [], [], {}
    for inv, chk in checked_steps:
        q, system = chk.quality, inv["system"]
        if "verdict_ok" in q:
            verdicts.append(q["verdict_ok"])
            table[f"{system}.verdict"] = f"{q['verdict']} (truth {q['truth']})"
            table[f"{system}.failed_fits"] = q["failed_fits"]
            table[f"{system}.min_separation_ueV"] = q["min_separation_ueV"]
        for side, errors in (("spectral", spec_err), ("dynamical", dyn_err)):
            if f"g_{side}_err" in q:
                errors.append(q[f"g_{side}_err"])
                table[f"{system}.g_{side}_ueV"] = q[f"g_{side}_ueV"]
                table[f"{system}.g_truth_ueV"] = workloads.SYSTEMS[system]["g"]
    out = {"verdict_ok": statistics.mean(verdicts) if verdicts else None,
           "g_spec_err": statistics.mean(spec_err) if spec_err else None,
           "g_dyn_err": statistics.mean(dyn_err) if dyn_err else None}
    return {"metrics": out, "table": table}


def run_timed(plan: dict, seconds: float, run_dir: str) -> dict:
    """Fresh-process passes within ``seconds``; end-to-end metrics.

    Pass k reads input set k mod len(sets).  The first cycle, one pass per
    input set, always runs; another pass starts only if, taking as long as
    the last one, it ends within ``seconds``.
    """
    records = os.path.join(run_dir, "records")
    os.makedirs(records)
    sets = plan["sets"]
    start = time.monotonic()
    passes, first_digest = [], {}
    while len(passes) < len(sets) or (time.monotonic() - start
                                      + passes[-1]["seconds"] <= seconds):
        k, t0 = len(passes), time.monotonic()
        invocations = sets[k % len(sets)]
        pass_dir = os.path.join(plan["pass_root"], f"pass{k}")
        os.makedirs(pass_dir)
        steps = []
        for inv in invocations:
            argv, files = workloads.resolve(inv, pass_dir)
            record = os.path.join(records, f"{k}-{inv['step']}.json")
            res = spawn([os.path.join(HERE, "launch.py"), record, *argv],
                        os.path.join(pass_dir, f"{inv['step']}.log"))
            rec = read_record(record)
            res.update(step=inv["step"], command=inv["command"], argv=argv,
                       files=files, wall_s=res["end"] - res["start"],
                       setup_s=rec.get("imported_at", res["end"]) - res["start"],
                       compute_s=rec.get("compute_s"), recorded=bool(rec))
            steps.append(res)
        seconds_taken = time.monotonic() - t0
        checked = [(inv, checks.check_step(inv, pass_dir, s["argv"], s["files"],
                                           s["rc"]))
                   for inv, s in zip(invocations, steps)]
        digest = checks.output_digest(pass_dir)
        same = first_digest.setdefault(k % len(sets), digest) == digest
        if k > 0:
            shutil.rmtree(pass_dir)
        passes.append({"steps": steps, "checked": checked, "same": same,
                       "seconds": seconds_taken})
    return summarize_timed(passes, len(sets))


def summarize_timed(passes: list, cycle: int) -> dict:
    """Metrics of the timed passes; items are counted over the first cycle.

    How many passes fit in the run depends on the host's speed, but later
    passes repeat inputs of the first cycle and must produce the same
    outputs, so ``attempted`` and ``failed`` depend on the seed only.
    """
    steps = [s for p in passes for s in p["steps"]]
    if not all(s["recorded"] for s in steps):
        raise BenchError("a CLI child exited without its timing record; see "
                         "the step logs under .perfbench_work")
    attempted, failed, _ = tally([c for p in passes[:cycle]
                                  for _, c in p["checked"]])
    problems = tally([c for p in passes for _, c in p["checked"]])[2]
    if not all(p["same"] for p in passes):
        problems.append("outputs differ between passes on the same inputs")
    per_pass_wall = [sum(s["wall_s"] for s in p["steps"]) for p in passes]
    per_pass_compute = [sum(s["compute_s"] for s in p["steps"]) for p in passes]
    metrics = {
        "wall_s": statistics.median(per_pass_wall),
        "setup_s": statistics.median(s["setup_s"] for s in steps),
        "peak_rss_mb": max(s["rss_mb"] for s in steps),
        "ok_frac": 1.0 - failed / attempted,
    }
    report = {"passes": len(passes), "failed_frac": failed / attempted,
              "compute_s": statistics.median(per_pass_compute),
              "pass_wall_s": per_pass_wall, "pass_compute_s": per_pass_compute}
    for cmd in SUBCOMMANDS:
        per_pass = [sum(s["compute_s"] for s in p["steps"] if s["command"] == cmd)
                    for p in passes]
        if any(per_pass):
            report[cmd.replace("-", "_") + "_s"] = statistics.median(per_pass)
    rec = quality(passes[0]["checked"])
    report.update({k: v for k, v in rec["metrics"].items() if v is not None})
    return {"metrics": metrics, "report": report, "recovery": rec["table"],
            "attempted": attempted, "failed": failed, "problems": problems}


def run_traced(plan: dict, seconds: float, run_dir: str) -> dict:
    """Import-time, source-size and span metrics; in-process traced passes."""
    values = importtime.src_lines(PACKAGE)
    samples = []
    for k in range(IMPORTTIME_REPEATS):
        log = os.path.join(run_dir, f"importtime{k}.log")
        res = spawn(["-X", "importtime", "-c", "import cqed_lab.cli"], log)
        if res["rc"] != 0:
            raise BenchError(f"import cqed_lab.cli failed; see {log}")
        with open(log, encoding="utf-8") as fh:
            samples.append(importtime.parse(fh.read()))
    for key in samples[0]:
        values[key] = statistics.median(s[key] for s in samples)

    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    result_path = os.path.join(run_dir, "traced.result.json")
    res = spawn([os.path.join(HERE, "traced.py"), plan_path, str(seconds),
                 result_path], os.path.join(run_dir, "traced.log"),
                timeout=seconds + CHILD_TIMEOUT_S)
    result = read_record(result_path)
    if res["rc"] != 0 or not result:
        raise BenchError(f"traced run failed (exit {res['rc']}); see "
                         f"{os.path.join(run_dir, 'traced.log')}")
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    checked = []
    for p in (untraced[0], traced[0]):
        checked += [checks.check_step(inv, p["dir"], s["argv"], s["files"], s["rc"])
                    for inv, s in zip(plan["sets"][0], p["steps"])]
    attempted, failed, problems = tally(checked)
    if not result["traced_matches_untraced"]:
        problems.append("traced and untraced outputs differ")
    if not all(p.get("same_outputs", True) for p in passes):
        problems.append("outputs differ between passes on the same inputs")

    def compute(p):
        return sum(s["compute_s"] for s in p["steps"])

    values["compute_s"] = statistics.median(map(compute, untraced))
    values["trace.traced_compute_s"] = statistics.median(map(compute, traced))
    values["trace.overhead_s"] = (values["trace.traced_compute_s"]
                                  - values["compute_s"])
    for cmd in SUBCOMMANDS:
        values[cmd.replace("-", "_") + "_s"] = statistics.median(
            sum(s["compute_s"] for s in p["steps"] if s["command"] == cmd)
            for p in untraced)
    layers = [p["layers"] for p in traced]
    for key in set().union(*layers):
        values[key] = statistics.median(lay.get(key, 0) for lay in layers)
    for fitter in ("inference.fit_lorentzian_pair", "inference.fit_decay",
                   "inference.fit_jc_cavity_spectrum"):
        calls = values.get(f"{fitter}.calls", 0)
        converged = values.pop(f"{fitter}.converged", 0)
        components = values.pop(f"{fitter}.components", 0)
        values[f"{fitter}.converged_ratio"] = converged / calls if calls else 0.0
        values[f"{fitter}.components"] = components / converged if converged else 0.0
    return {"metrics": values, "report": {"untraced_passes": len(untraced),
                                          "traced_passes": len(traced)},
            "recovery": {}, "attempted": attempted, "failed": failed,
            "problems": problems}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
            raise BenchError(f"no cqed_lab sources at {PACKAGE}; run from the "
                             "root of a source checkout")
        spec = load_spec()
        run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        plan = set_up(args.workload, args.seed, run_dir)
        run = (run_traced if args.trace else run_timed)(plan, args.seconds,
                                                        run_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]
               and not m["name"].startswith(("cli.", "model.", "spectra.",
                                             "instrument.", "inference."))]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": run["metrics"].get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}

    print(f"manifest: {json.dumps(plan['manifest'], sort_keys=True)}")
    for name, value in sorted(run["report"].items()):
        print(f"report {name} = {value}")
    for name, value in sorted(run["recovery"].items()):
        print(f"recovery {name} = {value}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    result = {"correct": not run["problems"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", os.path.basename(run_dir) + ".json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "manifest": plan["manifest"], "report": run["report"],
                   "recovery": run["recovery"], "problems": run["problems"]},
                  fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
