"""Child process for the traced run: in-process rounds over one workload.

    python3 traced.py PLAN.json SECONDS RESULT.json

Imports ``cqed_lab.cli`` once, then runs rounds over the first input set
until SECONDS have passed (at least one round).  A round runs every
invocation twice, untraced and traced, back to back and in alternating
order, so that a change in machine speed affects both sides alike; the two
sides write to separate pass directories.  The first round's directories
are kept for the output checker; later ones are compared byte for byte
with them and removed.
"""

import json
import os
import shutil
import sys
import time

import checks
import spans
import workloads


def run_step(cli, inv, pass_dir):
    argv, files = workloads.resolve(inv, pass_dir)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    return {"step": inv["step"], "command": inv["command"],
            "compute_s": time.perf_counter() - t0, "rc": rc,
            "argv": argv, "files": files}


def main():
    plan_path, seconds, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from cqed_lab import cli
    tracer = spans.Tracer()
    deadline = time.monotonic() + seconds
    passes, first_digest = [], {}
    while not passes or time.monotonic() < deadline:
        k = len(passes) // 2
        sides = {traced: {"dir": os.path.join(plan["pass_root"],
                                              f"{'traced' if traced else 'untraced'}{k}"),
                          "traced": traced, "steps": []}
                 for traced in (False, True)}
        for side in sides.values():
            os.makedirs(side["dir"])
        for i, inv in enumerate(plan["sets"][0]):
            for traced in ((False, True) if (i + k) % 2 == 0 else (True, False)):
                side = sides[traced]
                if traced:
                    tracer.install()
                try:
                    side["steps"].append(run_step(cli, inv, side["dir"]))
                finally:
                    tracer.uninstall()
        sides[True]["layers"] = spans.layer_metrics(tracer.take())
        for traced, side in sides.items():
            digest = checks.output_digest(side["dir"])
            if traced not in first_digest:
                first_digest[traced] = digest
            else:
                side["same_outputs"] = digest == first_digest[traced]
                shutil.rmtree(side["dir"])
            passes.append(side)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "traced_matches_untraced":
                   first_digest[False] == first_digest[True]}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
