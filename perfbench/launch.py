"""Child process that runs the cqed-lab CLI and records its own timings.

    python3 launch.py RECORD.json SUBCOMMAND [ARGS...]
    python3 launch.py RECORD.json --batch PLAN.json

The first form is one lab-user invocation: it imports ``cqed_lab.cli``,
notes the monotonic clock once the import is done (the parent knows when it
spawned the process, so the difference is the start-up time), then times
``cli.main``.  The second form runs a list of argv lists through one
interpreter; the benchmark uses it to synthesize its inputs at set-up.
"""

import sys
import time


def _write(path, record):
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main():
    record_path, argv = sys.argv[1], sys.argv[2:]
    from cqed_lab import cli
    imported_at = time.monotonic()
    record = {"imported_at": imported_at, "module": cli.__file__}
    if argv[:1] == ["--batch"]:
        import json

        import numpy
        import scipy
        with open(argv[1], encoding="utf-8") as fh:
            jobs = json.load(fh)
        rc = 0
        for job in jobs:
            rc = cli.main(job) or rc
        record.update(rc=rc, numpy=numpy.__version__, scipy=scipy.__version__)
        _write(record_path, record)
        return rc
    t0 = time.perf_counter()
    rc = None
    try:
        rc = cli.main(argv)
    finally:
        record.update(rc=rc, compute_s=time.perf_counter() - t0)
        _write(record_path, record)
    return rc


if __name__ == "__main__":
    sys.exit(main())
