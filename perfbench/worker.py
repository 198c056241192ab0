"""Run one benchmark job in this fresh process and print one JSON line.

Usage: worker.py WORKLOAD JOB SEED WORKDIR SPAWNED TRACE

SPAWNED is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there until `sharpsets.cli` is imported and
the job's inputs are written. The job itself is one in-process call of
`sharpsets.cli.main(argv)` with stdout and stderr captured, with one
`calibrate()` timing just before it and one just after.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import jobs

sys.path.insert(0, str(jobs.SRC))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that touches no sharpsets code.

    The loop (a breadth-first closure of S7 on 7-tuples, then a dict tally)
    exercises the same interpreter paths as the jobs. Run next to a job in
    the same process, it measures how fast the machine is at that moment,
    which on a shared VM drifts by up to 2x over tens of seconds.
    """
    start = time.perf_counter()
    gens = ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))
    for _ in range(CALIBRATION_ROUNDS):
        first = tuple(range(7))
        seen, queue = {first}, [first]
        for cur in queue:
            for g in gens:
                nxt = tuple(map(g.__getitem__, cur))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        tally = {}
        for x in queue:
            key = x[0] * 7 + x[1]
            tally[key] = tally.get(key, 0) + sum(x[:3]) % 5
    return time.perf_counter() - start


CALIBRATION_ROUNDS = 8


def main() -> None:
    workload, job_name, seed, workdir, spawned, trace = sys.argv[1:7]
    job = next(j for j in jobs.WORKLOADS[workload] if j.name == job_name)
    workdir = Path(workdir)

    from sharpsets import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(job_name)
        tracer.install()
    jobs.write_inputs(job, workdir, int(seed))
    argv = jobs.job_argv(job, workdir)
    setup_s = time.monotonic() - float(spawned)

    calibration_before = calibrate()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    calibration_after = calibrate()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": [calibration_before, calibration_after],
        "rc": rc if error is None else error,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
