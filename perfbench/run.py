"""Benchmark runner: time to verdict for the sharpsets command line.

    python3 perfbench/run.py --workload verify-enum --seed 1 --seconds 20 --trace 0

Every job runs in a fresh worker process (see worker.py) as one in-process
call of `sharpsets.cli.main`, one job at a time: a closed loop with one
client. Each job runs once; then, until `--seconds` have passed, the job
with the largest cost per sample so far runs again, among those whose last
cost still fits in the time left, so heavy jobs get more than one sample.
Every report is checked (jobs.Checker) outside the timed region.

With `--trace 0` the last line of stdout carries the end-to-end metrics:
`wall_s` (sum over jobs of the median job time, i.e. the time to every
verdict), `peak_rss_mb` (largest median peak RSS of a job's process) and
`setup_s` (median time from process start until `sharpsets.cli` is imported
and the inputs are written). With `--trace 1` each job is sampled untraced
and traced in turn, and the last line carries the per-layer numbers of the
traced samples (tracer.py) and the tracing overhead.

Every time is scaled to a reference machine speed: the worker times a fixed
loop (worker.calibrate) just before and just after the job, and the
sample's times are multiplied by REFERENCE_CALIBRATION_S over the mean of
the two. On a shared VM whose speed drifts by up to 2x, this keeps two sets
of runs comparable; the unscaled medians are printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs
import tracer

BENCH = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 120
# worker.calibrate() takes about this long on an unloaded 2-core x86-64 VM
# with Python 3.11; every time is scaled to that speed (see README).
REFERENCE_CALIBRATION_S = 0.1

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in tracer.SELF_METRICS.values()}
    units.update({f"{layer}.self_s": "s" for layer in tracer.LAYERS if layer != "cli"})
    units.update({name: "count" for name in tracer.COUNT_METRICS})
    units["sharp_search.nodes_per_s"] = "1/s"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"})
    return units


def quartiles(values):
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def lower_median_index(values) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def run_sample(workload, job, seed, workdir, traced, checker) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, job.name, str(seed),
           str(workdir), repr(spawned), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                              cwd=jobs.ROOT)
    except subprocess.TimeoutExpired:
        return {"cost_s": time.monotonic() - spawned, "problems": [f"timed out after {WORKER_TIMEOUT_S} s"]}
    cost_s = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"cost_s": cost_s, "problems": [f"worker exited {proc.returncode}: {tail[0]}"]}
    sample = json.loads(lines[-1])
    sample["cost_s"] = cost_s
    sample["speed"] = REFERENCE_CALIBRATION_S / statistics.mean(sample["calibration_s"])
    sample["raw_wall_s"], sample["raw_setup_s"] = sample["wall_s"], sample["setup_s"]
    sample["wall_s"] *= sample["speed"]
    sample["setup_s"] *= sample["speed"]
    sample["problems"] = checker.check(job, sample["rc"], sample.pop("report"))
    if traced:
        sample["problems"] += check_spans(sample)
    return sample


def check_spans(sample) -> list[str]:
    """The root span is the job; layer self times add up to its duration."""
    spans = sample["spans"]
    if not spans or spans[0][0] != "cli.main" or spans[0][3] is not None:
        return ["trace has no cli.main root span"]
    wall = spans[0][2] - spans[0][1]
    total = sum(tracer.self_times(spans))
    if abs(total - wall) > 1e-9 * max(1.0, wall) * len(spans):
        return [f"layer self times sum to {total} s, traced wall is {wall} s"]
    sample["traced_wall_s"] = wall * sample["speed"]
    return []


def measure(workload, seed, seconds, trace, workdir, checker):
    """Sample the workload's jobs until the time is up; returns samples per (job, traced)."""
    tasks = [(job, traced) for job in jobs.WORKLOADS[workload] for traced in ((False, True) if trace else (False,))]
    samples = {task: [] for task in tasks}
    deadline = time.monotonic() + seconds
    while True:
        pending = [t for t in tasks if not samples[t]]
        if pending:
            task = pending[0]
        else:
            left = deadline - time.monotonic()
            fitting = [t for t in tasks if samples[t][-1]["cost_s"] <= left]
            if not fitting:
                break
            # the job with the most time per sample so far goes next
            task = max(fitting, key=lambda t: samples[t][-1]["cost_s"] / len(samples[t]))
        job, traced = task
        sample = run_sample(workload, job, seed, workdir, traced, checker)
        for problem in sample["problems"]:
            print(f"FAILED {job.name}{' (traced)' if traced else ''}: {problem}", file=sys.stderr)
        samples[task].append(sample)
    return samples


def end_to_end(samples, workload):
    """Metrics, and the human-readable lines with quartiles and sample counts."""
    lines, walls_q, rss, setups = [], [], [], []
    for job in jobs.WORKLOADS[workload]:
        ok = [s for s in samples[(job, False)] if "wall_s" in s]
        if not ok:
            lines.append(f"  {job.name:18s} no timed sample")
            continue
        q = quartiles([s["wall_s"] for s in ok])
        walls_q.append(q)
        rss.append(statistics.median(s["rss_mb"] for s in ok))
        setups += [s["setup_s"] for s in ok]
        lines.append(f"  {job.name:18s} n={len(ok):<3d} wall median {q[1]:.4f} s  q1 {q[0]:.4f}  q3 {q[2]:.4f}"
                     f"  (unscaled median {statistics.median(s['raw_wall_s'] for s in ok):.4f} s,"
                     f" speed {statistics.median(s['speed'] for s in ok):.3f})  peak rss {rss[-1]:.1f} MB")
    wall = [sum(q[i] for q in walls_q) for i in range(3)]
    sq = quartiles(setups) if setups else (0.0, 0.0, 0.0)
    lines.append(f"wall_s       {wall[1]:.4f} s   (q1 {wall[0]:.4f}, q3 {wall[2]:.4f}: per-job quartiles summed)")
    lines.append(f"setup_s      {sq[1]:.4f} s   (q1 {sq[0]:.4f}, q3 {sq[2]:.4f}, n={len(setups)})")
    lines.append(f"peak_rss_mb  {max(rss, default=0.0):.1f} MB")
    metrics = {"wall_s": wall[1], "peak_rss_mb": max(rss, default=0.0), "setup_s": sq[1]}
    return metrics, lines


def per_layer(samples, workload):
    """Per-layer sums over jobs, each job taken from its median traced sample."""
    metrics = {name: 0.0 for name in per_layer_units()}
    untraced = 0.0
    lines = []
    for job in jobs.WORKLOADS[workload]:
        traced = [s for s in samples[(job, True)] if "traced_wall_s" in s]
        plain = [s["wall_s"] for s in samples[(job, False)] if "wall_s" in s]
        if not traced or not plain:
            lines.append(f"  {job.name:18s} no traced and untraced sample pair")
            continue
        chosen = traced[lower_median_index([s["traced_wall_s"] for s in traced])]
        for name, value in tracer.layer_metrics(chosen["spans"], chosen["counts"]).items():
            metrics[name] += value * chosen["speed"] if name.endswith("_s") else value
        metrics["trace.wall_s"] += chosen["traced_wall_s"]
        untraced += statistics.median(plain)
        lines.append(f"  {job.name:18s} traced {chosen['traced_wall_s']:.4f} s  untraced median "
                     f"{statistics.median(plain):.4f} s  spans {len(chosen['spans'])}")
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    search_s = metrics["sharp_search.search_s"]
    metrics["sharp_search.nodes_per_s"] = metrics["sharp_search.nodes"] / search_s if search_s > 0 else 0.0
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    lines.append(f"layer self times sum to {layers:.6f} s; traced wall_s {metrics['trace.wall_s']:.6f} s; "
                 f"overhead {metrics['trace.overhead_s']:+.4f} s")
    for name in sorted(metrics):
        lines.append(f"  {name:32s} {metrics[name]:.6g}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (jobs.SRC / "sharpsets" / "cli.py").is_file():
        print(f"no sharpsets sources under {jobs.SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once so no timed process compiles.
    compileall.compile_dir(str(jobs.SRC), quiet=1)
    sys.path.insert(0, str(jobs.SRC))
    checker = jobs.Checker(args.seed)

    work_root = jobs.ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    started = time.monotonic()
    try:
        samples = measure(args.workload, args.seed, args.seconds, args.trace, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.monotonic() - started

    every = [s for group in samples.values() for s in group]
    failed = sum(1 for s in every if s["problems"])
    if args.trace:
        values, lines = per_layer(samples, args.workload)
        units = per_layer_units()
    else:
        values, lines = end_to_end(samples, args.workload)
        units = END_TO_END
    samples_path = work_root / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples_path.write_text(json.dumps(
        {f"{job.name}{'/traced' if traced else ''}": group for (job, traced), group in samples.items()}))
    lines.append(f"samples and spans written to {samples_path.relative_to(jobs.ROOT)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(every)} job runs in {elapsed:.1f} s")
    for line in lines:
        print(line)
    print(f"failed_frac  {failed}/{len(every)} = {failed / len(every):.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
