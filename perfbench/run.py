"""qgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src` directory, never from an installed copy.  One run:

1. builds the workload's inputs from the seed (workloads.py, inputs.py);
2. with --trace 0, times set-up SETUP_REPEATS times, each in a fresh
   process (setup_probe.py), and keeps the median;
3. runs whole rounds of the workload's operations in a closed loop, one
   call at a time, until another round would pass --seconds (at least one),
   and times a fixed calibration kernel between operations, on as many
   threads as the operations use, for about CALIBRATION_SHARE of the run;
4. checks the first round's outputs against the finite-element reference
   (fe.py, checks.py), and every later round's against the first;
5. prints a summary, then one JSON line: correct, attempted, failed and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

The time metrics are in calibration units: the mean time of a round,
divided by the calibration kernel's mean time over the same run.  The
host's speed drifts by a fifth and more over minutes; the ratio cancels
most of that drift (README.md, "Calibration").

`--workload all` runs every workload in turn, each in its own process,
prints every metric by name with its unit, and writes the combined result
to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 3
RESULTS = os.path.join(HERE, "results")   # where --workload all keeps its JSON
CALIBRATION_STEPS = 2500                  # 7 to 14 ms on a 2-CPU sandbox
CALIBRATION_SHARE = 0.1                   # of the run's time spent in the kernel


def calibrate():
    """The calibration kernel: a chain of 2x2 transfer matrices built from
    scalar trigonometry and multiplied with numpy, the kind of work the
    program's inner loops do, written here so that no change to the program
    changes it."""
    acc = np.eye(2)
    for i in range(CALIBRATION_STEPS):
        k = math.sqrt(1.0 + 1e-3 * i)
        c, s = math.cos(k), math.sin(k)
        acc = np.array([[c, s / k], [-k * s, c]]) @ acc
        acc /= abs(acc[0, 0]) + 1.0
    return acc


def kernel(threads):
    """The calibration kernel on `threads` threads at once.  On two threads
    its chains contend for the GIL as the rows of the program's sweep pool
    do, so the host's load slows both alike."""
    if threads == 1:
        calibrate()
        return
    with ThreadPoolExecutor(max_workers=threads) as ex:
        list(ex.map(lambda _: calibrate(), range(threads)))


def pool_threads():
    """The program's sweep pool size: QGRAPH_THREADS, else the CPU count."""
    env = os.environ.get("QGRAPH_THREADS")
    return max(1, int(env)) if env else os.cpu_count() or 1


def measure_setup(docs):
    """Median seconds to import qgraph, parse the scenarios and split them."""
    job = json.dumps({"src": SRC, "scenarios": docs})
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                              input=job, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_rounds(ops, seconds, threads):
    """Whole rounds of ops until another round would pass `seconds`.
    Before each operation the calibration kernel is timed until it has
    taken CALIBRATION_SHARE of the run so far, so its samples cover the run
    evenly however long the operations are.  Returns
    per-operation wall and CPU times (one list per operation) and the
    kernel's (wall, CPU) times."""
    walls, cpus = [[] for _ in ops], [[] for _ in ops]
    calibration = ([], [])
    errors, first, changed = [], None, set()
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        outs = {}
        for i, (label, call) in enumerate(ops):
            while sum(calibration[0]) <= CALIBRATION_SHARE * (time.perf_counter() - start):
                w0, c0 = time.perf_counter(), time.process_time()
                kernel(threads)
                calibration[0].append(time.perf_counter() - w0)
                calibration[1].append(time.process_time() - c0)
            attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                outs[label] = call()
            except Exception as e:  # an operation that fails is counted, the run goes on
                failed += 1
                errors.append(f"{label}: {type(e).__name__}: {e}")
            walls[i].append(time.perf_counter() - w0)
            cpus[i].append(time.process_time() - c0)
        rounds += 1
        if first is None:
            first = outs
        else:
            changed |= {k for k in outs if outs[k] != first.get(k)}
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    return rounds, walls, cpus, calibration, first, changed, attempted, failed, errors


def mean_round(times):
    """Time of one round: every operation at its mean over the run's rounds."""
    return sum(statistics.fmean(t) for t in times)


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "qgraph", "__init__.py")):
        print(f"no qgraph source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup(wl.docs)

    import qgraph
    import qgraph.cli
    if not os.path.abspath(qgraph.__file__).startswith(SRC + os.sep):
        print(f"qgraph imported from {qgraph.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops = wl.ops(qgraph, [qgraph.cli.parse_scenario(d) for d in wl.docs])

    threads = pool_threads() if wl.pooled else 1
    kernel(threads)   # warm-up: numpy's first calls are slower
    tracer = tracing.install(qgraph) if args.trace else None
    try:
        rounds, walls, cpus, calibration, first, changed, attempted, failed, errors = \
            run_rounds(ops, args.seconds, threads)
    finally:
        if tracer is not None:
            tracer.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"{k}: output differs between rounds" for k in sorted(changed)]
    problems += wl.check(qgraph, first)
    for line in errors + problems:
        print(line, file=sys.stderr)

    round_s = mean_round(walls)
    cal_wall, cal_cpu = (statistics.fmean(t) for t in calibration)
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "round_cal": (round_s / cal_wall, "cal"),
                   "cpu_cal": (mean_round(cpus) / cal_cpu, "cal"),
                   "peak_rss_mb": (peak_mb, "MB")}
    else:
        metrics = tracing.layer_metrics(tracer, rounds,
                                      rounds * wl.rows_with_lambda(first))
    print(f"{args.workload}: seed {args.seed}, {rounds} round(s) of {len(ops)} operation(s), "
          f"attempted {attempted}, failed {failed}, correct {not problems}, "
          f"mean round {round_s:.4g} s{' traced' if tracer else ''}, "
          f"calibration kernel {cal_wall * 1e3:.4g} ms on {threads} thread(s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process; prints each one's metrics."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()}}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"all-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path)}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
