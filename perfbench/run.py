"""qtalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qtalg is imported from ./src.  One process
runs one workload as a closed loop with a single caller: tasks run back to
back, and a run measures whole rounds until at least S seconds have passed.
Every task's identity is checked exactly and its output digest compared with
the value recorded in perfbench/expected.json.

Task times are the process's CPU time during the task (see Outcome).
--trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
once untraced and once with spans installed, and prints the per-layer
metrics.
The last line of output is one JSON object; the exit code is nonzero when
any task failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from random import Random
from time import perf_counter, process_time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
# A set-up takes 0.2-0.9 s, and single set-ups of the same code varied by
# 20% on a shared machine; the median of seven steadies the figure.
SETUP_PROBES = 7
P90_MIN_TASKS = 100


def import_qtalg():
    """Import qtalg from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qtalg", "__init__.py")):
        raise SystemExit(f"perfbench: no qtalg sources under {SRC}")
    sys.path.insert(0, SRC)
    import qtalg

    if not os.path.abspath(qtalg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: qtalg was imported from {qtalg.__file__}, not {SRC}")
    return qtalg


def load_expected(workload: str) -> dict:
    """Recorded output digests of the workload's inputs, by task key."""
    with open(EXPECTED) as fh:
        return json.load(fh)["digests"][workload]


# -- set-up time ----------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """Child process: import and set up, then report the CPU time the
    process has used since it started, interpreter start-up included."""
    from workloads import WORKLOADS

    WORKLOADS[workload].setup()
    print(f"ready {process_time()!r}", flush=True)


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """CPU and wall time from process start to ready-for-the-first-task, per
    probe.  As with tasks (see Outcome), CPU time leaves out the time the
    probe waited while other tenants of the machine ran."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            wall.append(perf_counter() - start)
            proc.stdout.read()
        head, _, value = line.decode().strip().partition(" ")
        if proc.returncode != 0 or head != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        cpu.append(float(value))
    return cpu, wall


# -- tasks ----------------------------------------------------------------------


class Outcome(NamedTuple):
    key: str
    # A task is single-threaded and does no I/O, so on an idle machine its
    # CPU time is its wall time.  On the shared 2-vCPU machine the baseline
    # was measured on, wall time also held stalls while other tenants ran
    # (up to 25% of a 3 s task): over ten runs of sandwich-a1 the spread of
    # tasks_per_s was 0.148 in wall time and 0.083 in CPU time.  The metrics
    # therefore use CPU time.
    seconds: float  # wall time of the task
    cpu_seconds: float  # process CPU time of the task
    ok: bool
    digest: str | None
    error: str | None


def run_task(task, expected: dict, tracer=None) -> Outcome:
    from digest import digest

    gc.collect()  # start each task from the same collector state
    if tracer is not None:
        tracer.begin_task(task.key)
    start, cpu_start = perf_counter(), process_time()
    try:
        ok, output = task.fn()
        error = None if ok else "exact check failed"
    except Exception:  # a raising task is a failed task; the run goes on
        ok, output, error = False, None, "raised\n" + traceback.format_exc()
    seconds, cpu_seconds = perf_counter() - start, process_time() - cpu_start
    if tracer is not None:
        tracer.end_task()
    value = None
    if ok:
        try:
            value = digest(output)
        except Exception:
            ok, error = False, "digest raised\n" + traceback.format_exc()
        else:
            if expected.get(task.key) != value:
                ok, error = False, f"digest {value} != recorded {expected.get(task.key)}"
    return Outcome(task.key, seconds, cpu_seconds, bool(ok), value, error)


def measure(workload, ctx, rng: Random, seconds: float, expected: dict):
    """Whole rounds until `seconds` of wall time have passed."""
    rounds, outcomes = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        tasks = workload.round(ctx, rng)
        rounds.append(tasks)
        outcomes += [run_task(t, expected) for t in tasks]
    return rounds, outcomes


# -- reports --------------------------------------------------------------------


def report_failures(outcomes) -> None:
    for o in outcomes:
        if not o.ok:
            print(f"FAIL {o.key}: {o.error}", file=sys.stderr)


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    setups, setup_walls = measure_setup(name)
    workload = WORKLOADS[name]
    ctx = workload.setup()
    rng = Random(f"{name}:{seed}")
    rounds, outcomes = measure(workload, ctx, rng, seconds, load_expected(name))
    report_failures(outcomes)

    times = [o.cpu_seconds for o in outcomes]
    n, verified = len(outcomes), sum(o.ok for o in outcomes)
    busy = sum(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (verified / busy, "1/s"),
        "task_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = sum(o.seconds for o in outcomes)
    print(
        f"workload {name}, seed {seed}: {len(rounds)} round(s), {n} tasks in "
        f"{busy:.2f} s on the CPU ({wall:.2f} s of wall time)"
    )
    print(
        f"  setup_s      {metrics['setup_s'][0]:.4f} s    median of {len(setups)} set-ups "
        f"(min {min(setups):.4f}, max {max(setups):.4f}; wall median "
        f"{statistics.median(setup_walls):.4f} s)"
    )
    print(f"  tasks_per_s  {metrics['tasks_per_s'][0]:.4f} 1/s  {verified} verified tasks")
    print(f"  task_p50_s   {metrics['task_p50_s'][0]:.4f} s    p50 of n={n} tasks")
    if n >= P90_MIN_TASKS:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        beyond = sum(t > p90 for t in times)
        print(f"  task_p90_s   {p90:.4f} s    p90 of n={n} tasks, {beyond} beyond it")
    else:
        print(f"  task_p90_s   not reported: n={n} tasks < {P90_MIN_TASKS}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  fail_ratio   {(n - verified) / n:.4f} 1    {n - verified} of {n} tasks failed")
    return {
        "correct": verified == n,
        "attempted": n,
        "failed": n - verified,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(name: str, seed: int, seconds: float) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ctx = workload.setup()
    expected = load_expected(name)
    rounds, plain = measure(workload, ctx, Random(f"{name}:{seed}"), seconds, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_task(t, expected, tracer) for tasks in rounds for t in tasks]
    finally:
        tracer.uninstall()
    report_failures(plain + traced)
    same = all(
        (a.key, a.ok, a.digest) == (b.key, b.ok, b.digest) for a, b in zip(plain, traced)
    )
    if not same:
        print("FAIL traced and untraced runs disagree", file=sys.stderr)

    metrics = tracer.layer_metrics()
    plain_s = sum(o.cpu_seconds for o in plain)
    traced_s = sum(o.cpu_seconds for o in traced)
    metrics["trace_overhead_ratio"] = traced_s / plain_s - 1
    print(f"workload {name}, seed {seed}: {len(plain)} tasks, {plain_s:.2f} s untraced, "
          f"{traced_s:.2f} s traced")
    print("  top functions by self time (layer, function, calls, self s):")
    for layer, fn, calls, self_s in tracer.by_function()[:15]:
        print(f"    {layer:<10} {fn:<40} {calls:>10} {self_s:10.3f}")
    print("  tasks by self time (task, total s, largest layers):")
    for key, row in sorted(tracer.by_task.items(), key=lambda kv: -sum(kv[1].values()))[:15]:
        top = sorted(((v, k) for k, v in row.items() if v > 0), reverse=True)[:3]
        layers = ", ".join(f"{k} {v:.3f}" for v, k in top)
        print(f"    {key:<22} {sum(row.values()):8.3f}  {layers}")
    units = {key: layer_unit(key) for key in metrics}
    for key, value in metrics.items():
        print(f"  {key:<28} {value:.6g} {units[key]}")
    failed = sum(not (a.ok and b.ok) for a, b in zip(plain, traced))
    return {
        "correct": failed == 0 and same,
        "attempted": len(plain),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_qtalg()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = per_layer if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
