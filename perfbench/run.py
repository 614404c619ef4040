"""orbitpairs benchmark.

    python3 perfbench/run.py --workload {table,refined,quiver,verify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the code measured is the one under ./src.
Each repetition is a fresh worker process (perfbench/worker.py), so every
cache starts cold as it does for a CLI user.  Repetitions run one after
another until the next one would end after S seconds (at least three plain
ones, or two traced ones and one plain one with --trace 1).  Every job's
output is checked against perfbench/golden.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
  wall_s       time from the first job to the last, at reference host speed
  setup_s      time from process start to the first job (interpreter,
               imports, input generation, golden load), at reference speed
  peak_rss_mb  peak resident memory of the worker
Jobs that raise or differ from golden are reported in "failed".

Reference host speed: the worker times a fixed integer loop
(worker.calibrate) before the first job and after each job, and a
repetition's times are multiplied by CAL_REF_S over the median of its loop
times.  The loop runs no orbitpairs code, so a change to the package moves
the job times and not the scale.  Why: on a shared 2-vCPU VM (Xeon, Python
3.11) the host's speed swung by up to 2x within seconds and by tens of
percent between minutes; over ten runs per workload the run-to-run spread
(interquartile range over median) of the raw median wall time was 26-40 %,
and of the scaled one 4-10 %.  The raw times are in the context line.

--trace 1 alternates traced and plain repetitions and reports per-layer
metrics from the traced ones (perfbench/layertrace.py): median times, and
counts that must repeat exactly across the traced repetitions, else the
result is marked incorrect.  trace.overhead_s is wall_s (as above) of the
traced repetitions minus that of the plain ones, and trace.wall_s is the
traced repetitions' raw wall time.

The last stdout line is the result object; the line before it holds the run
context (versions, machine, source identity, per-repetition values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table", "refined", "quiver", "verify")
MIN_PLAIN = 3
MIN_TRACED = 2
# The whole run must end within 180 s; no repetition may start a wait that
# could pass that.
HARD_LIMIT_S = 170
# Duration of worker.calibrate() on the reference host: its typical fast
# time on the VM described in the module docstring.
CAL_REF_S = 0.002


def run_worker(workload, seed, size, golden, traced, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--golden", str(golden)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {workload} worker exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep["first_job_at"] - started
    rep["elapsed_s"] = time.monotonic() - started
    return rep


def at_reference_speed(reps, key):
    """Median over repetitions of a time scaled to reference host speed."""
    return statistics.median(r[key] * CAL_REF_S / statistics.median(r["cal_s"]) for r in reps)


def run_context(seed, reps):
    src = Path("src")
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if Path(".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": reps[0]["python"], "numpy": reps[0]["numpy"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "blas_threads": 1,
        "commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs a small subset of the jobs (self-test)")
    parser.add_argument("--golden", type=Path, default=HERE / "golden",
                        help="directory of golden outputs (self-test)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (Path("src") / "orbitpairs" / "__init__.py").is_file():
        print("run.py: no ./src/orbitpairs here; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + args.seconds
    plain, traced = [], []
    while True:
        want_trace = args.trace == 1 and len(traced) <= len(plain)
        if plain or traced:
            done = (len(plain) >= (1 if args.trace else MIN_PLAIN)
                    and len(traced) >= (MIN_TRACED if args.trace else 0))
            typical = statistics.median(r["elapsed_s"] for r in plain + traced)
            if done and time.monotonic() + typical > deadline:
                break
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        if remaining <= 0:
            raise SystemExit("run.py: out of time before the minimum repetitions ran")
        rep = run_worker(args.workload, args.seed, args.size, args.golden,
                         want_trace, remaining)
        (traced if want_trace else plain).append(rep)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0
    context = run_context(args.seed, reps)
    context.update(workload=args.workload, size=args.size, trace=args.trace,
                   wall_s_reps=[r["wall_s"] for r in plain],
                   setup_s_reps=[r["setup_s"] for r in plain],
                   cal_s_reps=[statistics.median(r["cal_s"]) for r in plain])

    if args.trace == 0:
        metrics = {
            "wall_s": {"value": at_reference_speed(plain, "wall_s"), "unit": "s"},
            "setup_s": {"value": at_reference_speed(plain, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    else:
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced]
            if unit in ("count", "ratio"):
                if len(set(values)) != 1:
                    print(f"run.py: {name} differs between traced runs: {values}",
                          file=sys.stderr)
                    correct = False
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": at_reference_speed(traced, "wall_s") - at_reference_speed(plain, "wall_s"),
            "unit": "s"}
        context["traced_wall_s_reps"] = [r["wall_s"] for r in traced]

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
