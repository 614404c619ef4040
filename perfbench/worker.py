"""One cold run of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --size full|smoke
                                --golden DIR [--trace]

Run from the root of a checkout.  Imports orbitpairs from ./src, so every
lru_cache starts cold as it does for a CLI user, runs the workload's jobs in
the order the seed gives, then checks every output against the golden file.
Prints one JSON object as its last stdout line.

Before the first job and after every job the worker times calibrate(), a
fixed loop that calls nothing in orbitpairs; run.py uses those times to
scale the job times to a fixed host speed.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so the load never uses more threads
# than the cores the benchmark assumes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path.cwd() / "src"
CAL_ITERATIONS = 15000


def calibrate() -> float:
    """Seconds taken by a fixed integer loop that touches no shared state,
    so its time tracks only how fast the host is running this process."""
    t = time.perf_counter()
    x = 1
    for _ in range(CAL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - t


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--golden", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import orbitpairs
    if Path(orbitpairs.__file__).resolve().parent != (SRC / "orbitpairs").resolve():
        print(f"worker: imported orbitpairs from {orbitpairs.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    keys = workloads.shuffled(workloads.job_keys(args.workload, args.size), args.seed)
    with open(Path(args.golden) / f"{args.workload}.json") as fh:
        golden = json.load(fh)
    prepare, run = workloads.make_runner(args.workload)
    inputs = [prepare(key) for key in keys]

    outputs, wall_s = [], 0.0
    clock = time.perf_counter
    first_job_at = time.monotonic()
    cal_s = [calibrate()]
    for job in inputs:
        t = clock()
        try:
            outputs.append(run(job))
        except Exception:  # a job that raises counts as failed; the rest still run
            traceback.print_exc()
            outputs.append(None)
        wall_s += clock() - t
        cal_s.append(calibrate())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for key, out in zip(keys, outputs):
        if out is None:
            failures.append(f"{key}: raised")
        elif key not in golden:
            failures.append(f"{key}: no golden entry")
        elif workloads.encode(args.workload, out) != golden[key]:
            failures.append(f"{key}: differs from golden")
    for line in failures:
        print(f"worker: {args.workload} job {line}", file=sys.stderr)

    result = {
        "first_job_at": first_job_at,
        "wall_s": wall_s,
        "cal_s": cal_s,
        "peak_rss_mb": rss_mb,
        "attempted": len(keys),
        "failed": len(failures),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from layertrace import layer_metrics
        points = sum(map(workloads.pair_points, keys)) if args.workload == "verify" else 0
        result["layers"] = layer_metrics(tracer, wall_s, points)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
