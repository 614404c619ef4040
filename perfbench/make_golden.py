"""Write the golden outputs the benchmark checks every job against.

    python3 perfbench/make_golden.py

Run from the repository root.  Computes every job of every workload, at
both sizes, with the code under ./src and writes perfbench/golden/<workload>.json.
The committed files come from code whose answers are trusted; regenerate
them only when a change is meant to alter an answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (needs src/ on sys.path)


def main() -> int:
    out_dir = HERE / "golden"
    out_dir.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        keys = sorted({k for size in workloads.SIZES
                       for k in workloads.job_keys(workload, size)})
        prepare, run = workloads.make_runner(workload)
        golden = {key: workloads.encode(workload, run(prepare(key))) for key in keys}
        with open(out_dir / f"{workload}.json", "w") as fh:
            json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(golden)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
