"""The jobs each benchmark workload runs, and how a job's output is written
down for comparison with the golden files.

Every workload calls one public function per job, the same function the
matching CLI subcommand calls:

  table    n_lambda(lam, store) for every partition of one weight, all
           sharing one store (`orbitpairs table N`)
  refined  refined_matrix(lam) for every shape up to a weight
           (`orbitpairs refined LAM`)
  quiver   r_n1(n) for n = 1..N (`orbitpairs quiver n`)
  verify   verify(lam, p) in quick mode over a grid of shapes and primes
           (`orbitpairs verify LAM p`)

"full" is the size the benchmark measures; "smoke" is a subset used by the
self-test.  The seed only shuffles the job order, so every seed does the
same total work while the package's caches are unbounded.

This module imports orbitpairs, so the caller puts the checkout's src/ on
sys.path first.  Jobs look the measured functions up on the package at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random

import orbitpairs
from orbitpairs import Partition, partitions_of

WORKLOADS = ("table", "refined", "quiver", "verify")
SIZES = ("full", "smoke")

# Verify grid: (prime, largest weight).  Only primes: a composite p does not
# terminate in the oracle's unit-generator search.
_VERIFY_GRID = {"full": ((3, 5), (5, 4)), "smoke": ((3, 3), (5, 2))}


def job_keys(workload: str, size: str) -> list[str]:
    """Golden-file keys of the workload's jobs, in canonical order."""
    if workload == "table":
        return [str(lam) for lam in partitions_of(12 if size == "full" else 6)]
    if workload == "refined":
        top = 7 if size == "full" else 4
        return [str(lam) for m in range(1, top + 1) for lam in partitions_of(m)]
    if workload == "quiver":
        return [str(n) for n in range(1, (10 if size == "full" else 5) + 1)]
    if workload == "verify":
        return [f"{lam}@{p}" for p, top in _VERIFY_GRID[size]
                for m in range(1, top + 1) for lam in partitions_of(m)]
    raise ValueError(f"unknown workload {workload!r}")


def shuffled(keys: list[str], seed: int) -> list[str]:
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


def make_runner(workload: str):
    """Return (prepare, run): prepare turns a key into the job's arguments
    (input generation, done before timing); run computes the output."""
    if workload == "table":
        store: dict = {}
        return Partition.parse, lambda lam: orbitpairs.n_lambda(lam, store)
    if workload == "refined":
        return Partition.parse, lambda lam: orbitpairs.refined_matrix(lam)
    if workload == "quiver":
        return int, lambda n: orbitpairs.r_n1(n)
    if workload == "verify":
        def prepare(key):
            lam, _, p = key.rpartition("@")
            return Partition.parse(lam), int(p)
        return prepare, lambda args: orbitpairs.verify(*args)
    raise ValueError(f"unknown workload {workload!r}")


def encode(workload: str, output) -> object:
    """JSON form of a job's output, as stored in the golden files: exact
    coefficient lists, the full refined matrix, or the verify pass flag
    with every check's expected and actual values."""
    if workload in ("table", "quiver"):
        out = output.to_json()["coeffs"]
    elif workload == "refined":
        out = {f"{I}|{L}": poly.to_json()["coeffs"] for (I, L), poly in output.items()}
    else:
        out = {"pass": output["pass"], "checks": output["checks"]}
    return json.loads(json.dumps(out))


def pair_points(key: str) -> int:
    """|M|^2 for a verify job: the size of the pair space the oracle closes."""
    lam, _, p = key.rpartition("@")
    return int(p) ** (2 * Partition.parse(lam).weight)
