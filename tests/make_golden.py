"""Write the golden corpus tests/data/golden.json from the current code.

    PYTHONPATH=src python tests/make_golden.py

The corpus holds n_lambda of every capped shape with |lambda| <= 16, the
orbit census of every first ideal with |lambda| <= 8, the refined matrix of
every shape with |lambda| <= 6, R_{n,1} for n <= 12 and the checks of every
quick-mode verify report for p = 2 up to |lambda| = 5, p = 3 up to 3 and
p = 5 up to 2, each grid from the empty partition; tests/test_golden.py
compares every entry with the code under test.  Regenerate it only when a
result is meant to change, and say why in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

from orbitpairs.oracle import verify
from orbitpairs.orbits import n_lambda
from orbitpairs.posets import lattice, partitions_of
from orbitpairs.quiver import r_n1
from orbitpairs.refined import orbit_census, refined_matrix

PATH = Path(__file__).resolve().parent / "data" / "golden.json"
N_LAMBDA_MAX, CENSUS_MAX, REFINED_MAX, R_N1_MAX = 16, 8, 6, 12
VERIFY_GRID = ((2, 5), (3, 3), (5, 2))  # (p, largest |lambda|)


def capped_shapes(n_max: int) -> list:
    """Every capped shape with 1 <= |lambda| <= n_max, each once, in order."""
    return list(dict.fromkeys(lam.cap(2) for n in range(1, n_max + 1)
                              for lam in partitions_of(n)))


def all_shapes(n_max: int) -> list:
    return [lam for n in range(1, n_max + 1) for lam in partitions_of(n)]


def _n_lambda() -> dict:
    return {str(lam): list(n_lambda(lam, {}).coeffs) for lam in capped_shapes(N_LAMBDA_MAX)}


def _orbit_census() -> dict:
    return {f"{lam}|{I}": [[list(a.coeffs), list(n.coeffs)]
                           for a, n in orbit_census(lam, I).items()]
            for lam in all_shapes(CENSUS_MAX) for I in lattice(lam).ideals}


def _refined_matrix() -> dict:
    return {str(lam): [[str(I), str(L), list(p.coeffs)]
                       for (I, L), p in refined_matrix(lam).items()]
            for lam in all_shapes(REFINED_MAX)}


def _r_n1() -> dict:
    return {str(n): list(r_n1(n).coeffs) for n in range(1, R_N1_MAX + 1)}


def _verify() -> dict:
    return {f"{lam}@{p}": verify(lam, p)["checks"]
            for p, top in VERIFY_GRID for n in range(top + 1) for lam in partitions_of(n)}


# Section name -> its entries as computed by the code under test, in order.
SECTIONS = {"n_lambda": _n_lambda, "orbit_census": _orbit_census,
            "refined_matrix": _refined_matrix, "r_n1": _r_n1,
            "verify": _verify}


def dump(data: dict) -> str:
    """JSON with one line per entry, so a changed value is a one-line diff."""
    sections = []
    for name, entries in data.items():
        lines = [f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                 for key, value in entries.items()]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    PATH.write_text(dump({name: f() for name, f in SECTIONS.items()}))
    print(f"wrote {PATH}")
