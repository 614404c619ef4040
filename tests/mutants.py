"""A mutation gate: every guard of the engine has a test that fails without it.

Each entry names a module of src/orbitpairs, an exact snippet that occurs in
it once, the replacement that disables one guard, and the test node ids that
must fail on that mutant.  For each entry the runner copies src/ to a
temporary directory, applies the replacement there and runs only the named
tests against the copy.  It exits 1 if a snippet does not occur exactly once,
or if a named test does not fail on its mutant.

    python tests/mutants.py          # every entry
    python tests/mutants.py 3 7      # entries by index

A change that moves a guard updates its entry, and a change that adds or
removes a guard adds or removes its entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ORBITS, ORACLE, CLI = "tests/test_orbits.py::", "tests/test_oracle.py::", "tests/test_cli.py::"


class Mutant(NamedTuple):
    guard: str
    module: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("_group_sums' negative power", "orbits.py",
           "    bad = sel[acc[:, :top].any(1)[gid]]\n",
           "    bad = sel[:0]\n",
           (ORBITS + "TestCensusGroups::test_negative_power_guard",
            ORBITS + "TestBlocks::test_negative_power_names_its_shape")),
    Mutant("_laurent_sum's negative power", "refined.py",
           "    if any(acc[:weight]):\n",
           "    if False:\n",
           (ORBITS + "TestCensusGroups::test_negative_power_guard",
            "tests/test_refined.py::TestRefinedCensus::test_negative_power_guard")),
    Mutant("_laurent_sum's negative shift", "refined.py",
           "        if e < sf:\n",
           "        if False:\n",
           (ORBITS + "TestCensusGroups::test_cell_exponent_guard",)),
    Mutant("the lattice mass check", "posets.py",
           "        if mass != [0] * mu.weight + [1]:\n",
           "        if False:\n",
           (ORBITS + "TestCensusGroups::test_table_mass_guard",)),
    Mutant("the lattice orbit-size factors check", "posets.py",
           "            if sum(m) > w:\n",
           "            if False:\n",
           (ORBITS + "TestCensusGroups::test_table_mass_guard",)),
    Mutant("_Block's split identity", "orbits.py",
           "        if bad.size:\n            raise DegreeMismatch(f\"split of ({self.where",
           "        if False:\n            raise DegreeMismatch(f\"split of ({self.where",
           (ORBITS + "TestCensusGroups::test_weight_identity_guard",
            ORBITS + "TestBlocks::test_weight_identity_names_its_shape")),
    Mutant("canonical_split's split identity", "orbits.py",
           "    if split.fiber + quotient.weight + lam_dprime.weight != lam.weight:\n",
           "    if False:\n",
           (ORBITS + "TestCensusGroups::test_weight_identity_guard",)),
    Mutant("the alpha-key polynomial check", "orbits.py",
           "    bad = (ea < sf[K] - in_sf).nonzero()[0]\n",
           "    bad = ea[:0]\n",
           (ORBITS + "TestCensusGroups::test_alpha_key_guard",)),
    Mutant("the cells' negative power", "orbits.py",
           "    bad = (low < top - cw).nonzero()[0]\n",
           "    bad = low[:0]\n",
           (ORBITS + "TestCensusGroups::test_cell_exponent_guard",)),
    Mutant("the factor-code int64 guard", "orbits.py",
           "    check_int64(span - 1, f\"factor codes of the cells of {name}\")\n",
           "",
           (ORBITS + "TestCensusGroups::test_wide_keys_widen_or_raise",)),
    Mutant("the (I, alpha) key int64 guard", "orbits.py",
           "    check_int64(owner.size * (top + 1) * span - 1,",
           "    (lambda *_: None)(owner.size * (top + 1) * span - 1,",
           (ORBITS + "TestBlocks::test_int64_guard_trips_alone[2,1-(I, alpha) keys]",)),
    Mutant("the packed Laurent key int64 guard", "orbits.py",
           "    check_int64(len(block.shapes) * block.size * span - 1,",
           "    (lambda *_: None)(len(block.shapes) * block.size * span - 1,",
           (ORBITS + "TestBlocks::test_int64_guard_trips_alone[1^2-packed Laurent keys]",)),
    Mutant("the N_alpha coefficient int64 guard", "orbits.py",
           "    check_int64(cells.first.size * max(",
           "    (lambda *_: None)(cells.first.size * max(",
           (ORBITS + "TestBlocks::test_int64_guard_trips_alone[4,3,2,1-N_alpha coefficients]",)),
    Mutant("_laurent_totals' monic/degree check", "orbits.py",
           "        if lam and (not poly.is_monic() or poly.degree != lam.largest):\n",
           "        if False:\n",
           (ORBITS + "TestBlocks::test_monic_degree_guard",)),
    Mutant("the lattice's int64 guard", "posets.py",
           "        check_int64(mu.weight, f\"ideal weights of lattice({mu})\")\n",
           "",
           (CLI + "TestHugeInputs::test_exit_1_with_message[nlambda-23-digits]",)),
    Mutant("orbit_census' int64 guard", "refined.py",
           "    check_int64(lam.weight, f\"ideal weights of the cells of {lam}\")\n",
           "",
           (CLI + "TestHugeInputs::test_exit_1_with_message[census-23-digits]",)),
    Mutant("the R_{n,1} Newton remainder", "quiver.py",
           "            if any(r for _, r in quot):\n",
           "            if False:\n",
           ("tests/test_quiver.py::TestRepresentationCount::test_nonzero_remainder_raises",)),
    Mutant("PAIR_BUDGET", "oracle.py",
           "    if module.size ** 2 > PAIR_BUDGET:\n",
           "    if False:\n",
           (ORACLE + "TestVerify::test_pair_budget_checked_before_pair_labels",
            ORACLE + "TestCertificate::test_first_module_past_the_domain_is_refused")),
    Mutant("pair_labels' certificate loop", "permgroups.py",
           "            while (F[g[xs]].take(g, 1) != F[xs]).any():\n",
           "            while False:\n",
           (ORACLE + "TestPairSeed::test_repair_stays_exact[4,2-2-True]",
            ORACLE + "TestPairSeed::test_repair_stays_exact[2,1-3-False]")),
    Mutant("verify's symmetry check", "oracle.py",
           "        if total != totals[L, I]:\n",
           "        if False:\n",
           (ORACLE + "TestVerify::test_refined_grid_checked_for_symmetry",)),
    Mutant("verify's grid against the cell batch", "oracle.py",
           "    if uncapped != capped:",
           "    if False:",
           (ORACLE + "TestVerify::test_refined_grid_checked_against_n_lambda",)),
    Mutant("verify's element orbit count", "oracle.py",
           "len(ideals), len(element_orbits))",
           "len(ideals), len(dict(element_orbits)))",
           (ORACLE + "TestVerify::test_count_check_counts_orbits",)),
    Mutant("quiver --breakdown's type-sum check", "cli.py",
           "        if not ok:\n",
           "        if False:\n",
           ("tests/test_quiver.py::TestRepresentationCount::test_breakdown_checks_type_sum",)),
    Mutant("the CLI's MemoryError catch", "cli.py",
           "    except MemoryError:\n",
           "    except ZeroDivisionError:\n",
           (CLI + "TestHugeInputs::test_out_of_memory_is_exit_1",)),
]


def mutated(text: str, mutant: Mutant) -> str:
    """text with the mutant's snippet replaced; the snippet must occur once."""
    if (found := text.count(mutant.snippet)) != 1:
        raise ValueError(f"{mutant.guard}: snippet found {found} times in {mutant.module}")
    return text.replace(mutant.snippet, mutant.replacement)


def survivors(mutant: Mutant) -> list[str]:
    """The named tests that do not fail on the mutant; [] when it is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "orbitpairs" / mutant.module
        path.write_text(mutated(path.read_text(), mutant))
        # pyproject.toml's pythonpath would put the unmutated src/ first.
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")).stdout
    failed = {line[len("FAILED "):].split(" - ")[0] for line in out.splitlines()
              if line.startswith("FAILED ")}
    return [t for t in mutant.tests if t not in failed]


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(i)] for i in argv] if argv else MUTANTS
    try:  # every snippet is checked before any test runs
        for mutant in chosen:
            mutated((ROOT / "src" / "orbitpairs" / mutant.module).read_text(), mutant)
    except ValueError as exc:
        print(exc)
        return 1
    t0, status = time.perf_counter(), 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for mutant, alive in zip(chosen, pool.map(survivors, chosen)):
            print(f"SURVIVED {mutant.guard}: {' '.join(alive)} passed" if alive
                  else f"killed   {mutant.guard}")
            status |= bool(alive)
    print(f"{len(chosen)} mutants in {time.perf_counter() - t0:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
