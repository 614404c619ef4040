"""The mutation gate (tests/mutants.py) still names code that exists.  The
mutants themselves run as `python tests/mutants.py`, a CI step of its own."""

from mutants import MUTANTS, ROOT, mutated


def test_every_snippet_occurs_once():
    for mutant in MUTANTS:
        mutated((ROOT / "src" / "orbitpairs" / mutant.module).read_text(), mutant)
        assert mutant.tests, f"{mutant.guard}: no test named to kill it"
