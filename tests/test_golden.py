"""Every entry of the golden corpus (tests/data/golden.json, written by
tests/make_golden.py) is reproduced by the current code, in the same order.

This is regression evidence: the corpus records what the code computed when
it was generated.  The independent evidence is the published values in
test_orbits and test_acceptance and the brute-force oracle."""

import hashlib
import json

import pytest
from make_golden import PATH, SECTIONS

from orbitpairs.posets import partitions_of
from orbitpairs.refined import refined_matrix

GOLDEN = json.loads(PATH.read_text())


def test_sections():
    assert list(GOLDEN) == list(SECTIONS)


@pytest.mark.parametrize("name", list(SECTIONS))
def test_section_matches_corpus(name):
    computed, golden = SECTIONS[name](), GOLDEN[name]
    assert list(computed) == list(golden)
    for key, value in golden.items():
        assert computed[key] == value, f"{name}[{key!r}]"


# sha256 of the lines "lambda;I;L;coefficients" of refined_matrix(lambda), in
# matrix order, for every lambda with |lambda| <= 9 in partitions_of order,
# made by this recipe from the valuation-DP kernel that coset_count's closed
# form replaced.
REFINED_DIGEST = "e6c19afe47b0904da5dc9ec63683319a352e039fd2daa9a1f9ce428ff14d1b0b"


def test_refined_matrices_past_the_corpus():
    # The corpus holds refined matrices up to |lambda| = 6 only.
    h = hashlib.sha256()
    for n in range(10):
        for lam in partitions_of(n):
            for (I, L), total in refined_matrix(lam).items():
                h.update(f"{lam};{I};{L};{list(total.coeffs)}\n".encode())
    assert h.hexdigest() == REFINED_DIGEST
