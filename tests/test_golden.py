"""Every entry of the golden corpus (tests/data/golden.json, written by
tests/make_golden.py) is reproduced by the current code, in the same order.

This is regression evidence: the corpus records what the code computed when
it was generated.  The independent evidence is the published values in
test_orbits and test_acceptance and the brute-force oracle."""

import json

import pytest
from make_golden import PATH, SECTIONS

GOLDEN = json.loads(PATH.read_text())


def test_sections():
    assert list(GOLDEN) == list(SECTIONS)


@pytest.mark.parametrize("name", list(SECTIONS))
def test_section_matches_corpus(name):
    computed, golden = SECTIONS[name](), GOLDEN[name]
    assert list(computed) == list(golden)
    for key, value in golden.items():
        assert computed[key] == value, f"{name}[{key!r}]"
