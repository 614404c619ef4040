"""Every entry of the golden corpus (tests/data/golden.json, written by
tests/make_golden.py) is reproduced by the current code, in the same order.

This is regression evidence: the corpus records what the code computed when
it was generated.  The independent evidence is the published values in
test_orbits and test_acceptance and the brute-force oracle."""

import hashlib
import json

import pytest
from make_golden import PATH, SECTIONS

from orbitpairs.oracle import ExplicitModule, _group_perms, verify
from orbitpairs.orbits import n_lambdas
from orbitpairs.permgroups import closure_labels, pair_labels
from orbitpairs.posets import lattice, partitions_of
from orbitpairs.quiver import r_n1
from orbitpairs.refined import orbit_census, refined_matrix

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


# sha256 of the lines "lambda;coefficients" of n_lambdas(partitions_of(n)),
# one call per weight n <= 20 sharing one store, as conjecture makes them,
# made by this recipe from the engine that split each run of shapes twice.
BATCHED_DIGEST = "186eb25ca4f3f4f271a64e832a7887ce25149b745ea570f3791fc425f72ed908"


def test_batched_n_lambdas_past_the_corpus():
    # The corpus holds n_lambda(lam, {}) one shape at a time; table and
    # conjecture build a weight's shapes in blocks across shapes.
    h, store = hashlib.sha256(), {}
    for n in range(21):
        lams = partitions_of(n)
        for lam, poly in zip(lams, n_lambdas(lams, store)):
            h.update(f"{lam};{list(poly.coeffs)}\n".encode())
    assert h.hexdigest() == BATCHED_DIGEST


# sha256 of the lines "n;coefficients" of r_n1(n) for n <= 18, made by this
# recipe from the engine that expanded Hua's product as binomial series scaled
# by d^J J!.
R_N1_DIGEST = "6ed04dff786065eeca1797567c2b78c3f14351f5ad5b5ef04428641030ba9269"


def test_r_n1_past_the_corpus():
    # The corpus holds R_{n,1} up to n = 12 only.
    h = hashlib.sha256()
    for n in range(1, 19):
        h.update(f"{n};{','.join(map(str, r_n1(n).coeffs))}\n".encode())
    assert h.hexdigest() == R_N1_DIGEST


# sha256 of the lines "lambda;I;alpha coefficients;N_alpha coefficients" of
# orbit_census(lambda, I), in census order, for every ideal I of every
# lambda of weight 9 and 10 in partitions_of and lattice order, made by this
# recipe from the engine that grouped the census on the numpy cell batch.
CENSUS_DIGEST = "98f8157ea2f68ca7a321facbce1c7044a4369353589f84b5668077130a247644"


def test_orbit_census_past_the_corpus():
    # The corpus holds ordered censuses up to |lambda| = 8 only.
    h = hashlib.sha256()
    for n in (9, 10):
        for lam in partitions_of(n):
            for I in lattice(lam).ideals:
                for a, cnt in orbit_census(lam, I).items():
                    h.update(f"{lam};{I};{list(a.coeffs)};{list(cnt.coeffs)}\n".encode())
    assert h.hexdigest() == CENSUS_DIGEST


# The verify grid: p = 2 up to |lambda| = 10, 3 up to 6, 5 up to 4, 7 up to
# 3 and 11 and 13 up to 2, each from the empty shape (196 jobs).
VERIFY_GRID = [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)]

# sha256 of json.dumps({"lambda@p": report}, sort_keys=True) over the verify
# grid, made by this recipe from the oracle that built one object per pair
# orbit.
VERIFY_DIGEST = "4b72b31fb244bc74236d051a0db4cae08b100c08c820f0b3641311730227042b"


def test_verify_reports_bit_for_bit():
    # The corpus holds verify reports to |lambda| = 5, 3 and 2 at p = 2, 3, 5.
    reports = {f"{lam}@{p}": verify(lam, p) for p, top in VERIFY_GRID
               for lam in (lam for m in range(top + 1) for lam in partitions_of(m))}
    assert len(reports) == 196
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_DIGEST


# sha256 of "lambda@p;" followed by the little-endian int32 bytes of
# labels[:, None] * n + F, the smallest flat index in each pair's orbit, for
# every quick-mode module with p = 2 up to |lambda| = 9, 3 up to 6, 5 up to
# 4, 7 up to 3 and 11 and 13 up to 2 (154 modules, the empty one included),
# made by this recipe from the pair path that closed under 2(n - 1) adjacent
# transvections per module.
PAIR_LABEL_DIGEST = "2e10a8db641922fbcde8b5be9469b41d950cd1f5458e227d424cb54939c4d59d"


def test_pair_labels_bit_for_bit():
    # F holds canonical orbit minima, fixed by the group alone, so neither
    # the generating set nor the order of the pair path's steps moves a bit.
    h = hashlib.sha256()
    for p, top in [(2, 9), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)]:
        for lam in (lam for m in range(top + 1) for lam in partitions_of(m)):
            module = ExplicitModule.from_partition(lam, p)
            perms, n = _group_perms(module), module.size
            labels = closure_labels(perms, n)
            F = pair_labels(perms, labels)
            h.update(f"{lam}@{p};".encode())
            h.update((labels[:, None] * n + F).astype("<i4").tobytes())
    assert h.hexdigest() == PAIR_LABEL_DIGEST
