import json
import os
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitpairs
from orbitpairs import cli
from orbitpairs.orbits import n_lambda
from orbitpairs.posets import Partition
from orbitpairs.qpoly import QPolynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """The CLI in a subprocess, so that an escaping exception shows as a
    traceback on its stderr."""
    src = os.path.dirname(os.path.dirname(orbitpairs.__file__))
    return subprocess.run([sys.executable, "-m", "orbitpairs.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})


class TestPrimePower:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10, 10 ** 12) | st.builds(pow, st.integers(2, 10 ** 4),
                                                  st.integers(1, 6)))
    def test_matches_factorisation(self, q):
        assert cli._is_prime_power(q) == (q >= 2 and len(sympy.factorint(q)) == 1)

    @pytest.mark.parametrize("q, expected", [
        (3 ** 40, True), ((2 ** 61 - 1) ** 3, True), (2 ** 61 - 1, True),
        (6 ** 5, False), (1, False), (0, False)])
    def test_examples(self, q, expected):
        assert cli._is_prime_power(q) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2 ** 400), st.integers(1, 40))
    def test_integer_root(self, q, k):
        r = cli._iroot(q, k)
        assert r ** k <= q < (r + 1) ** k

    def test_strong_pseudoprimes_are_composite(self):
        # Carmichael numbers and the least strong pseudoprimes to the first
        # 2, 4, 7, 9 and 12 prime bases; the last has no factor below 2**16.
        for n in (561, 1729, 1373653, 3215031751, 341550071728321,
                  3825123056546413051, 318665857834031151167461):
            assert not cli._is_prime_power(n)


class TestNLambda:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "nlambda", "3,1")
        assert code == 0
        assert out.strip() == "q^3 + 5q^2 + 7q + 4"

    def test_ones(self, capsys):
        code, out, _ = run(capsys, "nlambda", "1,1,1,1,1")
        assert code == 0
        assert out.strip() == "q + 3"

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "nlambda", "")
        assert code == 0
        assert out.strip() == "1"

    def test_evaluation(self, capsys):
        code, out, _ = run(capsys, "nlambda", "2,1", "--at", "2")
        assert code == 0
        assert "q^2 + 5q + 5" in out
        assert "at q=2: 19" in out

    @pytest.mark.parametrize("q", ["-1", "0", "1", "6", "12", "100"])
    def test_at_not_a_prime_power_is_exit_1(self, capsys, q):
        for fmt in ([], ["--json"]):
            code, out, err = run(capsys, "nlambda", "2,1", "--at", q, *fmt)
            assert code == 1
            assert "error:" in err and "prime power" in err and out == ""

    def test_at_huge_composite_is_fast_exit_1(self, capsys):
        # 10**4000 + 1 has 4001 digits and least prime factor 19841.
        start = time.perf_counter()
        code, out, err = run(capsys, "nlambda", "2,1", "--at", str(10 ** 4000 + 1))
        assert time.perf_counter() - start < 1
        assert code == 1 and "prime power" in err and out == ""

    def test_at_prime_powers(self, capsys):
        # q^2 + 5q + 5 at prime powers, including a 61-bit prime.
        for q in (3, 4, 8, 9, 2 ** 61 - 1):
            code, out, _ = run(capsys, "nlambda", "2,1", "--at", str(q))
            assert code == 0
            assert f"at q={q}: {q * q + 5 * q + 5}" in out

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python renders ints of any length")
    def test_value_too_long_to_print_is_exit_1(self, capsys):
        # 3**1290 is a prime power of 2045 bits, within the --at budget, but
        # n_lambda(8) = q^8 + ... there has about 4924 digits, more than an
        # int may render: an error line and nothing on stdout.
        assert (3 ** 1290).bit_length() <= cli._AT_BITS
        for fmt in ([], ["--json"]):
            code, out, err = run(capsys, "nlambda", "8", "--at", str(3 ** 1290), *fmt)
            assert code == 1
            assert "error:" in err and "Q has" not in err and out == ""

    def test_at_bit_budget(self, capsys):
        # The Mersenne prime 2**1279 - 1 is within the budget and evaluates;
        # 2**4423 - 1 is past it and is refused before any primality test.
        q = 2 ** 1279 - 1
        code, out, _ = run(capsys, "nlambda", "2,1", "--at", str(q))
        assert code == 0 and f"at q={q}: {q * q + 5 * q + 5}" in out
        start = time.perf_counter()
        code, out, err = run(capsys, "nlambda", "2,1", "--at", str(2 ** 4423 - 1))
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert "Q has 4423 bits, past the 2048-bit budget" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "nlambda", "3,1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["partition"] == "3,1"
        assert QPolynomial.from_json(obj) == n_lambda(Partition.parse("3,1"))

    def test_parse_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "nlambda", "abc")
        assert code == 1
        assert "error" in err

    def test_multiplicity_below_one_is_exit_1(self, capsys):
        for text in ("3^0", "3^-1"):
            code, out, err = run(capsys, "nlambda", text)
            assert code == 1
            assert "error:" in err and out == ""

    def test_entry_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit):
            cli.entry()


class TestHugeInputs:
    """Input far past what any engine can hold exits 1 with a message and no
    traceback, within seconds."""

    @pytest.mark.parametrize("argv, message", [
        (["nlambda", "2,1", "--at", "318665857834031151167461"], "not a prime power"),
        (["verify", "1^999999999", "2"], "|M| = 2^999999999 exceeds budget"),
        (["verify", "99999999999999999999999", "2"], "exceeds budget"),
        (["verify", "4000000", "2"], "|M| = 2^4000000 exceeds budget"),
        (["nlambda", "99999999999999999999999"], "past int64"),
        (["census", "2^9999999999999999999999,1", "--max", "0:1"], "past int64"),
        (["census", "99999999999999999999999", "--max", "0:99999999999999999999999"],
         "ideal weights of the cells of 99999999999999999999999 reach"),
        (["verify", "8,3", "2", "--full-endos"], "pair space 4194304 exceeds budget"),
        (["verify", "2,1^2", "5", "--full-endos"], "|Aut M| * |M| = 3750000000")],
        ids=["at-psi12", "verify-1^999999999", "verify-23-digits", "verify-4000000",
             "nlambda-23-digits", "census-22-digit-mult", "census-23-digits",
             "full-endos-pair-space",
             "full-endos-kept-permutations"])
    def test_exit_1_with_message(self, argv, message):
        proc = run_module(*argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_of_memory_is_exit_1(self, capsys, monkeypatch):
        # A lattice whose mass list cannot be allocated, as for nlambda
        # "3000000000", without allocating it.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "n_lambda", exhausted)
        monkeypatch.setattr(cli, "orbit_census", exhausted)
        for argv in (["nlambda", "3000000000"], ["census", "1^99999999999999", "--max", "0:1"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == "error: out of memory: the input is too large\n"


class TestTable:
    def test_n1(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        assert "q + 2" in out

    def test_n5_rows(self, capsys):
        code, out, _ = run(capsys, "table", "5")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if "|" in l]
        assert len(lines) == 8  # header + 7 partitions
        assert "q^5 + 2q^4 + 2q^3 + 2q^2 + 2q + 2" in out
        assert "q^2 + 6q + 8" in out

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--latex")
        assert code == 0
        assert "\\begin{tabular}" in out
        assert "q^2 + 2q + 2" in out

    def test_latex_header_row(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--latex")
        assert code == 0
        assert out.splitlines() == [
            "\\begin{tabular}{|c|c|}", "\\hline", " partition & orbit count\\\\", "\\hline",
            " $ (2) $ & $ q^2 + 2q + 2 $\\\\", " $ (1, 1) $ & $ q + 3 $\\\\", "\\hline",
            "\\end{tabular}"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "partition,orbit count"


class TestCensus:
    def test_shape_2(self, capsys):
        code, out, _ = run(capsys, "census", "2", "--max", "1:2")
        assert code == 0
        assert "total: 2q - 1" in out

    def test_shape_1(self, capsys):
        code, out, _ = run(capsys, "census", "1", "--max", "0:1")
        assert code == 0
        assert "total: q" in out

    def test_out_of_context_is_exit_1(self, capsys):
        code, _, err = run(capsys, "census", "2", "--max", "0:1")
        assert code == 1
        assert "error" in err

    def test_comparable_max_points_is_exit_1(self, capsys):
        code, out, err = run(capsys, "census", "2,1", "--max", "1:2,0:2")
        assert code == 1
        assert out == ""
        assert "error: 1:2 <= 0:2: not an antichain" in err

    def test_repeated_max_point_is_merged(self, capsys):
        code, repeated, _ = run(capsys, "census", "2,1", "--max", "0:1,0:1")
        assert code == 0
        assert (0, repeated) == run(capsys, "census", "2,1", "--max", "0:1")[:2]

    def test_latex_cells_are_typeset(self, capsys):
        # Powers above 9 are braced in every cell, not only in the total.
        code, out, _ = run(capsys, "census", "6,5", "--max", "0:6", "--latex")
        assert code == 0
        assert " $ q^{10} - q^9 $ & $ q $\\\\" in out.splitlines()
        assert "q^10" not in out

    def test_latex_header_row(self, capsys):
        code, out, _ = run(capsys, "census", "6,5", "--max", "0:6", "--latex")
        assert code == 0
        assert out.splitlines()[:4] == ["\\begin{tabular}{|c|c|}", "\\hline",
                                        " cardinality & number of orbits\\\\", "\\hline"]
        # Column names are text, with LaTeX's specials escaped.
        code, out, _ = run(capsys, "refined", "2,1", "--latex")
        assert code == 0
        assert out.splitlines()[2] == \
            " first \\textbackslash{} second & [] & [1:2] & [0:1] & [0:2] & row sum\\\\"

    def test_json_is_one_document(self, capsys):
        code, out, _ = run(capsys, "census", "2,1", "--max", "0:2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "rows": [{"cardinality": "1", "number of orbits": "q^2"},
                     {"cardinality": "q^2 - q", "number of orbits": "q"}],
            "total": "q^2 + q"}


class TestRefined:
    def test_single_box(self, capsys):
        code, out, _ = run(capsys, "refined", "1")
        assert code == 0
        assert "q - 1" in out
        assert "grand total: q + 2" in out

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "refined", "")
        assert code == 0
        assert "grand total: 1" in out

    def test_grand_total_matches_n_lambda(self, capsys):
        code, out, _ = run(capsys, "refined", "2,1")
        assert code == 0
        assert "grand total: q^2 + 5q + 5" in out

    def test_limit_and_force(self, capsys):
        code, _, err = run(capsys, "refined", "9")
        assert code == 1
        assert "force" in err
        code, out, _ = run(capsys, "refined", "3,2,2,1,1", "--force")
        assert code == 0
        assert "grand total:" in out

    def test_json_is_one_document(self, capsys):
        code, out, _ = run(capsys, "refined", "2,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["grand total"] == "q^2 + 5q + 5"
        assert len(doc["rows"]) == 4
        assert doc["rows"][0]["first \\ second"] == "[]"


class TestQuiverVerifyConjecture:
    def test_quiver_1(self, capsys):
        code, out, _ = run(capsys, "quiver", "1")
        assert code == 0
        assert out.strip() == "q^2 + 2q"

    def test_quiver_breakdown(self, capsys):
        code, out, _ = run(capsys, "quiver", "2", "--breakdown")
        assert code == 0
        assert "((1),2)" in out
        assert "q^4 + 2q^3 + 4q^2 + 2q" in out

    def test_breakdown_latex_typesets_fractions(self, capsys):
        code, out, _ = run(capsys, "quiver", "4", "--breakdown", "--latex")
        assert code == 0
        assert " $ ((1),4) $ & $ \\frac{1}{4}q^4 - \\frac{1}{4}q^2 $ & $ q^4 + 2 $\\\\" \
            in out.splitlines()
        assert "\\frac{1}{24}q^4 - \\frac{1}{4}q^3 + \\frac{11}{24}q^2 - \\frac{1}{4}q" in out
        assert "(1/4)" not in out and "/" not in out

    def test_breakdown_json_is_one_document(self, capsys):
        code, out, _ = run(capsys, "quiver", "2", "--breakdown", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["coeffs"] == [0, 2, 4, 2, 1]
        assert [row["type"] for row in doc["rows"]] == \
            ["((1),1)^2", "((1),2)", "((1^2),1)", "((2),1)"]
        assert doc["rows"][0] == {"type": "((1),1)^2", "classes": "(1/2)q^2 - (1/2)q",
                                  "orbit count": "q^2 + 4q + 4"}

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "2,1", "2")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_verify_empty_partition(self, capsys):
        code, out, _ = run(capsys, "verify", "", "2")
        assert code == 0
        assert out.count("PASS") == 5

    def test_verify_composite_p_is_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "2,1", "4")
        assert code == 1
        assert "error:" in err and out == ""

    def test_verify_zero_p_is_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "2,1", "0")
        assert code == 1
        assert "error:" in err and out == ""

    def test_verify_p_one_is_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "2,1", "1")
        assert code == 1
        assert "error:" in err and out == ""

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True

    def test_conjecture(self, capsys):
        code, out, _ = run(capsys, "conjecture", "6")
        assert code == 0
        assert "no negative coefficients" in out

    def test_conjecture_below_one_is_exit_1(self, capsys):
        for n_max in ("0", "-3"):
            code, out, err = run(capsys, "conjecture", n_max)
            assert code == 1
            assert "error:" in err and out == ""


class TestUsageErrors:
    """A usage error (unknown option, missing or ill-typed argument) exits 1
    like any other bad input, with argparse's message and no traceback.  No
    option reads or writes a result file, so a file holding a wrong count
    can change no output: `--cache` is an unknown option."""

    @pytest.mark.parametrize("argv, message", [
        (["nlambda", "2,1", "--cache", "CACHE"], "unrecognized arguments: --cache"),
        (["table", "x"], "orbitpairs table: error: argument n: invalid int value: 'x'"),
        ([], "orbitpairs: error: the following arguments are required: command"),
        (["verify", "2,1"], "orbitpairs verify: error: the following arguments are required: p")],
        ids=["nlambda-cache", "table-x", "no-command", "verify-missing-p"])
    def test_exit_1(self, tmp_path, argv, message):
        cache = tmp_path / "nl.json"
        cache.write_text(json.dumps({"2,1": [7, 0, 1]}))
        before = cache.read_bytes()
        proc = run_module(*[str(cache) if a == "CACHE" else a for a in argv])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("usage: orbitpairs")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert cache.read_bytes() == before

    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]])
    def test_help_is_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: orbitpairs") and "--cache" not in out


def test_import_graph_has_no_fractions():
    # Every count is an int polynomial; a rational one is an int
    # polynomial over an int denominator, so fractions is never loaded.
    src = os.path.dirname(os.path.dirname(orbitpairs.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, orbitpairs.cli; "
         "assert not {'fractions', 'decimal'} & set(sys.modules), sorted(sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
