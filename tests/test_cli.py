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
        # 2, 4, 7 and 9 prime bases.
        for n in (561, 1729, 1373653, 3215031751, 341550071728321,
                  3825123056546413051):
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
        # 3**6000 is a prime power, but q^2 + 5q + 5 there has more digits
        # than an int may render: an error line and nothing on stdout.
        for fmt in ([], ["--json"]):
            code, out, err = run(capsys, "nlambda", "2,1", "--at", str(3 ** 6000), *fmt)
            assert code == 1
            assert "error:" in err and out == ""

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


class TestCache:
    def test_warm_equals_cold(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        _, cold, _ = run(capsys, "table", "4", "--cache", cache)
        data = json.loads(open(cache).read())
        assert "3,1" in data
        _, warm, _ = run(capsys, "table", "4", "--cache", cache)
        assert warm == cold

    def test_cache_content_is_trusted(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"2": [9, 9, 1]}))
        _, out, _ = run(capsys, "nlambda", "2", "--cache", str(cache))
        assert out.strip() == "q^2 + 9q + 9"

    def test_corrupt_cache_warns_and_recomputes(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        code, out, err = run(capsys, "nlambda", "2", "--cache", str(cache))
        assert code == 0
        assert "warning" in err
        assert out.strip() == "q^2 + 2q + 2"

    def test_invalid_entries_rejected(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"not a partition": [1]}))
        code, out, err = run(capsys, "nlambda", "2", "--cache", str(cache))
        assert code == 0
        assert "warning" in err
        assert out.strip() == "q^2 + 2q + 2"

    def test_written_once_atomically(self, capsys, tmp_path, monkeypatch):
        replaced = []
        real_replace = cli.os.replace

        def counting_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", counting_replace)
        cache = tmp_path / "cache.json"
        _, cold, _ = run(capsys, "table", "5", "--cache", str(cache))
        assert replaced == [str(cache)]
        assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]
        assert len(json.loads(cache.read_text())) == 7
        _, warm, _ = run(capsys, "table", "5", "--cache", str(cache))
        assert warm == cold
        assert replaced == [str(cache)]
        assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]

    def test_interrupted_write_keeps_old_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"2": [2, 2, 1]}))

        def dump_then_die(obj, fh, **kw):
            fh.write("{")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.json, "dump", dump_then_die)
        with pytest.raises(KeyboardInterrupt):
            run(capsys, "table", "3", "--cache", str(cache))
        assert json.loads(cache.read_text()) == {"2": [2, 2, 1]}
        assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]

    def test_key_is_canonicalised(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"1,1": [5, 1]}))
        code, out, err = run(capsys, "nlambda", "1^2", "--cache", str(cache))
        assert code == 0 and err == ""
        assert out.strip() == "q + 5"

    def test_bad_entries_dropped_one_by_one(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"2": [9, 9, 2], "1": [3, 0, 1],
                                     "3": ["1/2", 0, 0, 1], "1,1": [5, 1]}))
        code, out, err = run(capsys, "table", "2", "--cache", str(cache))
        assert code == 0
        dropped = [line.split("'")[1] for line in err.splitlines()
                   if line.startswith("warning: dropping cache entry")]
        assert dropped == ["2", "1", "3"]
        assert "q^2 + 2q + 2" in out
        assert "q + 5" in out
        assert json.loads(cache.read_text()) == {"1^2": [5, 1], "2": [2, 2, 1]}

    def test_unwritable_cache_is_exit_1(self, tmp_path):
        # A subprocess, so that an escaping exception shows as a traceback.
        src = os.path.dirname(os.path.dirname(orbitpairs.__file__))
        cache = str(tmp_path / "missing" / "x.json")
        proc = subprocess.run(
            [sys.executable, "-m", "orbitpairs.cli", "nlambda", "2", "--cache", cache],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert repr(cache) in proc.stderr
        assert ".tmp" not in proc.stderr
