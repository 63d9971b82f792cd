"""CLI behavior: outputs, formats, exit codes, and determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import lucanomials
from lucanomials import bijection, cli, lucas, narayana, polys, tilings
from lucanomials.cli import _emit_checks, main
from lucanomials.lucas import fib_factorial, fibonacci, lucanomial
from lucanomials.polys import render
from lucanomials.tilings import enumerate_rect_tilings

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def decimal(value):
    """str(value) regardless of the interpreter's int-to-str digit limit."""
    if not HAS_DIGIT_LIMIT:
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


VERIFY_TARGETS = ["theorem1", "theorem2", "theorem3", "bijection", "catalan", "classical"]


def fibonomial_quotient(n, k):
    return fib_factorial(n) // (fib_factorial(k) * fib_factorial(n - k))


class TestValueCommands:
    def test_lucas_text(self, capsys):
        code, out = run(capsys, "lucas", "--n", "4")
        assert code == 0
        assert out == "s^3 + 2*s*t\n"

    def test_lucas_json(self, capsys):
        code, out = run(capsys, "lucas", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "terms": [{"c": "1", "s": 3, "t": 0}, {"c": "2", "s": 1, "t": 1}]
        }

    def test_lucanomial_text_matches_library(self, capsys):
        code, out = run(capsys, "lucanomial", "--n", "6", "--k", "3", "--format", "text")
        assert code == 0
        assert out.strip() == render(lucanomial(6, 3))

    def test_fibonomial(self, capsys):
        assert run(capsys, "fibonomial", "--n", "6", "--k", "3") == (0, "60\n")

    def test_fibonomial_json_uses_decimal_strings(self, capsys):
        code, out = run(capsys, "fibonomial", "--n", "20", "--k", "10", "--format", "json")
        assert code == 0
        value = json.loads(out)["value"]
        assert isinstance(value, str)
        assert int(value) > 2**63

    def test_narayana_modes(self, capsys):
        assert run(capsys, "narayana", "--n", "5", "--k", "2", "--mode", "fibo") == (0, "15\n")
        assert run(capsys, "narayana", "--n", "4", "--k", "2", "--mode", "classical") == (0, "6\n")
        code, out = run(capsys, "narayana", "--n", "3", "--k", "2", "--mode", "general")
        assert (code, out) == (0, "s^2 + t\n")

    def test_catalan_modes(self, capsys):
        assert run(capsys, "catalan", "--n", "3", "--mode", "fibo") == (0, "20\n")
        assert run(capsys, "catalan", "--n", "4", "--mode", "classical") == (0, "14\n")

    def test_classical_modes_use_the_binomial_formulas(self, capsys, monkeypatch):
        # The classical values never build the generalized polynomials.
        def refuse(*args):
            raise AssertionError("classical mode built a polynomial")

        monkeypatch.setattr(narayana, "generalized_narayana", refuse)
        monkeypatch.setattr(narayana, "generalized_catalan", refuse)
        expected = comb(120, 60) * comb(120, 59) // 120
        assert run(capsys, "narayana", "--n", "120", "--k", "60", "--mode", "classical") == (
            0, f"{expected}\n")
        assert run(capsys, "catalan", "--n", "60", "--mode", "classical") == (
            0, f"{comb(120, 60) // 61}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("lucas", "--n", "-1"), "--n must be nonnegative"),
            (("lucanomial", "--n", "-1", "--k", "0"), "--n must be nonnegative"),
            (("fibonomial", "--n", "-1", "--k", "0"), "--n must be nonnegative"),
            (("catalan", "--n", "-1"), "--n must be nonnegative"),
            (("narayana", "--n", "0", "--k", "1"), "--n must be positive"),
        ],
    )
    def test_n_below_least_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, *argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"error: {message}")


class TestLargeValues:
    def test_fibonomial_deep_first_column(self, capsys):
        code, out = run(capsys, "fibonomial", "--n", "1000", "--k", "1")
        assert code == 0
        assert out == decimal(fibonomial_quotient(1000, 1)) + "\n"

    def test_fibonomial_past_digit_limit(self, capsys):
        expected = decimal(fibonomial_quotient(290, 145))
        assert len(expected) > 4300
        assert run(capsys, "fibonomial", "--n", "290", "--k", "145") == (0, expected + "\n")
        code, out = run(capsys, "fibonomial", "--n", "290", "--k", "145", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"value": expected}

    def test_fibocatalan_past_digit_limit(self, capsys):
        quotient, remainder = divmod(fibonomial_quotient(290, 145), fibonacci(146))
        assert remainder == 0
        code, out = run(capsys, "catalan", "--n", "145", "--mode", "fibo")
        assert code == 0
        assert out == decimal(quotient) + "\n"

    def test_failing_theorem2_report_past_digit_limit(self, capsys):
        # n = 204 is the first row of the verify theorem2 sweep whose values
        # pass Python's 4300-digit int-to-str limit.  The report holds the
        # ints; a failing line and the JSON check print them in full.
        report = cli._TARGETS["theorem2"].check(204, 102)
        expected = decimal(report["lhs"])
        assert len(expected) > 4300 and report["lhs"] == report["rhs"]
        report["pass"] = False
        assert _emit_checks("theorem2", [report], "text") == 1
        assert capsys.readouterr().out == (
            f"theorem2 n=204 k=102 FAIL lhs={expected} rhs={expected}\n"
            "theorem2: 1 checks FAILED\n"
        )
        assert _emit_checks("theorem2", [report], "json") == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["lhs"] == check["rhs"] == expected

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="interpreter has no int-to-str digit limit")
    def test_digit_limit_restored_after_output(self, capsys):
        before = sys.get_int_max_str_digits()
        run(capsys, "fibonomial", "--n", "290", "--k", "145")
        assert sys.get_int_max_str_digits() == before

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="interpreter has no int-to-str digit limit")
    def test_huge_n_argument_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "fibonomial", "--n", "1" * 5000, "--k", "1")
        assert excinfo.value.code == 2

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="interpreter has no int-to-str digit limit")
    def test_huge_input_json_int_still_rejected(self, capsys, tmp_path):
        triple = tmp_path / "triple.json"
        triple.write_text('{"small_stair": ' + "1" * 5000 + "}")
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "inverse", "--n", "6", "--k", "3", "--input", str(triple))
        assert excinfo.value.code == 2
        assert "Exceeds the limit" in capsys.readouterr().err


class TestTilingsCommand:
    def test_count(self, capsys):
        assert run(capsys, "tilings", "count", "--n", "4", "--k", "2") == (0, "6\n")

    def test_count_equals_enumeration(self, capsys):
        for n in range(9):
            for k in range(n + 1):
                expected = len(list(enumerate_rect_tilings(n, k)))
                assert run(capsys, "tilings", "count", "--n", str(n), "--k", str(k)) == (
                    0, f"{expected}\n"), (n, k)

    def test_count_equals_fibonomial(self, capsys):
        # Past n = 12 listing the tilings one by one is out of reach:
        # --n 16 --k 8 alone has 19 344 810 307 020 of them.
        for n in range(21):
            for k in range(n + 1):
                assert run(capsys, "tilings", "count", "--n", str(n), "--k", str(k)) == (
                    0, f"{fibonomial_quotient(n, k)}\n"), (n, k)

    def test_list_text_is_one_json_object_per_line(self, capsys):
        code, out = run(capsys, "tilings", "list", "--n", "4", "--k", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        parsed = [json.loads(line) for line in lines]
        assert all(set(obj) == {"lambda", "lambda_rows", "star_rows"} for obj in parsed)

    def test_list_text_is_printed_as_tilings_are_enumerated(self, capsys, monkeypatch):
        def first_then_fail(n, k):
            yield next(enumerate_rect_tilings(n, k))
            raise RuntimeError("stop")

        monkeypatch.setattr(tilings, "enumerate_rect_tilings", first_then_fail)
        with pytest.raises(RuntimeError):
            main(["tilings", "list", "--n", "4", "--k", "2"])
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_list_json_is_an_array(self, capsys):
        code, out = run(capsys, "tilings", "list", "--n", "4", "--k", "2", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 6


class TestBijectionCommand:
    def test_forward_inverse_roundtrip(self, capsys, tmp_path):
        stair = tmp_path / "stair.txt"
        stair.write_text("SDSS\nDD\nDS\nD\nS\n")
        code, out = run(capsys, "bijection", "forward", "--n", "6", "--k", "3",
                        "--input", str(stair), "--format", "json")
        assert code == 0
        triple_file = tmp_path / "triple.json"
        triple_file.write_text(out)
        code, out = run(capsys, "bijection", "inverse", "--n", "6", "--k", "3",
                        "--input", str(triple_file))
        assert code == 0
        assert out == "SDSS\nDD\nDS\nD\nS\n"

    def test_forward_size_mismatch_is_usage_error(self, capsys, tmp_path):
        stair = tmp_path / "stair.txt"
        stair.write_text("SS\nS\n")
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "forward", "--n", "6", "--k", "3", "--input", str(stair))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            "[1, 2]",
            '{"small_stair": 5, "other_stair": [], "rect": {}}',
            '{"small_stair": [], "other_stair": [], "rect": [1]}',
            '{"small_stair": [], "other_stair": [], '
            '"rect": {"lambda": [null], "lambda_rows": [], "star_rows": []}}',
        ],
    )
    def test_malformed_inverse_input_is_usage_error(self, capsys, tmp_path, payload):
        triple = tmp_path / "triple.json"
        triple.write_text(payload)
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "inverse", "--n", "6", "--k", "3", "--input", str(triple))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed" in captured.err

    @pytest.mark.parametrize(
        "rect,stair",
        [
            ({"lambda": [1.5], "lambda_rows": ["S"], "star_rows": [""]}, []),
            ({"lambda": [True], "lambda_rows": ["S"], "star_rows": [""]}, []),
            ({"lambda": ["1"], "lambda_rows": ["S"], "star_rows": [""]}, []),
            ({"lambda": [1], "lambda_rows": [1], "star_rows": [""]}, []),
            ({"lambda": [0], "lambda_rows": [""], "star_rows": ["D"]}, [1]),
        ],
    )
    def test_inexact_json_types_are_usage_errors(self, capsys, tmp_path, rect, stair):
        # With int() and str() coercion, the first three printed "S" and exited 0.
        triple = tmp_path / "triple.json"
        triple.write_text(json.dumps({"small_stair": [], "other_stair": stair, "rect": rect}))
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "inverse", "--n", "2", "--k", "1", "--input", str(triple))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed" in captured.err

    @pytest.mark.parametrize("action", ["forward", "inverse"])
    @pytest.mark.parametrize("k", [0, 6])
    def test_k_outside_one_to_n_minus_one_is_usage_error(self, capsys, tmp_path, action, k):
        # Valid input for (n=6, k), so only the --k domain rejects it.
        t = bijection.StairstepTiling(("SDSS", "DD", "DS", "D", "S"))
        data = tmp_path / "data"
        if action == "forward":
            data.write_text(t.to_text() + "\n")
        else:
            data.write_text(json.dumps(bijection.forward(t, k).to_json_dict()))
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", action, "--n", "6", "--k", str(k), "--input", str(data))
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_input_file(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "forward", "--n", "4", "--k", "2",
                "--input", str(tmp_path / "absent.txt"))
        assert excinfo.value.code == 2
        assert "file not found" in capsys.readouterr().err

    def test_input_through_a_pipe(self, capsys, tmp_path):
        # A pipe is no regular file, yet it is readable input.
        stair = tmp_path / "stair.txt"
        stair.write_text("SDSS\nDD\nDS\nD\nS\n")
        argv = ["bijection", "forward", "--n", "6", "--k", "3", "--format", "json", "--input"]
        expected = run(capsys, *argv, str(stair))
        assert expected[0] == 0
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as writer:
            writer.write(stair.read_text())
        try:
            assert run(capsys, *argv, f"/dev/fd/{read_end}") == expected
        finally:
            os.close(read_end)

    def test_directory_input_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "forward", "--n", "4", "--k", "2", "--input", str(tmp_path))
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("action", ["forward", "inverse"])
    def test_non_utf8_input_is_usage_error(self, capsys, tmp_path, action):
        data = tmp_path / "data.bin"
        data.write_bytes(b"SD\xff\xfe\nS\n")
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", action, "--n", "3", "--k", "1", "--input", str(data))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "UTF-8" in captured.err

    def test_deeply_nested_inverse_input_is_usage_error(self, capsys, tmp_path):
        triple = tmp_path / "triple.json"
        triple.write_text("[" * 200000)
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "bijection", "inverse", "--n", "6", "--k", "3", "--input", str(triple))
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


class TestVerifyCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "theorem1", "--n-max", "6"),
            ("verify", "theorem2", "--n-max", "8"),
            ("verify", "theorem3", "--n-max", "6"),
            ("verify", "bijection", "--n-max", "5"),
            ("verify", "catalan", "--n-max", "5"),
            ("verify", "classical", "--n-max", "8"),
        ],
    )
    def test_sweeps_pass(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert "FAIL" not in out

    NARAYANA_KEYS = {"n", "k", "lhs", "rhs", "oracle_agrees", "nonneg", "pass"}
    COUNT_KEYS = {"n", "k", "lhs", "rhs", "injective", "surjective", "pass"}

    @pytest.mark.parametrize(
        "argv,keys,first",
        [
            pytest.param(("theorem1", "--n-max", "4"), {"n", "k", "lhs", "rhs", "pass"},
                         {"lhs": "1"}, id="theorem1"),
            pytest.param(("theorem2", "--n-max", "4"), NARAYANA_KEYS, {"lhs": "1"}, id="theorem2"),
            pytest.param(("theorem2", "--n", "5", "--k", "2"), COUNT_KEYS | {"no_domino", "domino"},
                         {"lhs": "180", "no_domino": "108", "domino": "72"}, id="theorem2-pair"),
            pytest.param(("theorem3", "--n-max", "4"), NARAYANA_KEYS, {"lhs": "1"}, id="theorem3"),
            pytest.param(("bijection", "--n", "6", "--k", "3"), COUNT_KEYS, {"lhs": "240"},
                         id="bijection"),
            pytest.param(("catalan", "--n-max", "4"), {"n", "lhs", "rhs", "nonneg", "pass"},
                         {"lhs": "1"}, id="catalan"),
            pytest.param(("classical", "--n-max", "8"), {"n_max", "pass", "first_failure"},
                         {"first_failure": None}, id="classical"),
        ],
    )
    def test_json_schema(self, capsys, argv, keys, first):
        # Every check of a target has the same fields, with no duplicate
        # value field; counts and values are JSON strings.
        code, out = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"target", "pass", "checks"}
        assert payload["target"] == argv[0]
        assert payload["pass"] is True
        for check in payload["checks"]:
            assert set(check) == keys
            assert check["pass"] is True
            assert all(isinstance(check[key], str) for key in keys & {"lhs", "rhs", "no_domino", "domino"})
        assert {key: payload["checks"][0][key] for key in first} == first

    def test_classical_json_schema(self, capsys):
        code, out = run(capsys, "verify", "classical", "--n-max", "8", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "target": "classical",
            "pass": True,
            "checks": [{"n_max": 8, "pass": True, "first_failure": None}],
        }

    def test_classical_text(self, capsys):
        assert run(capsys, "verify", "classical", "--n-max", "8") == (0, "classical n_max=8 ok\n")
        assert run(capsys, "verify", "classical", "--n", "3") == (0, "classical n_max=3 ok\n")

    def test_single_theorem2_past_the_old_exhaustive_range(self, capsys):
        # 748 800 pairs of stairstep tilings, each decomposed and keyed.
        code, out = run(capsys, "verify", "theorem2", "--n", "7", "--k", "3")
        assert (code, out) == (0, "theorem2 n=7 k=3 ok\ntheorem2: 1 checks passed\n")

    def test_single_theorem2_runs_pair_decomposition(self, capsys):
        code, out = run(capsys, "verify", "theorem2", "--n", "5", "--k", "2",
                        "--format", "json")
        assert code == 0
        report = json.loads(out)["checks"][0]
        assert report["lhs"] == report["rhs"] == "180"

    # Stdout of `verify <target> --n-max 6` in text and JSON, recorded while
    # every report still carried lhs and rhs as text.
    SWEEPS_TO_6 = {
        "theorem1": ("ca628e8f82c2ba2a2d70b5b085935bb17191184642ff56f6fbf45d23d0d27911",
                     "dbc10e3ac5a5dc4739c7663bc7fbf487bf308e03c843a0e239fc97948df807af", 28),
        "theorem2": ("d3763702b29b80ba61fb1feb534d892ca3eeafbc3683cf5314d2428d13eea581",
                     "2aff8a37e3e60d32ae6c22e2e52fe0827f66415c8bb50d4b2a6964b43adade8f", 20),
        "theorem3": ("92d77f31838ad16af7789a4fe5e570e3662cd2ea71e9fb04ac4ac00a608717ba",
                     "155b140e9ba129086a1cc7ad0a5d41c8e144527138edf83b8fc605262331d0e5", 20),
        "catalan": ("85a2c3066a5ffb55a3cd61c2510ab2dfafcb54b3f7e1ee51ca9d912745b5b61e",
                    "8f4756d1f505861a1b0c866503602640c97a2c9bef5b308945cf529a11047260", 7),
    }

    @pytest.mark.parametrize("target", SWEEPS_TO_6)
    def test_passing_text_sweep_renders_nothing(self, capsys, monkeypatch, target):
        # render and int_text both convert through _no_digit_limit.
        def refuse(convert, value):
            raise AssertionError(f"rendered {value!r}")

        monkeypatch.setattr(polys, "_no_digit_limit", refuse)
        code, out = run(capsys, "verify", target, "--n-max", "6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SWEEPS_TO_6[target][0]

    @pytest.mark.parametrize("target", SWEEPS_TO_6)
    def test_json_sweep_renders_lhs_and_rhs_once_per_check(self, capsys, monkeypatch, target):
        original = polys._no_digit_limit
        calls = []

        def counting(convert, value):
            calls.append(value)
            return original(convert, value)

        monkeypatch.setattr(polys, "_no_digit_limit", counting)
        code, out = run(capsys, "verify", target, "--n-max", "6", "--format", "json")
        assert code == 0
        _, digest, count = self.SWEEPS_TO_6[target]
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        checks = json.loads(out)["checks"]
        assert len(checks) == count and len(calls) == 2 * count

    def test_text_sweep_has_per_check_lines(self, capsys):
        code, out = run(capsys, "verify", "theorem1", "--n-max", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert "theorem1 n=2 k=1 ok" in lines
        assert lines[-1] == "theorem1: 10 checks passed"

    def test_failing_check_mid_sweep(self, capsys, monkeypatch):
        # One failing check among nine: the text lines after it, the summary
        # and the JSON object are the bytes the sweep always printed.
        target = cli._TARGETS["theorem3"]
        original = target.check

        def failing_at_3_2(n, k):
            report = original(n, k)
            if (n, k) == (3, 2):
                report["oracle_agrees"] = report["pass"] = False
            return report

        monkeypatch.setitem(cli._TARGETS, "theorem3", target._replace(check=failing_at_3_2))
        assert run(capsys, "verify", "theorem3", "--n-max", "4") == (1, (
            "theorem3 n=2 k=1 ok\n"
            "theorem3 n=2 k=2 ok\n"
            "theorem3 n=3 k=1 ok\n"
            "theorem3 n=3 k=2 FAIL lhs=s^2 + t rhs=s^2 + t\n"
            "theorem3 n=3 k=3 ok\n"
            "theorem3 n=4 k=1 ok\n"
            "theorem3 n=4 k=2 ok\n"
            "theorem3 n=4 k=3 ok\n"
            "theorem3 n=4 k=4 ok\n"
            "theorem3: 9 checks FAILED\n"
        ))
        code, out = run(capsys, "verify", "theorem3", "--n-max", "4", "--format", "json")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1b2b37ee99d9160bfdf4af2db5b7f75e7e9acff967caef36b5a3820897729fd7"
        )
        checks = json.loads(out)["checks"]
        assert [c["pass"] for c in checks] == [True] * 3 + [False] + [True] * 5

    def test_theorem1_sweep_builds_one_row_per_n(self, capsys, monkeypatch):
        # The sweep reads the row memo, each row one step from the row before;
        # --n fills its one rectangle.
        points = []

        def counting(n, k, original=tilings.lucanomial_tiling_oracle):
            points.append((n, k))
            return original(n, k)

        monkeypatch.setattr(tilings, "lucanomial_tiling_oracle", counting)
        tilings._tiling_row.cache_clear()
        code, out = run(capsys, "verify", "theorem1", "--n-max", "14")
        assert code == 0 and out.endswith("\ntheorem1: 120 checks passed\n")
        assert run(capsys, "verify", "theorem1", "--n", "14", "--k", "5")[0] == 0
        info = tilings._tiling_row.cache_info()
        assert (points, info.misses, info.maxsize) == ([(14, 5)], 15, lucas.MEMO_SIZE)

    @staticmethod
    def assert_one_failing_check(capsys, argv, text, flags):
        """argv runs one check, which fails: its exact text, exit 1, and the
        given fields of its JSON report."""
        assert run(capsys, *argv) == (1, text)
        code, out = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["pass"] is False
        (check,) = payload["checks"]
        assert {key: check[key] for key in flags} == flags

    def test_theorem1_rhs_route_disagreeing_fails(self, capsys, monkeypatch):
        original = lucanomial
        monkeypatch.setattr(cli, "lucanomial",
                            lambda n, k: original(n, k) + polys.T if (n, k) == (2, 1) else original(n, k))
        self.assert_one_failing_check(
            capsys, ("verify", "theorem1", "--n", "2", "--k", "1"),
            "theorem1 n=2 k=1 FAIL lhs=s rhs=s + t\ntheorem1: 1 checks FAILED\n",
            {"n": 2, "k": 1, "lhs": "s", "rhs": "s + t", "pass": False})

    @pytest.mark.parametrize(
        "extra,rendered,nonneg",
        [
            (polys.ONE, "s^2 + 2*t + 1", True),  # 4 at s = t = 1, not 3
            (polys.T - polys.S, "s^2 - s + 3*t", False),  # 3 at s = t = 1, a negative coefficient
        ],
    )
    def test_catalan_polynomial_failing_fails(self, capsys, monkeypatch, extra, rendered, nonneg):
        original = narayana.generalized_catalan
        monkeypatch.setattr(narayana, "generalized_catalan", lambda n: original(n) + extra)
        self.assert_one_failing_check(
            capsys, ("verify", "catalan", "--n", "2"),
            f"catalan n=2 FAIL lhs=3 rhs={rendered}\ncatalan: 1 checks FAILED\n",
            {"n": 2, "lhs": "3", "rhs": rendered, "nonneg": nonneg, "pass": False})

    def test_bijection_count_failing_fails(self, capsys, monkeypatch):
        # One more rectangle tiling than there are: F_4! = 6 stairsteps
        # cannot cover 7 triples.
        original = bijection.fibonomial
        monkeypatch.setattr(bijection, "fibonomial", lambda n, k: original(n, k) + 1)
        self.assert_one_failing_check(
            capsys, ("verify", "bijection", "--n", "4", "--k", "2"),
            "bijection n=4 k=2 FAIL lhs=6 rhs=7\nbijection: 1 checks FAILED\n",
            {"lhs": "6", "rhs": "7", "injective": True, "surjective": False, "pass": False})

    def test_text_lines_are_printed_as_checks_run(self, capsys, monkeypatch):
        target = cli._TARGETS["theorem3"]
        original = target.check

        def broken_at_4_1(n, k):
            if (n, k) == (4, 1):
                raise RuntimeError("stop")
            return original(n, k)

        monkeypatch.setitem(cli._TARGETS, "theorem3", target._replace(check=broken_at_4_1))
        with pytest.raises(RuntimeError):
            main(["verify", "theorem3", "--n-max", "4"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1] == "theorem3 n=3 k=3 ok"

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "verify", "theorem3", "--n-max", "5", "--format", "json")
        _, second = run(capsys, "verify", "theorem3", "--n-max", "5", "--format", "json")
        assert first == second

    def test_default_theorem1_sweep_reaches_16(self, capsys):
        code, out = run(capsys, "verify", "theorem1")
        assert code == 0
        lines = out.strip().split("\n")
        assert "theorem1 n=16 k=8 ok" in lines
        assert lines[-1] == "theorem1: 153 checks passed"

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "catalan", "--n", "3", "--k", "5"),
            ("verify", "classical", "--n", "3", "--k", "9"),
            ("verify", "theorem1", "--n", "2", "--n-max", "9"),
            ("verify", "bijection", "--n", "4", "--k", "2", "--n-max", "5"),
            # Every other flag a subcommand does not define is a usage error.
            ("lucas", "--n", "3", "--k", "1"),
            ("lucas", "--n", "3", "--mode", "fibo"),
            ("catalan", "--n", "3", "--k", "2"),
            ("fibonomial", "--n", "3", "--k", "1", "--n-max", "4"),
            ("tilings", "count", "--n", "4", "--k", "2", "--mode", "fibo"),
            ("tilings", "list", "--n", "4", "--k", "2", "--input", "x"),
            ("bijection", "forward", "--n", "3", "--k", "1", "--input", "x", "--n-max", "2"),
            ("verify", "theorem1", "--mode", "fibo"),
            ("verify", "theorem1", "--input", "x"),
        ],
    )
    def test_ignored_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, *argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert argv[-2] in err  # the error names the flag, not some other fault

    def test_k_without_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "verify", "bijection", "--k", "3")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("target", VERIFY_TARGETS)
    @pytest.mark.parametrize(
        "flags",
        [
            ("--k", "1"),  # --k without --n
            ("--n", "4", "--n-max", "5"),  # --n with --n-max
            ("--n", "4", "--k", "5"),  # k out of range (or --k on an n-only target)
            ("--n", "-1"),  # negative n
            ("--n-max", "-1"),  # negative --n-max
        ],
    )
    def test_usage_errors_exit_2_for_every_target(self, capsys, target, flags):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "verify", target, *flags)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        if flags[1] == "-1":
            # A negative bound is a bound with no check, and the error names its flag.
            assert err.splitlines()[-1].endswith(f"has no check at {' '.join(flags)}")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "theorem2", "--n", "1"),
            ("verify", "theorem3", "--n", "0"),
            ("verify", "bijection", "--n", "1"),
            ("verify", "classical", "--n", "0"),
            ("verify", "classical", "--n-max", "0"),
            # A sweep that stops below the target's first n has no check.
            ("verify", "theorem2", "--n-max", "1"),
            ("verify", "theorem3", "--n-max", "1"),
            ("verify", "bijection", "--n-max", "1"),
        ],
    )
    def test_n_without_checks_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, *argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("k_flags", [(), ("--k", "1")])
    @pytest.mark.parametrize("target", [name for name, row in cli._TARGETS.items() if row.first >= 1])
    def test_n_below_the_first_checked_n_is_usage_error(self, capsys, target, k_flags):
        # --n checks only n >= first, as a sweep does.
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "verify", target, "--n", str(cli._TARGETS[target].first - 1), *k_flags)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_single_n_checks_every_k(self, capsys):
        # theorem2 checks the pair decomposition and bijection the
        # cardinality at every 1 <= k <= n - 1.
        for target in ("theorem2", "bijection"):
            code, out = run(capsys, "verify", target, "--n", "5")
            assert code == 0
            assert out == "".join(f"{target} n=5 k={k} ok\n" for k in range(1, 5)) + (
                f"{target}: 4 checks passed\n"
            )
        code, out = run(capsys, "verify", "theorem2", "--n", "5", "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(c["k"], c["lhs"]) for c in checks] == [(k, "180") for k in range(1, 5)]
        assert all(c["injective"] and c["pass"] for c in checks)

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, "lucanomial", "--n", "6")
        assert excinfo.value.code == 2


class TestKernelTraffic:
    """Every product the commands form multiplies nonnegative rows.

    The packed tiers of the multiply kernel take nonnegative rows only, and
    a signed row pair takes the pairwise loop, which is quadratic in the row
    lengths.  A route that starts forming signed products fails here instead
    of running slowly unnoticed.
    """

    COMMANDS = [["verify", target] for target in VERIFY_TARGETS] + [
        ["lucas", "--n", "12"],
        ["lucanomial", "--n", "14", "--k", "6"],
        ["fibonomial", "--n", "14", "--k", "6"],
        *(["narayana", "--n", "12", "--k", "5", "--mode", mode] for mode in ("fibo", "general", "classical")),
        *(["catalan", "--n", "9", "--mode", mode] for mode in ("fibo", "general", "classical")),
    ]

    @staticmethod
    def record_products(monkeypatch) -> dict:
        """Per kernel, one entry per product it forms: whether both rows are nonnegative."""
        products = {"_mul_schoolbook": [], "_mul_kronecker": []}
        for name, seen in products.items():
            def recording(a, b, original=getattr(polys, name), seen=seen):
                seen.append(min(a) >= 0 and min(b) >= 0)
                return original(a, b)

            monkeypatch.setattr(polys, name, recording)
        return products

    @staticmethod
    def clear_memos() -> list:
        """Empty every memo, so that a command forms every product it needs; return them."""
        memos = [value for module in (lucas, narayana, tilings)
                 for value in vars(module).values() if hasattr(value, "cache_clear")]
        for memo in memos:
            memo.cache_clear()
        return memos

    def test_no_signed_row_products(self, capsys, monkeypatch):
        products = self.record_products(monkeypatch)
        memos = self.clear_memos()
        # Every sequence and (n, k) family carries its memo, so the loop above reaches it.
        families = [lucas.lucas, lucas.fibonacci, lucas.lucanomial, lucas.fibonomial,
                    narayana.fibonarayana, narayana.generalized_narayana,
                    narayana.fibonarayana_recurrence, narayana.generalized_narayana_recurrence,
                    narayana.fibonarayana_definition_oracle,
                    narayana.generalized_narayana_definition_oracle]
        for family in families:
            assert family in memos and family.cache_info().currsize == 0, family.__name__
        for argv in self.COMMANDS:
            assert run(capsys, *argv)[0] == 0, argv
        assert all(products.values())  # both kernels ran
        assert all(map(all, products.values()))

    def test_tilings_count_forms_no_poly_product(self, capsys, monkeypatch):
        # The count fills the rectangle in Z, so not even {x} is built as a Poly.
        products = self.record_products(monkeypatch)
        self.clear_memos()
        assert run(capsys, "tilings", "count", "--n", "12", "--k", "6") == (
            0, f"{fibonomial_quotient(12, 6)}\n")
        assert products == {"_mul_schoolbook": [], "_mul_kronecker": []}


class TestModuleState:
    """Every memo is a bounded lru_cache: running commands grows no module-level container."""

    # Every verify target and value command, in a new interpreter so that the
    # containers start as the import leaves them; the commands share that process.
    SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys
import lucanomials
from lucanomials.cli import main
modules = [lucanomials] + [importlib.import_module("lucanomials." + info.name)
                           for info in pkgutil.iter_modules(lucanomials.__path__)]
def sizes():
    return {f"{module.__name__}.{name}": len(value) for module in modules
            for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set))}
before = sizes()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(name for name, size in sizes().items() if before.get(name) != size))
"""

    def test_commands_grow_no_module_container(self):
        env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
        env["PYTHONPATH"] = str(Path(lucanomials.__file__).resolve().parent.parent)
        argv = [sys.executable, "-c", self.SCRIPT, json.dumps(TestKernelTraffic.COMMANDS)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestClosedStdout:
    @staticmethod
    def close_after_first_line(launcher):
        # The sweep prints about 110 kB, more than a pipe holds, so the CLI is
        # still writing when the reader closes after the first line.
        env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
        env["PYTHONPATH"] = str(Path(lucanomials.__file__).resolve().parent.parent)
        argv = [*launcher, "verify", "theorem2", "--n-max", "100"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first == b"theorem2 n=2 k=1 ok\n"
        assert code == 1
        assert b"Traceback" not in err

    def test_reader_closing_early_gets_exit_1_and_no_traceback(self):
        self.close_after_first_line([sys.executable, "-m", "lucanomials.cli"])

    def test_console_script_gets_exit_1_and_no_traceback(self):
        # The installed script imports the entry point that pyproject.toml
        # names and passes its call to sys.exit; run exactly that.
        pyproject = Path(lucanomials.__file__).resolve().parents[2] / "pyproject.toml"
        found = re.search(r'^lucanomials = "([\w.]+):(\w+)"$', pyproject.read_text(), re.MULTILINE)
        module, function = found.groups()
        script = f"import sys; from {module} import {function}; sys.exit({function}())"
        self.close_after_first_line([sys.executable, "-c", script])
