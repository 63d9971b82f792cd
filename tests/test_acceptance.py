"""Acceptance suite: every criterion is checked exactly (zero tolerance).

Each test prints one PASS line after its assertions go through, so running
``pytest -s tests/test_acceptance.py`` shows one line per criterion.
Criterion 8 is gated on a manually transcribed fixture (see
tests/fixtures/worked_example/README.md) and skips while it is absent.
"""

import itertools
import json
from pathlib import Path

import pytest

from lucanomials.bijection import (
    StairstepTiling,
    TilingTriple,
    _replay_key,
    _scan_key,
    _tile_counts,
    enumerate_stairstep_tilings,
    forward,
    inverse,
    verify_cardinality,
    verify_pair_decomposition,
)
from lucanomials.lucas import fib_factorial, fibonomial, lucanomial, lucas
from lucanomials.narayana import (
    catalan,
    classical_narayana,
    fibocatalan,
    fibonarayana_definition_oracle,
    fibonarayana_recurrence,
    generalized_catalan,
    generalized_catalan_definition_oracle,
    generalized_narayana,
    generalized_narayana_recurrence,
)
from lucanomials.polys import divide_exact
from lucanomials.tilings import RectTiling, linear_tilings, lucanomial_tiling_oracle

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "worked_example"


def _passed(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({label})")


def test_criterion_1_tiling_oracle_equivalence():
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert lucanomial_tiling_oracle(n, k) == lucanomial(n, k), (n, k)
    _passed(1, "tiling weight sum equals lucanomial for 0 <= k <= n <= 10")


def test_criterion_2_integer_recurrence():
    assert fibonarayana_recurrence(4, 2) == 6
    assert fibonarayana_recurrence(5, 2) == 15
    for n in range(2, 26):
        for k in range(1, n + 1):
            value = fibonarayana_recurrence(n, k)
            assert value == fibonarayana_definition_oracle(n, k), (n, k)
            assert value > 0, (n, k)
    _passed(2, "integer recurrence equals quotient, positive, 2 <= n <= 25")


def test_criterion_3_polynomial_recurrence():
    for n in range(2, 13):
        for k in range(1, n + 1):
            recurrence = generalized_narayana_recurrence(n, k)
            quotient = divide_exact(lucanomial(n, k) * lucanomial(n, k - 1), lucas(n))
            assert recurrence == quotient, (n, k)
            assert recurrence.is_nonneg(), (n, k)
    _passed(3, "polynomial recurrence equals exact quotient, positive, 2 <= n <= 12")


def test_criterion_4_bijection():
    for n in range(2, 8):
        stairs = list(enumerate_stairstep_tilings(n - 1))
        assert len(stairs) == fib_factorial(n)
        for k in range(1, n):
            image = set()
            for t in stairs:
                triple = forward(t, k)
                image.add(triple)
                assert inverse(triple, n, k) == t, (n, k, t)
                assert triple.tile_counts() == t.tile_counts(), (n, k, t)
            expected = fibonomial(n, k) * fib_factorial(k) * fib_factorial(n - k)
            assert len(image) == len(stairs) == expected, (n, k)
    # n = 8 on the flat-key cores.  The bottom k-1 rows pass through
    # verbatim, so a left inverse on the top rows covers all F_8! stairsteps.
    # Each head is split as forward splits it and rebuilt by the public
    # constructors, so its shape is checked independently of the cores.
    n = 8
    for k in range(1, n):
        height = n - k
        tops = list(itertools.product(*(linear_tilings(m) for m in range(n - 1, k - 1, -1))))
        bottoms = list(itertools.product(*(linear_tilings(m) for m in range(k - 1, 0, -1))))
        for top in tops:
            head = _scan_key(top, n, k)
            assert _replay_key(head, n, k) == top, (n, k, top)
            assert _tile_counts((head,)) == _tile_counts(top), (n, k, top)
            rows = head.split("|")
            lam = tuple(len(row) + row.count("D") for row in rows[:height])
            RectTiling(lam, rows[:height], rows[height:n])
            StairstepTiling(tuple(rows[n:]))
        expected = fibonomial(n, k) * fib_factorial(k) * fib_factorial(n - k)
        assert len(tops) * len(bottoms) == fib_factorial(n) == expected, (n, k)
    report = verify_cardinality(6, 3)
    assert report["pass"] and report["lhs"] == 240
    assert fibonomial(6, 3) * fib_factorial(3) * fib_factorial(3) == 240
    _passed(4, "bijective with conserved tiles for 1 <= k <= n-1, n <= 8")


def test_criterion_5_pair_decomposition():
    for n in range(4, 7):
        for k in range(2, n - 1):
            report = verify_pair_decomposition(n, k)
            assert report["pass"], report
            assert report["lhs"] == fib_factorial(n) * fib_factorial(n - 1)
    assert verify_pair_decomposition(5, 2)["lhs"] == 180
    _passed(5, "pair decomposition realizes the identity for 2 <= k <= n-2, n <= 6")


def test_criterion_6_catalan_values():
    assert [fibocatalan(n) for n in (1, 2, 3)] == [1, 3, 20]
    for n in range(0, 9):
        poly = generalized_catalan(n)
        assert poly == generalized_catalan_definition_oracle(n), n  # raises if the division is not exact
        assert poly.is_nonneg(), n
        assert poly.evaluate(1, 1) == fibocatalan(n), n
    _passed(6, "Catalan quotients exact and positive for n <= 8")


def test_criterion_7_classical_specialization():
    for n in range(1, 16):
        assert lucas(n).evaluate(2, -1) == n
        row_sum = 0
        for k in range(1, n + 1):
            narayana_value = generalized_narayana(n, k).evaluate(2, -1)
            assert narayana_value == classical_narayana(n, k), (n, k)
            row_sum += narayana_value
        assert row_sum == catalan(n), n
    assert sum(generalized_narayana(4, k).evaluate(2, -1) for k in range(1, 5)) == 14
    from math import comb

    for n in range(0, 16):
        for k in range(0, n + 1):
            assert lucanomial(n, k).evaluate(2, -1) == comb(n, k), (n, k)
    _passed(7, "(s, t) = (2, -1) specialization exact for n <= 15")


def test_criterion_8_worked_example_fixture():
    input_path = FIXTURE_DIR / "input.txt"
    expected_path = FIXTURE_DIR / "expected_triple.json"
    if not (input_path.is_file() and expected_path.is_file()):
        print("ACCEPTANCE 8: SKIPPED (worked-example fixture not transcribed)")
        pytest.skip(
            "worked-example fixture absent; transcription procedure in "
            "tests/fixtures/worked_example/README.md"
        )
    tiling = StairstepTiling.from_text(input_path.read_text())
    expected = TilingTriple.from_json_dict(json.loads(expected_path.read_text()))
    assert tiling.size == 5
    assert forward(tiling, 3) == expected
    _passed(8, "transcribed worked example maps to its transcribed triple")
