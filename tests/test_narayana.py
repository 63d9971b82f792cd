"""Tests for FiboNarayana, generalized Narayana, and Catalan-style numbers."""

from math import comb

import pytest

from lucanomials.cli import main
from lucanomials.narayana import (
    _fibonarayana,
    _fibonarayana_definition,
    _generalized_narayana,
    _generalized_narayana_definition,
    _report,
    catalan,
    classical_narayana,
    classical_specialization_report,
    fibocatalan,
    fibonarayana,
    fibonarayana_definition_oracle,
    fibonarayana_report,
    generalized_catalan,
    generalized_narayana,
    generalized_narayana_definition_oracle,
    generalized_narayana_report,
)
from lucanomials.lucas import (
    MEMO_SIZE,
    fib_factorial,
    fibonacci,
    fibonacci_atom,
    fibonomial,
    lucanomial,
    lucas,
    lucas_atom,
    lucas_factorial,
)
from lucanomials.polys import ONE, ZERO, Poly, parse


def check_mirror_memos(recurrence, memo, oracle, oracle_memo):
    """Each public value, which the memo serves from the mirror key (n, min(k, n+1-k)),
    equals the uncached body evaluated at k itself, for n <= 14."""
    memo.cache_clear()
    oracle_memo.cache_clear()
    for n in range(1, 15):
        for k in range(-1, n + 3):
            assert recurrence(n, k) == memo.__wrapped__(n, k), (n, k)
        for k in range(1, n + 1):
            assert oracle(n, k) == oracle_memo.__wrapped__(n, k), (n, k)
    # One entry per mirror pair: ceil(n/2) keys in row n.
    pairs = sum((n + 1) // 2 for n in range(1, 15))
    for cache in (memo, oracle_memo):
        assert cache.cache_info().currsize == pairs
        assert cache.cache_info().maxsize == MEMO_SIZE


class TestFibonarayana:
    def test_first_column_is_one(self):
        assert all(fibonarayana(n, 1) == 1 for n in range(1, 10))

    def test_spot_values(self):
        # (1/F_4) * fib(4,2) * fib(4,1) = (1/3) * 6 * 3
        assert fibonarayana(4, 2) == 6
        # 3^2 + 6*1 = (1/5) * 15 * 5
        assert fibonarayana(5, 2) == 15

    def test_base_row(self):
        # The recurrence at n = 1: 1 at k = 1 by the lucanomial zero convention.
        assert fibonarayana(1, 1) == 1
        assert all(fibonarayana(1, k) == 0 for k in (-1, 0, 2, 3))

    def test_out_of_range_is_zero(self):
        assert fibonarayana(5, 0) == 0
        assert fibonarayana(5, 6) == 0
        assert fibonarayana(5, 5) == 1

    def test_agrees_with_definition(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                assert fibonarayana(n, k) == fibonarayana_definition_oracle(n, k)

    def test_positive_in_range(self):
        assert all(fibonarayana(n, k) > 0 for n in range(1, 16) for k in range(1, n + 1))

    def test_symmetry(self):
        check_mirror_memos(fibonarayana, _fibonarayana,
                           fibonarayana_definition_oracle, _fibonarayana_definition)

    def test_reports_hold_values(self):
        assert fibonarayana_report(5, 2) == {
            "n": 5, "k": 2, "lhs": 15, "rhs": 15,
            "oracle_agrees": True, "nonneg": True, "pass": True,
        }
        report = generalized_narayana_report(3, 2)
        assert report["lhs"] == report["rhs"] == parse("s^2 + t")
        assert isinstance(report["lhs"], Poly) and report["pass"] is True

    def test_report_fails_on_disagreement(self):
        report = _report(5, 2, fibonarayana, lambda n, k: 16, (0).__lt__)
        assert (report["lhs"], report["rhs"]) == (15, 16)
        assert report["oracle_agrees"] is False and report["nonneg"] is True
        assert report["pass"] is False

    def test_report_fails_on_negative_value(self):
        report = _report(5, 2, fibonarayana, fibonarayana_definition_oracle, lambda value: False)
        assert report["oracle_agrees"] is True and report["nonneg"] is False
        assert report["pass"] is False

    def test_report_passes_when_both_hold(self):
        report = _report(5, 2, fibonarayana, fibonarayana_definition_oracle, (0).__lt__)
        assert report["pass"] is True

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            fibonarayana(0, 1)
        with pytest.raises(ValueError):
            fibonarayana_definition_oracle(4, 0)


class TestGeneralizedNarayana:
    def test_first_column_is_one(self):
        assert all(generalized_narayana(n, 1) == ONE for n in range(1, 9))

    def test_hand_expansion(self):
        # lucanomial(2,1)^2 + t * lucanomial(2,2) * lucanomial(2,0)
        assert generalized_narayana(3, 2) == parse("s^2 + t")

    def test_base_row(self):
        assert generalized_narayana(1, 1) == ONE
        assert all(generalized_narayana(1, k) == ZERO for k in (-1, 0, 2, 3))

    def test_agrees_with_definition(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert generalized_narayana(n, k) == generalized_narayana_definition_oracle(n, k)

    def test_oracle_example(self):
        assert generalized_narayana_definition_oracle(3, 2) == parse("s^2 + t")

    def test_symmetry(self):
        check_mirror_memos(generalized_narayana, _generalized_narayana,
                           generalized_narayana_definition_oracle,
                           _generalized_narayana_definition)

    def test_positive_coefficients(self):
        assert all(
            generalized_narayana(n, k).is_nonneg()
            for n in range(1, 10)
            for k in range(1, n + 1)
        )

    def test_specializes_to_fibonarayana(self):
        for n in range(1, 10):
            for k in range(0, n + 2):
                assert generalized_narayana(n, k).evaluate(1, 1) == fibonarayana(n, k)

    def test_specializes_to_classical(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert generalized_narayana(n, k).evaluate(2, -1) == classical_narayana(n, k)

    def test_definition_divides_exactly_at_40(self):
        # divide_exact raises NotDivisibleError on any nonzero remainder.
        for k in range(1, 41):
            quotient = generalized_narayana_definition_oracle(40, k)
            assert quotient.evaluate(1, 1) == fibonarayana(40, k), k


class TestCatalan:
    def test_fibocatalan_values(self):
        assert [fibocatalan(n) for n in (0, 1, 2, 3)] == [1, 1, 3, 20]

    def test_generalized_catalan_specializes(self):
        for n in range(7):
            poly = generalized_catalan(n)
            assert poly.is_nonneg()
            assert poly.evaluate(1, 1) == fibocatalan(n)
            assert poly.evaluate(2, -1) == catalan(n)

    def test_generalized_catalan_divides_exactly_at_40(self):
        poly = generalized_catalan(40)
        assert poly.is_nonneg()
        assert poly.evaluate(1, 1) == fibocatalan(40)
        assert poly.evaluate(2, -1) == catalan(40)

    def test_classical_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            fibocatalan(-1)


RING_N_MAX = 30

# (int function, Poly function, the arguments for n <= RING_N_MAX, invalid arguments)
RING_PAIRS = {
    "sequence": (fibonacci, lucas,
                 [(n,) for n in range(RING_N_MAX + 1)], [(-1,)]),
    "factorial": (fib_factorial, lucas_factorial,
                  [(n,) for n in range(RING_N_MAX + 1)], [(-1,)]),
    "atom": (fibonacci_atom, lucas_atom,
             [(d,) for d in range(2, RING_N_MAX + 1)], [(1,), (-1,)]),
    "coefficient": (fibonomial, lucanomial,
                    [(n, k) for n in range(RING_N_MAX + 1) for k in range(-1, n + 2)], [(-1, 0)]),
    "narayana": (fibonarayana, generalized_narayana,
                 [(n, k) for n in range(1, RING_N_MAX + 1) for k in range(-1, n + 2)],
                 [(0, 1), (-1, 0)]),
    "definition_oracle": (fibonarayana_definition_oracle, generalized_narayana_definition_oracle,
                          [(n, k) for n in range(1, RING_N_MAX + 1) for k in range(1, n + 1)],
                          [(5, 0), (5, 6), (0, 1)]),
    "catalan": (fibocatalan, generalized_catalan,
                [(n,) for n in range(RING_N_MAX + 1)], [(-1,)]),
}


@pytest.mark.parametrize("pair", sorted(RING_PAIRS))
def test_int_route_is_poly_route_at_one_one(pair):
    """Each integer function is the Poly function at s = t = 1, and both reject the same inputs."""
    int_fn, poly_fn, args, invalid = RING_PAIRS[pair]
    for a in args:
        assert int_fn(*a) == poly_fn(*a).evaluate(1, 1), a
    for a in invalid:
        for fn in (int_fn, poly_fn):
            with pytest.raises(ValueError):
                fn(*a)


def cli_triangle(capsys, n_max, mode):
    """The 1 <= k <= n <= n_max triangle of `narayana --mode MODE`, tab-separated."""
    rows = []
    for n in range(1, n_max + 1):
        cells = []
        for k in range(1, n + 1):
            assert main(["narayana", "--n", str(n), "--k", str(k), "--mode", mode]) == 0
            cells.append(capsys.readouterr().out.rstrip("\n"))
        rows.append("\t".join(cells))
    return "\n".join(rows)


class TestTableText:
    """The Narayana triangle in each CLI mode, one `narayana` call per cell."""

    def test_fibo_golden(self, capsys):
        assert cli_triangle(capsys, 4, "fibo") == "1\n1\t1\n1\t2\t1\n1\t6\t6\t1"

    def test_classical_golden(self, capsys):
        assert cli_triangle(capsys, 4, "classical") == "1\n1\t1\n1\t3\t1\n1\t6\t6\t1"

    def test_general_row(self, capsys):
        assert cli_triangle(capsys, 3, "general").splitlines()[2] == "1\ts^2 + t\t1"

    def test_is_deterministic(self, capsys):
        assert cli_triangle(capsys, 6, "general") == cli_triangle(capsys, 6, "general")

    def test_unknown_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["narayana", "--n", "3", "--k", "1", "--mode", "rational"])
        assert excinfo.value.code == 2


class TestClassicalSpecialization:
    def test_narayana_values(self):
        # N(4,2) = (1/4) * C(4,2) * C(4,1) = 6 and row 4 sums to C_4 = 14.
        assert classical_narayana(4, 2) == 6
        assert sum(classical_narayana(4, k) for k in range(1, 5)) == 14

    def test_first_column(self):
        assert all(classical_narayana(n, 1) == 1 for n in range(1, 10))

    def test_matches_binomial_formula(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert classical_narayana(n, k) * n == comb(n, k) * comb(n, k - 1)

    def test_report_passes(self):
        report = classical_specialization_report(12)
        assert report["pass"]
        assert report["first_failure"] is None

    def test_report_invalid_bound(self):
        with pytest.raises(ValueError):
            classical_specialization_report(0)
