"""Tests for Lucas polynomials, lucanomials, and Fibonacci specializations."""

import sys
import types
from math import comb, gcd, log2

import pytest

from lucanomials.lucas import (
    _INT,
    MEMO_SIZE,
    _lucanomial_atoms,
    fib_factorial,
    fibonacci,
    fibonacci_atom,
    fibonomial,
    lucanomial,
    lucas,
    lucas_atom,
    lucas_factorial,
)
from lucanomials.polys import ONE, S, T, ZERO, Poly, divide_exact, parse
from lucanomials.tilings import _tiling_row, lucanomial_tiling_oracle

N_SWEEP = 12
ATOM_SWEEP = 60


def totient(n):
    return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def pascal_triangle(n_max):
    """Additive Pascal computation, independent of any factorial formula."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return rows


# References for lucanomial, independent of the atom product: the factorial
# quotient here, and the two fills of the tiling weight sum.
def lucanomial_division_oracle(n: int, k: int) -> Poly:
    """{n}! / ({k}! {n-k}!) by exact division; must equal lucanomial(n, k).

    NotDivisibleError propagating from here would falsify lucanomial
    integrality and is treated as an internal assertion failure.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return divide_exact(lucas_factorial(n), lucas_factorial(k) * lucas_factorial(n - k))


class TestLucas:
    def test_seeds(self):
        assert lucas(0) == ZERO
        assert lucas(1) == ONE

    def test_forced_by_recurrence(self):
        assert lucas(2) == parse("s")
        assert lucas(3) == parse("s^2 + t")

    def test_two_steps_by_hand(self):
        assert lucas(4) == parse("s^3 + 2*s*t")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            lucas(-1)

    def test_fibonacci_specialization(self):
        assert all(lucas(n).evaluate(1, 1) == fibonacci(n) for n in range(N_SWEEP + 1))

    def test_integer_specialization_at_2_minus_1(self):
        assert all(lucas(n).evaluate(2, -1) == n for n in range(N_SWEEP + 1))

    def test_closed_form(self):
        # {n} = sum_j C(n-1-j, j) s^(n-1-2j) t^j: the square/domino tilings of
        # a row of n-1 cells with j dominos, a route without the recurrence.
        lucas.cache_clear()
        assert lucas(0) == ZERO
        for n in range(1, 301):
            assert lucas(n) == Poly({(n - 1 - 2 * j, j): comb(n - 1 - j, j)
                                     for j in range((n + 1) // 2)}), n


class TestModuleName:
    """`lucanomials.lucas` names the submodule; the function is `lucanomials.lucas.lucas`."""

    def test_dotted_import_gives_the_module(self):
        import lucanomials
        import lucanomials.lucas as module

        assert isinstance(module, types.ModuleType) and module.lucas is lucas
        assert lucanomials.lucas is module and "lucas" not in lucanomials.__all__

    def test_dotted_monkeypatch_resolves(self, monkeypatch):
        def replacement(n):
            return ZERO

        monkeypatch.setattr("lucanomials.lucas.lucas", replacement)
        assert sys.modules["lucanomials.lucas"].lucas is replacement


class TestLucasTable:
    """The bounded memos of {n} and F_n, and the factorial memo built on them."""

    def test_recurrence_invariants(self):
        # Filled from the top down, so most terms come from the doubling
        # identities rather than from their neighbours.
        lucas.cache_clear()
        lucas(300)
        for n in range(300, 1, -1):
            assert lucas(n) == S * lucas(n - 1) + T * lucas(n - 2), n
        lucas_factorial(10)
        for n in range(2, 11):
            assert lucas_factorial(n) == lucas(n) * lucas_factorial(n - 1)

    def test_memos_are_bounded(self):
        for memo in (lucas, fibonacci):
            memo.cache_clear()
            assert memo.cache_info().maxsize == MEMO_SIZE

    def test_cold_fibonacci_keeps_logarithmic_entries(self):
        n = 100_000
        fibonacci.cache_clear()
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        assert fibonacci(n) == a
        assert fibonacci.cache_info().currsize <= 4 * log2(n)

    def test_large_index_without_recursion_error(self):
        n = 10**6
        fibonacci.cache_clear()
        a, b = 0, 1
        for _ in range(n):
            a, b = b, (a + b) % 10**9
        assert fibonacci(n) % 10**9 == a


class TestLucasFactorial:
    def test_empty_product(self):
        assert lucas_factorial(0) == ONE

    def test_hand_product(self):
        # {3}{2}{1} = (s^2 + t) * s * 1
        assert lucas_factorial(3) == parse("s^3 + s*t")

    def test_value_at_one_one(self):
        # F_6! = 8 * 5 * 3 * 2 * 1 * 1
        assert lucas_factorial(6).evaluate(1, 1) == 240


class TestLucanomial:
    def test_edge_column(self):
        assert all(lucanomial(n, 0) == ONE for n in range(8))
        assert all(lucanomial(n, n) == ONE for n in range(8))

    def test_single_step(self):
        assert lucanomial(2, 1) == parse("s")

    def test_value_at_one_one(self):
        assert lucanomial(6, 3).evaluate(1, 1) == 60

    def test_out_of_range_is_zero(self):
        assert lucanomial(4, -1) == ZERO
        assert lucanomial(4, 5) == ZERO

    def test_symmetry(self):
        assert all(
            lucanomial(n, k) == lucanomial(n, n - k)
            for n in range(N_SWEEP + 1)
            for k in range(n + 1)
        )

    def test_positive_coefficients(self):
        assert all(
            lucanomial(n, k).is_nonneg() for n in range(N_SWEEP + 1) for k in range(n + 1)
        )

    def test_binomial_specialization_against_additive_pascal(self):
        rows = pascal_triangle(N_SWEEP)
        for n in range(N_SWEEP + 1):
            for k in range(n + 1):
                assert lucanomial(n, k).evaluate(2, -1) == rows[n][k]

    def test_fibonomial_specialization(self):
        assert all(
            lucanomial(n, k).evaluate(1, 1) == fibonomial(n, k)
            for n in range(N_SWEEP + 1)
            for k in range(n + 1)
        )


class TestTilingOracle:
    def test_agrees_with_atom_product(self):
        for n in range(31):
            for k in range(n + 1):
                assert lucanomial_tiling_oracle(n, k) == lucanomial(n, k), (n, k)

    def test_agrees_at_60_30(self):
        assert lucanomial_tiling_oracle(60, 30) == lucanomial(60, 30)


class TestLucasAtom:
    def test_first_atoms_by_hand(self):
        # {2} = s, {3} = s^2 + t, {4} = {2} * (s^2 + 2t), {6} = {2}{3} * (s^2 + 3t).
        assert lucas_atom(2) == parse("s")
        assert lucas_atom(3) == parse("s^2 + t")
        assert lucas_atom(4) == parse("s^2 + 2*t")
        assert lucas_atom(6) == parse("s^2 + 3*t")

    def test_positive_coefficients(self):
        assert all(lucas_atom(d).is_nonneg() for d in range(2, ATOM_SWEEP + 1))

    def test_s_degree_is_totient(self):
        for d in range(2, ATOM_SWEEP + 1):
            assert max(se for se, _ in lucas_atom(d).terms) == totient(d), d

    def test_divisor_product_is_lucas(self):
        for n in range(2, ATOM_SWEEP + 1):
            product = ONE
            for d in range(2, n + 1):
                if n % d == 0:
                    product = product * lucas_atom(d)
            assert product == lucas(n), n

    def test_integer_form_is_value_at_one_one(self):
        assert all(
            fibonacci_atom(d) == lucas_atom(d).evaluate(1, 1) for d in range(2, ATOM_SWEEP + 1)
        )

    def test_index_below_two_rejected(self):
        for d in (-1, 0, 1):
            with pytest.raises(ValueError):
                lucas_atom(d)
            with pytest.raises(ValueError):
                fibonacci_atom(d)

    def test_atom_product_picks_the_floor_exponent_ones(self):
        # The carry test picks the d with floor(n/d) - floor(k/d) - floor((n-k)/d) = 1;
        # a fake atom, P_d = d, shows which.
        ring = _INT._replace(atom=lambda d: d)
        for n in range(301):
            for k in range(n + 1):
                picked = _lucanomial_atoms(n, k, ring)
                expected = [d for d in range(2, n + 1) if n // d - k // d - (n - k) // d]
                assert picked == expected, (n, k)


class TestDivisionOracle:
    def test_single_row(self):
        assert lucanomial_division_oracle(3, 1) == parse("s^2 + t")

    def test_diagonal(self):
        assert all(lucanomial_division_oracle(n, n) == ONE for n in range(8))

    def test_agrees_with_recurrence(self):
        # Row n of the tiling triangle is the splitting-identity recurrence
        # {n choose k} = {n-k+1}{n-1 choose k-1} + t{k-1}{n-1 choose k}.
        assert all(
            lucanomial_division_oracle(n, k) == _tiling_row(n)[k] == lucanomial(n, k)
            for n in range(N_SWEEP + 1)
            for k in range(n + 1)
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lucanomial_division_oracle(3, 4)


def split_identity(n, k):
    """{n} = {k}*{n-k+1} + t*{k-1}*{n-k}, checked exactly, for 1 <= k <= n."""
    return lucas(n) == lucas(k) * lucas(n - k + 1) + T * lucas(k - 1) * lucas(n - k)


class TestSplitIdentity:
    def test_base(self):
        assert split_identity(2, 1)

    def test_expanded_by_hand(self):
        assert split_identity(5, 2)

    def test_fibonacci_instance(self):
        # At s = t = 1 and (n, k) = (6, 3): 8 = 2*3 + 1*2.
        assert lucas(6).evaluate(1, 1) == 8
        assert split_identity(6, 3)

    def test_sweep(self):
        assert all(split_identity(n, k) for n in range(1, N_SWEEP + 1) for k in range(1, n + 1))


class TestFibonacci:
    def test_first_values(self):
        assert [fibonacci(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_factorials(self):
        assert fib_factorial(0) == 1
        assert fib_factorial(6) == 240
        assert fib_factorial(7) == 3120

    def test_fibonomial_values(self):
        assert fibonomial(6, 3) == 60
        assert fibonomial(4, 2) == 6
        assert fibonomial(7, 3) == 260

    def test_fibonomial_symmetry(self):
        assert all(
            fibonomial(n, k) == fibonomial(n, n - k)
            for n in range(N_SWEEP + 1)
            for k in range(n + 1)
        )

    def test_fibonomial_out_of_range(self):
        assert fibonomial(5, -1) == 0
        assert fibonomial(5, 6) == 0

    def test_fibonomial_matches_factorial_quotient(self):
        for n in range(121):
            for k in range(n + 1):
                assert fibonomial(n, k) * fib_factorial(k) * fib_factorial(n - k) == fib_factorial(n)

    def test_deep_first_column(self):
        # Past the interpreter's recursion limit for a per-level recurrence.
        assert fibonomial(1000, 1) == fibonacci(1000)
        assert fibonomial(1000, 1) * fib_factorial(999) == fib_factorial(1000)

    def test_large_central_value(self):
        assert fibonomial(1500, 700) * fib_factorial(700) * fib_factorial(800) == fib_factorial(1500)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci(-1)
        with pytest.raises(ValueError):
            fibonomial(-1, 0)
