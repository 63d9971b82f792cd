"""FiboNarayana, generalized Narayana, and Catalan-style numbers.

The FiboNarayana number for n >= 2 is computed division-free as

    fibonarayana(n, k) = fib(n-1, k-1)^2 + fib(n-1, k) * fib(n-1, k-2)

and its polynomial analogue as

    generalized_narayana(n, k) = {n-1,k-1}^2 + t * {n-1,k} * {n-1,k-2},

with the n = 1 base case taking the value 1 at k = 1 and 0 elsewhere and k
outside 1..n inheriting the lucanomial zero convention.  The definitional
quotients (fibonomial(n,k) * fibonomial(n,k-1)) / F_n and its polynomial
counterpart divided by {n} are kept as oracles: they must agree exactly
with the recurrences, and a NotDivisibleError from them would falsify the
integrality these recurrences establish.

Catalan versions divide the central coefficient by F_{n+1} (or {n+1}).

At (s, t) = (2, -1) the whole tower specializes to the classical objects
(n, binomials, Narayana numbers, Catalan numbers), which
:func:`classical_specialization_report` checks exactly.
"""

from __future__ import annotations

from math import comb

from .lucas import fibonacci, fibonomial, lucanomial, lucas
from .polys import ONE, NotDivisibleError, Poly, T, ZERO, divide_exact, int_text


def fibonarayana(n: int, k: int) -> int:
    """FiboNarayana number via the integer recurrence; 0 outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1 if k == 1 else 0
    return fibonomial(n - 1, k - 1) ** 2 + fibonomial(n - 1, k) * fibonomial(n - 1, k - 2)


def fibonarayana_definition_oracle(n: int, k: int) -> int:
    """(fibonomial(n,k) * fibonomial(n,k-1)) / F_n by exact division."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    numerator = fibonomial(n, k) * fibonomial(n, k - 1)
    quotient, remainder = divmod(numerator, fibonacci(n))
    if remainder:
        raise NotDivisibleError(f"F_{n} does not divide the fibonomial product at k={k}")
    return quotient


def generalized_narayana(n: int, k: int) -> Poly:
    """Generalized Narayana polynomial via the recurrence; 0 outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return ONE if k == 1 else ZERO
    return (
        lucanomial(n - 1, k - 1) ** 2
        + T * lucanomial(n - 1, k) * lucanomial(n - 1, k - 2)
    )


def generalized_narayana_definition_oracle(n: int, k: int) -> Poly:
    """({n,k} * {n,k-1}) / {n} by exact division; must equal the recurrence."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    return divide_exact(lucanomial(n, k) * lucanomial(n, k - 1), lucas(n))


def fibocatalan(n: int) -> int:
    """fibonomial(2n, n) / F_{n+1} by exact division."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    quotient, remainder = divmod(fibonomial(2 * n, n), fibonacci(n + 1))
    if remainder:
        raise NotDivisibleError(f"F_{n + 1} does not divide fibonomial({2 * n}, {n})")
    return quotient


def generalized_catalan(n: int) -> Poly:
    """{2n choose n} / {n+1} by exact division."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return divide_exact(lucanomial(2 * n, n), lucas(n + 1))


def classical_narayana(n: int, k: int) -> int:
    """Classical Narayana number C(n,k)*C(n,k-1)/n; 0 outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        return 0
    quotient, remainder = divmod(comb(n, k) * comb(n, k - 1), n)
    if remainder:
        raise NotDivisibleError(f"{n} does not divide the binomial product at k={k}")
    return quotient


def catalan(n: int) -> int:
    """Classical Catalan number C(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    quotient, remainder = divmod(comb(2 * n, n), n + 1)
    if remainder:
        raise NotDivisibleError(f"{n + 1} does not divide C({2 * n}, {n})")
    return quotient


def fibonarayana_report(n: int, k: int) -> dict:
    """Per-(n, k) agreement report for the integer recurrence.

    lhs is the recurrence value, rhs the definitional quotient.
    """
    value = fibonarayana(n, k)
    oracle = fibonarayana_definition_oracle(n, k)
    return {
        "n": n,
        "k": k,
        "lhs": int_text(value),
        "rhs": int_text(oracle),
        "oracle_agrees": value == oracle,
        "nonneg": value > 0,
    }


def generalized_narayana_report(n: int, k: int) -> dict:
    """Per-(n, k) agreement report for the polynomial recurrence.

    lhs is the recurrence polynomial, rhs the definitional quotient.
    """
    value = generalized_narayana(n, k)
    oracle = generalized_narayana_definition_oracle(n, k)
    return {
        "n": n,
        "k": k,
        "lhs": str(value),
        "rhs": str(oracle),
        "oracle_agrees": value == oracle,
        "nonneg": value.is_nonneg(),
    }


def classical_specialization_report(n_max: int) -> dict:
    """Exact checks of the (s, t) = (2, -1) specialization up to n_max.

    Verifies that {n} evaluates to n, lucanomials to binomials, generalized
    Narayana polynomials to classical Narayana numbers, and that the
    Narayana numbers of each row sum to the Catalan number.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    first_failure = None
    for n in range(1, n_max + 1):
        if lucas(n).evaluate(2, -1) != n:
            first_failure = {"n": n, "check": "lucas"}
            break
        if any(lucanomial(n, k).evaluate(2, -1) != comb(n, k) for k in range(0, n + 1)):
            first_failure = {"n": n, "check": "binomial"}
            break
        row = [generalized_narayana(n, k).evaluate(2, -1) for k in range(1, n + 1)]
        if row != [classical_narayana(n, k) for k in range(1, n + 1)]:
            first_failure = {"n": n, "check": "narayana"}
            break
        if sum(row) != catalan(n):
            first_failure = {"n": n, "check": "catalan_sum"}
            break
    return {
        "n_max": n_max,
        "pass": first_failure is None,
        "first_failure": first_failure,
    }
