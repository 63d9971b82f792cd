"""FiboNarayana, generalized Narayana, and Catalan-style numbers.

The generalized Narayana polynomial is computed division-free as

    generalized_narayana(n, k) = {n-1,k-1}^2 + t * {n-1,k} * {n-1,k-2},

on 1 <= k <= n (the lucanomial zero convention gives the value 1 at
(1, 1)), and it is 0 for k outside 1..n.  The definitional quotient
({n,k} * {n,k-1}) / {n} is kept as an oracle: it must agree exactly with
the recurrence, and a NotDivisibleError from it would falsify the
integrality the recurrence establishes.  Catalan versions divide
{2n choose n} by {n+1}.

Both routes read the same lucanomials at k and at n+1-k, so each value is
memoised, in each ring, on the mirror key (n, min(k, n+1-k)) by an
lru_cache bounded at MEMO_SIZE: the four memos _fibonarayana,
_generalized_narayana, _fibonarayana_definition and
_generalized_narayana_definition compute one value per mirror pair.

The FiboNarayana number is this polynomial at s = t = 1, and the integer
functions are the same code there: as in :mod:`lucanomials.lucas`, each
algorithm is one private body that takes the ring's pieces as arguments.

At (s, t) = (2, -1) the whole tower specializes to the classical objects
(n, binomials, Narayana numbers, Catalan numbers), which
:func:`classical_specialization_report` checks exactly against the
math.comb formulas of :func:`classical_narayana` and :func:`catalan`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .lucas import MEMO_SIZE, _int_quotient, fibonacci, fibonomial, lucanomial, lucas
from .polys import ZERO, Poly, T, divide_exact


def _narayana(n: int, k: int, zero, reduced):
    """reduced(n, min(k, n+1-k)) on 1 <= k <= n, zero outside it."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        return zero
    return reduced(n, min(k, n + 1 - k))


def _recurrence(n: int, k: int, t, coefficient):
    """The recurrence in the ring of t, with coefficient the lucanomial there."""
    return coefficient(n - 1, k - 1) ** 2 + t * coefficient(n - 1, k) * coefficient(n - 1, k - 2)


def fibonarayana(n: int, k: int) -> int:
    """FiboNarayana number via the integer recurrence; 0 outside 1 <= k <= n."""
    return _narayana(n, k, 0, _fibonarayana)


@lru_cache(maxsize=MEMO_SIZE)
def _fibonarayana(n: int, k: int) -> int:
    return _recurrence(n, k, 1, fibonomial)


def generalized_narayana(n: int, k: int) -> Poly:
    """Generalized Narayana polynomial via the recurrence; 0 outside 1 <= k <= n."""
    return _narayana(n, k, ZERO, _generalized_narayana)


@lru_cache(maxsize=MEMO_SIZE)
def _generalized_narayana(n: int, k: int) -> Poly:
    return _recurrence(n, k, T, lucanomial)


def _definition(n: int, k: int, reduced):
    """reduced(n, min(k, n+1-k)) on 1 <= k <= n, a ValueError outside it."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    return reduced(n, min(k, n + 1 - k))


def _quotient(n: int, k: int, coefficient, term, quotient):
    """(coefficient(n,k) * coefficient(n,k-1)) / term(n) by exact division."""
    return quotient(coefficient(n, k) * coefficient(n, k - 1), term(n))


def fibonarayana_definition_oracle(n: int, k: int) -> int:
    """(fibonomial(n,k) * fibonomial(n,k-1)) / F_n by exact division."""
    return _definition(n, k, _fibonarayana_definition)


@lru_cache(maxsize=MEMO_SIZE)
def _fibonarayana_definition(n: int, k: int) -> int:
    return _quotient(n, k, fibonomial, fibonacci, _int_quotient)


def generalized_narayana_definition_oracle(n: int, k: int) -> Poly:
    """({n,k} * {n,k-1}) / {n} by exact division; must equal the recurrence."""
    return _definition(n, k, _generalized_narayana_definition)


@lru_cache(maxsize=MEMO_SIZE)
def _generalized_narayana_definition(n: int, k: int) -> Poly:
    return _quotient(n, k, lucanomial, lucas, divide_exact)


def _catalan(n: int, coefficient, term, quotient):
    """coefficient(2n, n) / term(n+1) by exact division."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return quotient(coefficient(2 * n, n), term(n + 1))


def fibocatalan(n: int) -> int:
    """fibonomial(2n, n) / F_{n+1} by exact division."""
    return _catalan(n, fibonomial, fibonacci, _int_quotient)


def generalized_catalan(n: int) -> Poly:
    """{2n choose n} / {n+1} by exact division."""
    return _catalan(n, lucanomial, lucas, divide_exact)


def classical_narayana(n: int, k: int) -> int:
    """Classical Narayana number C(n,k)*C(n,k-1)/n; 0 outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        return 0
    return _int_quotient(comb(n, k) * comb(n, k - 1), n)


def catalan(n: int) -> int:
    """Classical Catalan number C(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _int_quotient(comb(2 * n, n), n + 1)


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
