"""FiboNarayana, generalized Narayana, and Catalan-style numbers.

Three routes compute each Narayana value and two each Catalan value, the
atom product and the quotient, and they must agree exactly.

The primary route is the Lucas-atom product (B. Sagan and J. Tirrell,
"Lucas atoms", Adv. Math. 2020; the atoms P_d are those of
:mod:`lucanomials.lucas`).  With e(n, k, d) = [n mod d < k mod d], the
exponent of P_d in the lucanomial {n choose k}, and {n} the product of the
P_d over the divisors d > 1 of n,

    generalized_narayana(n, k) = prod_{d=2..n} P_d^(e(n,k,d) + e(n,k-1,d) - [d | n]),
    generalized_catalan(n) = prod_{d=2..2n} P_d^(e(2n,n,d) - [d | n+1]),

on 1 <= k <= n and n >= 0; the Narayana value is 0 for k outside 1..n.
Every Narayana exponent is 0, 1 or 2 and every Catalan exponent 0 or 1,
so both are products with no division, taken by :func:`_atom_powers`:
the atoms of exponent 1 and those of exponent 2 are multiplied as two
products, and the second, built once, enters the result twice.  A
negative exponent would falsify the factorisation and raises as an
internal assertion.  Since every atom has nonnegative coefficients, these
exponents are a certificate of coefficientwise positivity, which ``verify
theorem3`` and ``verify catalan`` check beside the coefficients.

The paper's theorem is the division-free recurrence

    generalized_narayana_recurrence(n, k) = {n-1,k-1}^2 + t * {n-1,k} * {n-1,k-2},

on 1 <= k <= n (the lucanomial zero convention gives the value 1 at
(1, 1)).  ``verify theorem2``, ``verify theorem3`` and
:func:`classical_specialization_report` check it, because in a sweep it
reuses the lucanomials of row n-1 that the lucanomial memo already holds.

The oracle is the definitional quotient ({n,k} * {n,k-1}) / {n}, or
{2n choose n} / {n+1} for Catalan, by exact division: a NotDivisibleError
from it would falsify the integrality the other routes establish.

Every route gives N(n, k) = N(n, n+1-k), so lucas._mirrored makes each of
the six Narayana functions (the atom product, the recurrence and the
quotient, in each ring) from its body with first = 1: one value per mirror
pair, memoised on (n, min(k, n+1-k)) by an lru_cache bounded at MEMO_SIZE.
Every route gives 0 outside 1 <= k <= n, by the lucanomial zero convention,
and raises ValueError for n < 1.

The FiboNarayana and FiboCatalan numbers are these polynomials at
s = t = 1, and the integer functions are the same code there: as in
:mod:`lucanomials.lucas`, each algorithm is one private body that takes
one of the two ring records alone, _POLY for Z[s, t] or _INT for Z at
s = t = 1.  The record names the atom, the term and the coefficient of its
ring, so no body here names a memo of :mod:`lucanomials.lucas`.

At (s, t) = (2, -1) the whole tower specializes to the classical objects
(n, binomials, Narayana numbers, Catalan numbers), which
:func:`classical_specialization_report` checks exactly against the
math.comb formulas of :func:`classical_narayana` and :func:`catalan`.
"""

from __future__ import annotations

from math import comb

from .lucas import _INT, _POLY, _mirrored, lucanomial, lucas
from .polys import ZERO, Poly

__all__ = [
    "catalan",
    "classical_narayana",
    "classical_specialization_report",
    "fibocatalan",
    "fibocatalan_definition_oracle",
    "fibonarayana",
    "fibonarayana_definition_oracle",
    "fibonarayana_recurrence",
    "generalized_catalan",
    "generalized_catalan_definition_oracle",
    "generalized_narayana",
    "generalized_narayana_definition_oracle",
    "generalized_narayana_recurrence",
]


def _narayana_atom_exponents(n: int, k: int) -> list[tuple[int, int]]:
    """(d, x) for d = 2..n: P_d^x is the power of the atom P_d in generalized_narayana(n, k).

    On 1 <= k <= n only; x is e(n,k,d) + e(n,k-1,d) - [d | n], with e the
    lucanomial exponent [n mod d < k mod d].
    """
    return [(d, (n % d < k % d) + (n % d < (k - 1) % d) - (n % d == 0)) for d in range(2, n + 1)]


def _catalan_atom_exponents(n: int) -> list[tuple[int, int]]:
    """(d, x) for d = 2..2n: P_d^x is the power of the atom P_d in generalized_catalan(n).

    x is e(2n,n,d) - [d | n+1], with e the lucanomial exponent; a
    ValueError for n < 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [(d, (2 * n % d < n % d) - ((n + 1) % d == 0)) for d in range(2, 2 * n + 1)]


def _atom_powers(exponents: list[tuple[int, int]], ring):
    """prod ring.atom(d)^x over the (d, x) pairs, each list of atoms multiplied by ring.product.

    Every x is 0, 1 or 2; any other falsifies the factorisation and raises
    AssertionError.  The square's factor is built once and enters twice,
    (ones * twos) * twos: squaring it first would leave one lopsided product
    of the small ones with the square, which the multiply kernel takes
    slower than these two.
    """
    atom = ring.atom
    ones, twos = [], []
    for d, x in exponents:
        if x == 1:
            ones.append(atom(d))
        elif x == 2:
            twos.append(atom(d))
        elif x:
            raise AssertionError(f"the atom P_{d} has exponent {x}, outside 0..2")
    value = ring.product(ones)
    if not twos:
        return value
    twice = ring.product(twos)
    return value * twice * twice


@_mirrored(1, 0)
def fibonarayana(n: int, k: int) -> int:
    """FiboNarayana number as a product of integer atoms; 0 outside 1 <= k <= n."""
    return _atom_powers(_narayana_atom_exponents(n, k), _INT)


@_mirrored(1, ZERO)
def generalized_narayana(n: int, k: int) -> Poly:
    """Generalized Narayana polynomial as a product of Lucas atoms; 0 outside 1 <= k <= n."""
    return _atom_powers(_narayana_atom_exponents(n, k), _POLY)


def _recurrence(n: int, k: int, ring):
    """The recurrence in ring, with ring.coefficient the lucanomial there."""
    coefficient = ring.coefficient
    return coefficient(n - 1, k - 1) ** 2 + ring.t * coefficient(n - 1, k) * coefficient(n - 1, k - 2)


@_mirrored(1, 0)
def fibonarayana_recurrence(n: int, k: int) -> int:
    """FiboNarayana number via the paper's integer recurrence; 0 outside 1 <= k <= n."""
    return _recurrence(n, k, _INT)


@_mirrored(1, ZERO)
def generalized_narayana_recurrence(n: int, k: int) -> Poly:
    """Generalized Narayana polynomial via the paper's recurrence; 0 outside 1 <= k <= n."""
    return _recurrence(n, k, _POLY)


def _quotient(n: int, k: int, ring):
    """(ring.coefficient(n,k) * ring.coefficient(n,k-1)) / ring.term(n) by exact division."""
    return ring.quotient(ring.coefficient(n, k) * ring.coefficient(n, k - 1), ring.term(n))


@_mirrored(1, 0)
def fibonarayana_definition_oracle(n: int, k: int) -> int:
    """(fibonomial(n,k) * fibonomial(n,k-1)) / F_n by exact division; 0 outside 1 <= k <= n."""
    return _quotient(n, k, _INT)


@_mirrored(1, ZERO)
def generalized_narayana_definition_oracle(n: int, k: int) -> Poly:
    """({n,k} * {n,k-1}) / {n} by exact division; 0 outside 1 <= k <= n, as the atom product."""
    return _quotient(n, k, _POLY)


def _catalan_quotient(n: int, ring):
    """ring.coefficient(2n, n) / ring.term(n+1) by exact division; a ValueError for n < 0."""
    return ring.quotient(ring.coefficient(2 * n, n), ring.term(n + 1))


def fibocatalan(n: int) -> int:
    """FiboCatalan number fibonomial(2n, n) / F_{n+1}, as a product of integer atoms."""
    return _atom_powers(_catalan_atom_exponents(n), _INT)


def generalized_catalan(n: int) -> Poly:
    """Generalized Catalan polynomial {2n choose n} / {n+1}, as a product of Lucas atoms."""
    return _atom_powers(_catalan_atom_exponents(n), _POLY)


def fibocatalan_definition_oracle(n: int) -> int:
    """fibonomial(2n, n) / F_{n+1} by exact division."""
    return _catalan_quotient(n, _INT)


def generalized_catalan_definition_oracle(n: int) -> Poly:
    """{2n choose n} / {n+1} by exact division; must equal the atom product."""
    return _catalan_quotient(n, _POLY)


def classical_narayana(n: int, k: int) -> int:
    """Classical Narayana number C(n,k)*C(n,k-1)/n; 0 outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        return 0
    return _INT.quotient(comb(n, k) * comb(n, k - 1), n)


def catalan(n: int) -> int:
    """Classical Catalan number C(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _INT.quotient(comb(2 * n, n), n + 1)


def classical_specialization_report(n_max: int) -> dict:
    """Exact checks of the (s, t) = (2, -1) specialization up to n_max.

    Verifies that {n} evaluates to n, lucanomials to binomials, generalized
    Narayana polynomials (by the recurrence) to classical Narayana numbers,
    and that the Narayana numbers of each row sum to the Catalan number.
    Every k is compared, but each distinct polynomial of a row is evaluated
    once: a mirror pair shares one memo object.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    first_failure = None
    for n in range(1, n_max + 1):
        if lucas(n).evaluate(2, -1) != n:
            first_failure = {"n": n, "check": "lucas"}
            break
        coefficients = [lucanomial(n, k) for k in range(0, n + 1)]
        narayanas = [generalized_narayana_recurrence(n, k) for k in range(1, n + 1)]
        # Keyed by identity: the two lists keep every object alive, so no id is reused.
        distinct = {id(poly): poly for poly in coefficients + narayanas}
        value = {key: poly.evaluate(2, -1) for key, poly in distinct.items()}
        if [value[id(poly)] for poly in coefficients] != [comb(n, k) for k in range(0, n + 1)]:
            first_failure = {"n": n, "check": "binomial"}
            break
        row = [value[id(poly)] for poly in narayanas]
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
