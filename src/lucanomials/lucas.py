"""Lucas polynomials, Lucas factorials, lucanomials, and Fibonacci versions.

The Lucas polynomial sequence is {0} = 0, {1} = 1 and
{n} = s*{n-1} + t*{n-2}; the Lucas factorial is {n}! = {n}{n-1}...{1} with
{0}! = 1.  The lucanomial coefficient {n choose k} = {n}!/({k}!{n-k}!) is a
polynomial analogue of the binomial coefficient.

The primary route is the Lucas-atom factorisation (B. Sagan and J. Tirrell,
"Lucas atoms", Adv. Math. 2020).  The atoms P_d, d >= 2, are defined by
{n} = prod_{d | n, d > 1} P_d, so :func:`lucas_atom` obtains P_d by exactly
dividing {d} by the atoms of the proper divisors of d.  Counting how often
P_d divides {n}!, {k}! and {n-k}! gives

    {n choose k} = prod_{d=2..n} P_d^(floor(n/d) - floor(k/d) - floor((n-k)/d)),

where every exponent is 0 or 1.  :func:`lucanomial` is that product, with
no recursion and no table of smaller lucanomials.  Two independent routes
are kept so that a wrong answer disagrees loudly:

* :func:`lucanomial_recurrence_oracle` fills the division-free Pascal-style
  recurrence from the splitting identity {n} = {k}{n-k+1} + t*{k-1}{n-k},
  namely  {n,k} = {n-k+1}*{n-1,k-1} + t*{k-1}*{n-1,k}, row by row;
* :func:`lucanomial_division_oracle` evaluates the factorial quotient with
  exact division.

Setting s = t = 1 turns {n} into the Fibonacci number F_n, and the integer
functions (fibonacci, fib_factorial, fibonacci_atom, fibonomial) are the
same code there: each algorithm is one private body that takes the ring's
pieces (s, t, zero, the exact quotient, the product) as arguments, passed by
module name at call time, so a wrapper on a module function sees every call.

Memoisation.  The sequences {n} and F_n are append-only module lists that
grow by the recurrence, one term at a time and without recursion, so a large
index never meets the interpreter's recursion limit.  Every other memo in the
package is a functools.lru_cache bounded at MEMO_SIZE entries: the atoms
(keyed on d), the factorials (keyed on n), lucanomials and fibonomials
(keyed on (n, min(k, n-k))), the four Narayana memos of
:mod:`lucanomials.narayana` (the recurrence and the definitional quotient
in each ring, keyed on the mirror key (n, min(k, n+1-k))), and the row
tilings and cut offsets of :mod:`lucanomials.tilings`.  An evicted entry
is recomputed on its next use, so the bound caps memory and never changes
a result.  An atom recurses through the cache over the divisors of d, so
its recursion depth is at most log2 d.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .polys import ONE, NotDivisibleError, Poly, S, T, ZERO, divide_exact

MEMO_SIZE = 4096
"""Entries kept by each lru_cache memo of the package."""


def _int_quotient(a: int, b: int) -> int:
    """a / b for ints, raising NotDivisibleError on a remainder: divide_exact over int."""
    quotient, remainder = divmod(a, b)
    if remainder:
        raise NotDivisibleError("no exact integer quotient")
    return quotient


def _balanced_product(factors: list[Poly]) -> Poly:
    """The product of factors, multiplied in adjacent pairs, level by level.

    The operands of each level's products have about equal size, which is
    where the Kronecker kernel of Poly.__mul__ gains; a running product
    would multiply a large partial product by one small atom at a time.
    """
    if not factors:
        return ONE
    while len(factors) > 1:
        paired = [x * y for x, y in zip(factors[::2], factors[1::2])]
        factors = paired + factors[-1:] if len(factors) % 2 else paired
    return factors[0]


def _sequence(terms: list, n: int, s, t):
    """x_n of x_n = s*x_{n-1} + t*x_{n-2}, appending to terms, which holds x_0, x_1, ..."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(terms) <= n:
        terms.append(s * terms[-1] + t * terms[-2])
    return terms[n]


_lucas_polys: list[Poly] = [ZERO, ONE]
_fibs: list[int] = [0, 1]


def lucas(n: int) -> Poly:
    """The Lucas polynomial {n}."""
    return _sequence(_lucas_polys, n, S, T)


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    return _sequence(_fibs, n, 1, 1)


def _factorial(n: int, term, product):
    """term(n) * term(n-1) * ... * term(1), the empty product at n = 0."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return product([term(m) for m in range(1, n + 1)])


@lru_cache(maxsize=MEMO_SIZE)
def lucas_factorial(n: int) -> Poly:
    """The Lucas factorial {n}!, with {0}! = 1."""
    return _factorial(n, lucas, _balanced_product)


@lru_cache(maxsize=MEMO_SIZE)
def fib_factorial(n: int) -> int:
    """F_n! = F_n * F_{n-1} * ... * F_1, with F_0! = 1."""
    return _factorial(n, fibonacci, prod)


def _divisors(n: int) -> list[int]:
    """The divisors d > 1 of n in ascending order, so n itself comes last."""
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return (small + large[::-1])[1:]


def _atom(d: int, term, atom, quotient):
    """term(d) exactly divided by atom(e) for each e | d, 1 < e < d."""
    if d < 2:
        raise ValueError("atom index must be at least 2")
    value = term(d)
    for e in _divisors(d)[:-1]:
        value = quotient(value, atom(e))
    return value


@lru_cache(maxsize=MEMO_SIZE)
def lucas_atom(d: int) -> Poly:
    """The Lucas atom P_d, d >= 2: {d} exactly divided by P_e for each e | d, 1 < e < d.

    NotDivisibleError propagating from here would falsify the factorisation
    and is treated as an internal assertion failure.
    """
    return _atom(d, lucas, lucas_atom, divide_exact)


@lru_cache(maxsize=MEMO_SIZE)
def fibonacci_atom(d: int) -> int:
    """The integer atom P_d(1, 1), d >= 2: F_d exactly divided by the atoms of its proper divisors."""
    return _atom(d, fibonacci, fibonacci_atom, _int_quotient)


def _coefficient(n: int, k: int, zero, reduced):
    """reduced(n, min(k, n-k)) on 0 <= k <= n, zero outside it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return zero
    return reduced(n, min(k, n - k))


def _atom_product(n: int, k: int, atom, product):
    """{n choose k}, 0 <= k <= n, as the product of the atoms that divide it.

    The exponent floor(n/d) - floor(k/d) - floor((n-k)/d) is 0 or 1, and it
    is 0 for every d > n.  It is 1 exactly when adding k and n-k carries in
    the last base-d digit, that is when n mod d < k mod d.
    """
    return product([atom(d) for d in range(2, n + 1) if n % d < k % d])


def lucanomial(n: int, k: int) -> Poly:
    """The lucanomial {n choose k}, zero outside 0 <= k <= n.

    Computed as the product of the Lucas atoms P_d with exponent 1,
    multiplied as a balanced tree; agrees with the recurrence and with the
    factorial quotient.
    """
    return _coefficient(n, k, ZERO, _lucanomial)


@lru_cache(maxsize=MEMO_SIZE)
def _lucanomial(n: int, k: int) -> Poly:
    return _atom_product(n, k, lucas_atom, _balanced_product)


def fibonomial(n: int, k: int) -> int:
    """The fibonomial coefficient F_n!/(F_k! F_{n-k}!), zero outside 0 <= k <= n.

    Computed as the product of the integer atoms with exponent 1.
    """
    return _coefficient(n, k, 0, _fibonomial)


@lru_cache(maxsize=MEMO_SIZE)
def _fibonomial(n: int, k: int) -> int:
    return _atom_product(n, k, fibonacci_atom, prod)


def lucanomial_recurrence_oracle(n: int, k: int) -> Poly:
    """{n choose k} from the splitting-identity recurrence, filled row by row.

    Division-free and independent of the atom factorisation; must equal
    lucanomial(n, k).  Row m holds the columns 0..min(m, k), and the column
    past the end of the previous row is the lucanomial zero.  Row n, column k
    reads only the columns j >= k - (n - m) of row m; the ones below are left
    ZERO and never read.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    row = [ONE]
    for m in range(1, n + 1):
        prev = row
        lo = max(1, k - n + m)
        row = [ONE] + [ZERO] * (lo - 1)
        for j in range(lo, min(m, k) + 1):
            above = prev[j] if j < len(prev) else ZERO
            row.append(lucas(m - j + 1) * prev[j - 1] + T * lucas(j - 1) * above)
    return row[k]


def lucanomial_division_oracle(n: int, k: int) -> Poly:
    """{n}! / ({k}! {n-k}!) by exact division; must equal lucanomial(n, k).

    NotDivisibleError propagating from here would falsify lucanomial
    integrality and is treated as an internal assertion failure.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return divide_exact(lucas_factorial(n), lucas_factorial(k) * lucas_factorial(n - k))
