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
no recursion and no table of smaller lucanomials.  Its independent second
route is the tiling weight sum of
:func:`lucanomials.tilings.lucanomial_tiling_oracle` (Theorem 1), which
``verify theorem1`` compares with it; read on lucanomials, its step is the
division-free recurrence that follows from the splitting identity
{n} = {k}{n-k+1} + t*{k-1}{n-k}.  The tests hold one more reference, the
factorial quotient {n}!/({k}!{n-k}!).

Setting s = t = 1 turns {n} into the Fibonacci number F_n, and the integer
functions (fibonacci, fib_factorial, fibonacci_atom, fibonomial) are the
same code there: each algorithm is one private body that takes a ring
record alone, of (s, t, zero, one, product, exact quotient) and the ring's
memos ({n} or F_n, the atom, lucanomial or fibonomial), _POLY for Z[s, t]
or _INT for Z, and returns the whole value, products included; the memos
it reads come by module name, so a wrapper sees every call.

Memoisation.  There is one memo style: every memo in the package is a
functools.lru_cache bounded at MEMO_SIZE entries, so no module state grows.
They hold {n} and F_n, the atoms (keyed on d), the factorials (keyed on n),
the row tilings, cut offsets and rows of tiling sums (keyed on n) of
:mod:`lucanomials.tilings`, and the lucanomials, fibonomials and six
Narayana functions, which :func:`_mirrored` keys on the mirror key of their
symmetry, (n, min(k, n-k)) or (n, min(k, n+1-k)).  {n} comes by index
doubling, the splitting identity above at the middle k, so its recursion
depth is about log2 n; an atom recurses through the cache over the divisors
of d, at most log2 d deep; a cold row of tiling sums recurses through the
rows below it.  An evicted entry is recomputed on its next use, so the
bound caps memory and never changes a result.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, wraps
from math import prod

from .polys import ONE, NotDivisibleError, Poly, S, T, ZERO, divide_exact

# Not lucas: the package re-exports this list, and lucanomials.lucas names this module.
__all__ = [
    "fib_factorial",
    "fibonacci",
    "fibonacci_atom",
    "fibonomial",
    "lucanomial",
    "lucas_atom",
    "lucas_factorial",
]

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


_Ring = namedtuple("_Ring", "s t zero one product quotient term atom coefficient")

# divide_exact and the memos ({n} or F_n, the atom, the coefficient) are looked
# up when called, so a wrapper rebound into this module sees every call.
_POLY = _Ring(S, T, ZERO, ONE, _balanced_product, lambda a, b: divide_exact(a, b),
              lambda n: lucas(n), lambda d: lucas_atom(d), lambda n, k: lucanomial(n, k))
_INT = _Ring(1, 1, 0, 1, prod, _int_quotient,
             lambda n: fibonacci(n), lambda d: fibonacci_atom(d), lambda n, k: fibonomial(n, k))


def _term(n: int, ring):
    """x_n of x_n = s*x_{n-1} + t*x_{n-2}, x_0 = zero, x_1 = one, by index doubling.

    x_{2m+1} = x_{m+1}^2 + t*x_m^2 and x_{2m} = x_m (x_{m+1} + t*x_{m-1}), x_j = ring.term(j).
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n < 3:
        return (ring.zero, ring.one, ring.s)[n]
    a, b = ring.term(n // 2), ring.term(n // 2 + 1)
    if n % 2:
        return b * b + ring.t * (a * a)
    return a * (b + ring.t * ring.term(n // 2 - 1))


@lru_cache(maxsize=MEMO_SIZE)
def lucas(n: int) -> Poly:
    """The Lucas polynomial {n}."""
    return _term(n, _POLY)


@lru_cache(maxsize=MEMO_SIZE)
def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    return _term(n, _INT)


def _factorial(n: int, ring):
    """x_n * x_{n-1} * ... * x_1 with x_j = ring.term(j), the empty product at n = 0."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    term = ring.term
    return ring.product([term(m) for m in range(1, n + 1)])


@lru_cache(maxsize=MEMO_SIZE)
def lucas_factorial(n: int) -> Poly:
    """The Lucas factorial {n}!, with {0}! = 1."""
    return _factorial(n, _POLY)


@lru_cache(maxsize=MEMO_SIZE)
def fib_factorial(n: int) -> int:
    """F_n! = F_n * F_{n-1} * ... * F_1, with F_0! = 1."""
    return _factorial(n, _INT)


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


def _atom(d: int, ring):
    """ring.term(d) exactly divided by ring.atom(e) for each e | d, 1 < e < d."""
    if d < 2:
        raise ValueError("atom index must be at least 2")
    value = ring.term(d)
    for e in _divisors(d)[:-1]:
        value = ring.quotient(value, ring.atom(e))
    return value


@lru_cache(maxsize=MEMO_SIZE)
def lucas_atom(d: int) -> Poly:
    """The Lucas atom P_d, d >= 2: {d} exactly divided by P_e for each e | d, 1 < e < d.

    NotDivisibleError propagating from here would falsify the factorisation
    and is treated as an internal assertion failure.
    """
    return _atom(d, _POLY)


@lru_cache(maxsize=MEMO_SIZE)
def fibonacci_atom(d: int) -> int:
    """The integer atom P_d(1, 1), d >= 2: F_d exactly divided by the atoms of its proper divisors."""
    return _atom(d, _INT)


def _mirrored(first: int, zero):
    """The public function of a family f(n, k) = f(n, n+first-k), made from its body.

    It raises ValueError for n < first, returns zero for k outside first..n,
    as every route of the family does there, and otherwise calls the body at
    (n, min(k, n+first-k)) through an lru_cache bounded at MEMO_SIZE, whose
    cache_info and cache_clear it carries; __wrapped__ is the body.
    """
    def decorate(body):
        memo = lru_cache(maxsize=MEMO_SIZE)(body)

        @wraps(body)
        def family(n: int, k: int):
            if n < first:
                raise ValueError(f"need n >= {first}")
            if not first <= k <= n:
                return zero
            return memo(n, min(k, n + first - k))

        family.cache_info = memo.cache_info
        family.cache_clear = memo.cache_clear
        return family

    return decorate


def _lucanomial(n: int, k: int, ring):
    """{n choose k} in ring, 0 <= k <= n: the product of ring.atom(d) over the d of exponent 1.

    The exponent floor(n/d) - floor(k/d) - floor((n-k)/d) is 0 or 1, and it
    is 0 for every d > n.  It is 1 exactly when adding k and n-k carries in
    the last base-d digit, that is when n mod d < k mod d.
    """
    atom = ring.atom
    return ring.product([atom(d) for d in range(2, n + 1) if n % d < k % d])


@_mirrored(0, ZERO)
def lucanomial(n: int, k: int) -> Poly:
    """The lucanomial {n choose k}, zero outside 0 <= k <= n.

    Computed as the product of the Lucas atoms P_d with exponent 1,
    multiplied as a balanced tree; agrees with the recurrence and with the
    factorial quotient.
    """
    return _lucanomial(n, k, _POLY)


@_mirrored(0, 0)
def fibonomial(n: int, k: int) -> int:
    """The fibonomial coefficient F_n!/(F_k! F_{n-k}!), zero outside 0 <= k <= n.

    Computed as the product of the integer atoms with exponent 1.
    """
    return _lucanomial(n, k, _INT)
