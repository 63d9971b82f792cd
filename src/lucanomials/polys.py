"""Exact bivariate polynomial arithmetic in the variables s and t.

Every symbolic quantity in this package (Lucas polynomials, lucanomial
coefficients, Narayana polynomials, tiling weight sums) is a polynomial in
s and t with arbitrary-precision integer coefficients, and no operation
ever rounds or overflows.  A term s^se t^te has weight w = se + 2*te.
Every Lucas object has one weight and a coefficient at every t exponent
between its least and its greatest, so a value is stored as rows: a map
from each weight to (t_min, [c_tmin, ..., c_tmax]), the coefficients of
that weight in ascending powers of t.  Each row starts and ends with a
nonzero coefficient and may hold zeros inside; a weight with no terms has
no row.  That form is canonical, so equality is plain dict equality.

Multiplication takes one row product per pair of rows.  A row of one slot
is a monomial c s^i t^j, such as T, S, ONE or a coerced int, and its
product with a row is that row scaled by c, at the summed weight and t
offset; with c = 1 it is the same list, since no row list is ever changed
in place.  Of the other pairs, short, sparse or signed rows take the
pairwise loop; the rest, one big-number product of the rows packed by
Kronecker substitution, in CPython ints or, for the largest products, in
libmpdec decimals.  The two packed tiers take only nonnegative rows, as
every Lucas object and atom has, and share:

* Slots.  The coefficient at t^te goes to slot te - t_min of its row, so
  the product of two rows is read off its slots with no key to rebuild.
  The product of two rows with nonzero ends has nonzero ends, as Z is a
  domain, so it is a row as it stands.
* Bound.  With bits = bits(max a) + bits(max b) + bits(min(len a,
  len b)), every product coefficient is below 2^bits.
* Int tier.  Each slot is `width` bytes with 8*width >= bits.  One
  `to_bytes` splits the product.
* Decimal tier.  Each slot is `digits` decimal digits, the fewest with
  10^digits > 2^bits.  Each row is one `Decimal` read from its
  zero-padded coefficient texts, joined once; the product is taken in a
  local context of maximal precision, where libmpdec multiplies large
  operands by number-theoretic transform in O(n log n) against
  Karatsuba's O(n^1.58), and one `format(..., "f")` splits it.  It serves
  products of more than DECIMAL_MIN_BITS packed bits whose shorter row
  packs to more than DECIMAL_MIN_OPERAND_BITS, and only when the C
  `_decimal` module imports (it is imported then, not at start-up);
  otherwise the int tier does.  Neither the decimal module's global
  context nor the int/str digit limit is left changed.
* Pairwise loop.  When the shorter row has at most SCHOOLBOOK_MAX_TERMS
  slots, the product has more slots than there are pairs of nonzero
  coefficients (sparse rows), or either row has a negative coefficient,
  the pairwise loop runs instead; it is the kernel's exact base case, not
  a second kernel.  A signed product is quadratic in its row lengths.

Division exists only as :func:`divide_exact`, which raises
:class:`NotDivisibleError` when no exact quotient exists.  All quotients
taken elsewhere in the package are guaranteed exact by identities, so a
NotDivisibleError signals a violated identity or a bug, never a user error.
Its one step divides one row by another as a series:

* Series.  With u = t/s^2 a row of weight W is s^W p(u), so the quotient
  has weight W_num - W_den and is p_num(u) / p_den(u).  The weights and
  the two t ranges fix the quotient's t range; a range that is empty or
  starts below t^0, or one that would need a negative s exponent, admits
  no quotient.
* Steps.  The coefficients are taken in ascending powers of u, each one
  inner product of the divisor's tail with the quotient so far, then a
  divmod by the divisor's lowest-t coefficient; a nonzero remainder means
  no quotient.
* Certificate.  The numerator's coefficients past the quotient's length
  must equal the same convolution, so quotient times divisor is the
  numerator exactly.
* Grading.  The weight grades Z[s, t], and the top-weight row of q * d is
  q_top * d_top.  So each step divides the remainder's top row by the
  divisor's, keeps that quotient row and subtracts it times the divisor.
  The remainder's top weight falls strictly and is never negative, so the
  loop ends.  When both operands have one row, as every Lucas object has,
  the certificate already proves the remainder zero: one step and no
  product.

Rendering uses graded lexicographic term order (total degree first, then
s exponent), descending, so output is deterministic.  The zero polynomial
has no rows and no terms, and renders as "0".
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping
from operator import add, mul
from types import MappingProxyType

__all__ = [
    "ONE",
    "S",
    "T",
    "ZERO",
    "NotDivisibleError",
    "Poly",
    "PolyParseError",
    "divide_exact",
    "int_text",
    "parse",
    "render",
]

Monomial = tuple[int, int]  # (s exponent, t exponent)
Row = tuple[int, list[int]]  # (least t exponent, coefficients from it up)


class NotDivisibleError(ArithmeticError):
    """No exact polynomial quotient exists."""


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the 0-based failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_int(value: object) -> bool:
    # A bool is an int to isinstance(), but True would write "s": true in JSON.
    return isinstance(value, int) and not isinstance(value, bool)


def _ordered_items(terms: Mapping[Monomial, int]) -> list[tuple[Monomial, int]]:
    # Graded lex, s before t, descending.
    return sorted(terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))


class Poly:
    """Immutable polynomial in Z[s, t], stored in canonical form.

    The storage is one dense row per weight (see the module docstring), so
    a row costs memory in proportion to its t span, not to its number of
    terms: s^(2N) + t^N holds a row of N + 1 slots, and construction, `+`,
    `*` and division all allocate O(N) for it.  The pairwise loop
    multiplies such sparse rows in time linear in their lengths plus the
    pairs of nonzero terms.  It also takes every row pair with a negative
    coefficient, since the packed tiers take nonnegative rows only.  A row
    of one slot, a monomial, takes neither: its product with a row is that
    row scaled, in one pass, or that row's own list when the scale is 1.
    """

    __slots__ = ("_rows",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] | None = None):
        by_weight: dict[int, dict[int, int]] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                se, te = key
                if not (_is_int(se) and _is_int(te) and _is_int(coeff)):
                    raise TypeError("exponents and coefficients must be int, not bool")
                if se < 0 or te < 0:
                    raise ValueError(f"negative exponent in monomial {key}")
                row = by_weight.setdefault(se + 2 * te, {})
                total = row.get(te, 0) + coeff
                if total:
                    row[te] = total
                else:
                    row.pop(te, None)
        self._rows: dict[int, Row] = {}
        for weight, row in by_weight.items():
            if row:
                lo = min(row)
                dense = [0] * (max(row) - lo + 1)
                for te, coeff in row.items():
                    dense[te - lo] = coeff
                self._rows[weight] = (lo, dense)

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only term mapping {(s exponent, t exponent): coefficient}, built on demand."""
        return MappingProxyType({(weight - 2 * te, te): c for weight, (lo, row) in self._rows.items()
                                 for te, c in enumerate(row, lo) if c})

    _terms = terms  # the name perfbench/trace_child.py reads

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        rows = self._rows
        # A constant hashes as its int, since it compares equal to it.
        return hash(self.evaluate(0, 0) if rows.keys() <= {0} else
                    frozenset((weight, lo, tuple(row)) for weight, (lo, row) in rows.items()))

    def __neg__(self) -> Poly:
        return _from_rows({weight: (lo, [-c for c in row]) for weight, (lo, row) in self._rows.items()})

    def __add__(self, other: Poly | int) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._rows)
        for weight, (lo, row) in other._rows.items():
            _add_row(out, weight, lo, row)
        return _from_rows(out)

    __radd__ = __add__

    def __sub__(self, other: Poly | int) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Poly | int) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Poly | int) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Row] = {}
        for wa, (la, a) in self._rows.items():
            for wb, (lb, b) in other._rows.items():
                if len(a) == 1 or len(b) == 1:
                    # A monomial c s^i t^j scales the other row; c = 1 shares its list.
                    (c,), row = (a, b) if len(a) == 1 else (b, a)
                    if c != 1:
                        row = [c * x for x in row]
                elif (min(len(a), len(b)) <= SCHOOLBOOK_MAX_TERMS
                        or len(a) + len(b) - 1 > (len(a) - a.count(0)) * (len(b) - b.count(0))
                        or min(a) < 0 or min(b) < 0):
                    row = _mul_schoolbook(a, b)
                else:
                    row = _mul_kronecker(a, b)
                _add_row(out, wa + wb, la + lb, row)
        return _from_rows(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not _is_int(exponent) or exponent < 0:
            raise ValueError("exponent must be a nonnegative int")
        # Square-and-multiply over the bits of the exponent, low bit first.
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return ONE if result is None else result
            base = base * base

    def evaluate(self, s0: int, t0: int) -> int:
        """Exact integer value at (s, t) = (s0, t0); int points only, not bool."""
        if not (_is_int(s0) and _is_int(t0)):
            raise TypeError("evaluation points must be int, not bool")
        total, square = 0, s0 * s0
        for weight, (lo, row) in self._rows.items():
            # Horner over the row: sum of c_i (s0^2)^(len - 1 - i) t0^i, then the common factor.
            acc, power = 0, 1
            for c in row:
                acc = acc * square + c * power
                power *= t0
            total += acc * s0 ** (weight - 2 * (lo + len(row) - 1)) * t0**lo
        return total

    def is_nonneg(self) -> bool:
        """True iff every nonzero coefficient is positive: the coefficientwise positivity witness."""
        return all(min(row) >= 0 for _, row in self._rows.values())

    def to_json_dict(self) -> dict:
        """JSON form with coefficients as decimal strings (no 64-bit or digit limits)."""
        return {"terms": _no_digit_limit(_json_terms, self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> Poly:
        """Read `to_json_dict`'s form: int exponents, coefficients as ints or decimal strings."""
        return _no_digit_limit(_read_json_terms, data)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Poly({render(self)!r})"


def _add_row(rows: dict[int, Row], weight: int, lo: int, row: list[int]) -> None:
    """Add the row (lo, row) at `weight` into `rows` in place, keeping it canonical.

    No row list is changed: a sum is a new list, so rows may be shared.
    """
    if weight not in rows:
        rows[weight] = (lo, row)
        return
    lo2, row2 = rows[weight]
    start, end = min(lo, lo2), max(lo + len(row), lo2 + len(row2))
    total = list(map(add, [0] * (lo - start) + row + [0] * (end - lo - len(row)),
                     [0] * (lo2 - start) + row2 + [0] * (end - lo2 - len(row2))))
    i, j = 0, len(total)
    while i < j and not total[i]:
        i += 1
    while j > i and not total[j - 1]:
        j -= 1
    if i == j:
        del rows[weight]
    else:
        rows[weight] = (start + i, total[i:j])


# ---------------------------------------------------------------------------
# Multiplication kernel
# ---------------------------------------------------------------------------

# Products whose shorter row has at most this many slots use the pairwise
# loop; packing and unpacking cost more than they save below it.
SCHOOLBOOK_MAX_TERMS = 8

# Products of more packed bits (slots times the per-slot bound) than
# DECIMAL_MIN_BITS, whose shorter row packs to more than
# DECIMAL_MIN_OPERAND_BITS, take the decimal tier; both cutoffs are measured
# crossovers.  The transform costs about as much for a lopsided product as
# for a balanced one of the same size, while Karatsuba's cost falls with the
# smaller operand, and libmpdec multiplies an operand of up to 256 words
# (4864 digits) by schoolbook.
DECIMAL_MIN_BITS = 300_000
DECIMAL_MIN_OPERAND_BITS = 75_000


def _mul_schoolbook(a: list[int], b: list[int]) -> list[int]:
    """Product of two rows, one step per pair of nonzero coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in nonzero_b:
                out[i + j] += ca * cb
    return out


def _slot_bits(a: list[int], b: list[int]) -> int:
    # Every coefficient of the product of two nonnegative rows is below 2^bits.
    return max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()


def _mul_kronecker(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonnegative rows in a packed tier (see the module docstring)."""
    bits = _slot_bits(a, b)
    if ((len(a) + len(b) - 1) * bits > DECIMAL_MIN_BITS
            and min(len(a), len(b)) * bits > DECIMAL_MIN_OPERAND_BITS):
        values = _no_digit_limit(_product_decimal, a, b, bits)
        if values is not None:
            return values
    return _product_int(a, b, bits)


def _product_int(a: list[int], b: list[int], bits: int) -> list[int]:
    """The product row, from one int product of width-byte slots."""
    width = -(-bits // 8)  # 8 * width >= bits

    def number(slots):
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in slots]), "little")

    packed_a = number(a)
    product = packed_a * (packed_a if b is a else number(b))
    data = product.to_bytes((len(a) + len(b) - 1) * width, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[at:at + width], "little") for at in range(0, len(data), width)]


def _product_decimal(a: list[int], b: list[int], bits: int) -> list[int] | None:
    """The product row, from one decimal product of digit slots.

    None when the C decimal module is missing: the pure-Python one has no
    fast multiply, and the int tier serves instead.  The digit limit must be
    lifted by the caller, since a slot may be wider than 4300 digits.
    """
    try:
        from _decimal import MAX_EMAX, MAX_PREC, Context, Decimal
    except ImportError:
        return None
    # 10^digits > 2^bits, since log10(2) < 0.30102999566398119522, and
    # no fewer digits do for any width below 10^9 bits.
    digits = bits * 30102999566398119522 // 10**20 + 1
    slot = f"{{:0{digits}d}}".format

    def number(slots):
        # Decimal text puts the highest slot first.
        return Decimal("".join(map(slot, reversed(slots))))

    packed_a = number(a)
    product = Context(prec=MAX_PREC, Emax=MAX_EMAX).multiply(packed_a, packed_a if b is a else number(b))
    text = format(product, "f").zfill((len(a) + len(b) - 1) * digits)
    return [int(text[at - digits:at]) for at in range(len(text), 0, -digits)]


def _from_rows(rows: dict[int, Row]) -> Poly:
    # Internal fast path: `rows` is already canonical.
    poly = Poly.__new__(Poly)
    poly._rows = rows
    return poly


def _coerce(value: object) -> Poly:
    if isinstance(value, Poly):
        return value
    if _is_int(value):
        return _from_rows({0: (0, [value])}) if value else ZERO
    return NotImplemented


ZERO = Poly()
ONE = Poly({(0, 0): 1})
S = Poly({(1, 0): 1})
T = Poly({(0, 1): 1})


# ---------------------------------------------------------------------------
# Rendering and parsing
# ---------------------------------------------------------------------------

def _no_digit_limit(convert, *args):
    """convert(*args), with Python's int/str digit limit lifted meanwhile.

    Python refuses int/str conversions past 4300 digits by default.  The
    limit is lifted for one whole conversion only, so parsing untrusted
    input elsewhere in the process keeps the guard.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return convert(*args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def int_text(value: int) -> str:
    """Decimal text of an exact integer result, of any number of digits."""
    return _no_digit_limit(str, value)


def _json_terms(poly: Poly) -> list[dict]:
    return [{"s": se, "t": te, "c": str(c)} for (se, te), c in _ordered_items(poly.terms)]


_DECIMAL = re.compile("-?[0-9]+")


def _read_json_terms(data: dict) -> Poly:
    try:
        items = [((term["s"], term["t"]), term["c"]) for term in data["terms"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from exc
    # type() rather than isinstance(): a JSON true is no exponent.
    if not all(type(se) is type(te) is int and type(c) in (int, str) and _DECIMAL.fullmatch(str(c))
               for (se, te), c in items):
        raise ValueError("malformed polynomial JSON: exponents must be integers "
                         "and coefficients integers or decimal strings")
    return Poly([(key, int(c)) for key, c in items])


def render(poly: Poly) -> str:
    """Canonical text form, of any coefficient size: graded lex descending, s before t."""
    return _no_digit_limit(_render, poly)


def _render(poly: Poly) -> str:
    items = _ordered_items(poly.terms)
    if not items:
        return "0"
    terms = []
    for (se, te), coeff in items:
        # A coefficient of magnitude 1 is written only on the constant term;
        # "*" joins whichever of coefficient, s power and t power are written.
        mag = abs(coeff)
        num = f"{mag}" if mag != 1 or not (se or te) else ""
        s_part = "" if not se else "s" if se == 1 else f"s^{se}"
        t_part = "" if not te else "t" if te == 1 else f"t^{te}"
        terms.append(
            f"{' - ' if coeff < 0 else ' + '}{num}{'*' if num and s_part else ''}{s_part}"
            f"{'*' if t_part and (num or s_part) else ''}{t_part}"
        )
    # The first term's sign is "-" or nothing, not " - " or " + ".
    terms[0] = f"-{terms[0][3:]}" if items[0][1] < 0 else terms[0][3:]
    return "".join(terms)


_TOKEN = re.compile(r"([0-9]+)|([-st^*+])|\S")  # ASCII digits: "\d" takes "²" and "٣"


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    # Tokens: ("num", value, pos) or (symbol, 0, pos) for s t ^ * + -, then
    # ("end", 0, len(text)), so that no read runs past the list.
    tokens = []
    for match in _TOKEN.finditer(text):
        digits, symbol = match.groups()
        if not (digits or symbol):
            raise PolyParseError(f"unexpected character {match[0]!r}", match.start())
        tokens.append(("num", int(digits), match.start()) if digits else (symbol, 0, match.start()))
    tokens.append(("end", 0, len(text)))
    return tokens


def parse(text: str) -> Poly:
    """Parse the textual polynomial grammar, of any coefficient size.

    term ::= [coeff "*"] ["s" ["^" int]] ["*"] ["t" ["^" int]]
    with terms joined by " + " / " - " and an optional leading sign.  The
    "*" separators are optional on input; `render` always emits them.
    """
    return _no_digit_limit(_parse, text)


def _parse(text: str) -> Poly:
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise PolyParseError("empty polynomial text", 0)
    factors = ("num", "s", "t")
    terms: list[tuple[Monomial, int]] = []
    i = 0
    while not (terms and tokens[i][0] == "end"):
        kind, _, pos = tokens[i]
        if kind in ("+", "-"):
            i += 1
        elif terms:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        first = i
        values = [1, 0, 0]  # coefficient, s exponent, t exponent
        # Each factor at most once, in order; a variable takes an optional
        # exponent, and a '*' must be followed by a later factor.
        for f, factor in enumerate(factors):
            if tokens[i][0] != factor:
                continue
            values[f] = tokens[i][1] if f == 0 else 1
            i += 1
            if f and tokens[i][0] == "^":
                if tokens[i + 1][0] != "num":
                    raise PolyParseError("expected exponent after '^'", tokens[i + 1][2])
                values[f] = tokens[i + 1][1]
                i += 2
            if f < 2 and tokens[i][0] == "*":
                i += 1
                if tokens[i][0] not in factors[f + 1:]:
                    later = " or ".join(repr(name) for name in factors[f + 1:])
                    raise PolyParseError(f"expected {later} after '*'", tokens[i][2])
        if i == first:
            # At the end of the text, the missing term is reported at its sign.
            raise PolyParseError("expected a term", tokens[i - 1 if tokens[i][0] == "end" else i][2])
        terms.append(((values[1], values[2]), (-1 if kind == "-" else 1) * values[0]))
    return Poly(terms)


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------

def divide_exact(num: Poly | int, den: Poly | int) -> Poly:
    """Exact quotient num / den, or raise.

    Int operands are taken as constant polynomials; any other type raises
    TypeError.  Raises NotDivisibleError when no exact quotient exists and
    ZeroDivisionError when den is the zero polynomial.
    """
    num, den = _coerce(num), _coerce(den)
    if num is NotImplemented or den is NotImplemented:
        raise TypeError("divide_exact operands must be Poly or int")
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    top = max(den._rows)
    rem = num._rows
    out: dict[int, Row] = {}
    while rem:
        head = max(rem)
        weight = head - top
        out[weight] = row = _divide_series(weight, rem[head], den._rows[top])
        if len(rem) == len(den._rows) == 1:
            break  # the series certificate proves rem == row * den
        rem = (_from_rows(rem) - _from_rows({weight: row}) * den)._rows
    return _from_rows(out)


def _divide_series(weight: int, a: Row, b: Row) -> Row:
    """The quotient row, of weight `weight`, of the row a by the row b.

    See the module docstring: the coefficients of p_a / p_b in ascending
    powers of u = t/s^2, each checked by a divmod, then a certificate over
    the numerator's remaining coefficients.
    """
    (a_lo, num), (b_lo, den) = a, b
    q_lo, q_hi = a_lo - b_lo, a_lo + len(num) - b_lo - len(den)
    if q_lo < 0 or q_hi < q_lo or 2 * q_hi > weight:
        raise NotDivisibleError("no exact quotient: the weights or t ranges do not fit")
    lead, tail = den[0], den[1:]
    size = q_hi - q_lo + 1
    # rev[size - 1 - i] is the i-th quotient coefficient, so rev[size - i:]
    # lists the ones already found, latest first, ready for an inner product.
    rev = [0] * size
    for i in range(size):
        at = size - i
        q, r = divmod(num[i] - sum(map(mul, tail, rev[at:at + len(tail)])), lead)
        if r:
            raise NotDivisibleError("no exact quotient: a series coefficient is not an integer")
        rev[at - 1] = q
    for i in range(size, len(num)):
        if num[i] != sum(map(mul, den[i - size + 1:], rev)):
            raise NotDivisibleError("no exact quotient: the numerator's top coefficients disagree")
    # Both ends are nonzero: num[0] / den[0] starts the quotient, and the
    # certificate makes quotient * den == num, whose top coefficient is nonzero.
    return q_lo, rev[::-1]
