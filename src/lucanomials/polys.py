"""Exact bivariate polynomial arithmetic in the variables s and t.

Every symbolic quantity in this package (Lucas polynomials, lucanomial
coefficients, Narayana polynomials, tiling weight sums) is a polynomial in
s and t with arbitrary-precision integer coefficients.  Values are kept in
canonical form: a mapping from exponent pairs (s_exp, t_exp) to nonzero int
coefficients.  Equality is therefore plain dict equality, and no operation
ever rounds or overflows.

Multiplication is one kernel with three size tiers, chosen from the
operands: the pairwise loop for small or sparse products, and above it one
big-number product of the operands packed by Kronecker substitution, taken
in CPython ints or, for the largest products, in libmpdec decimals.  The
two packed tiers share the slot layout and the sign scheme:

* Slots.  A term s^se t^te has weight w = se + 2*te.  It goes to slot
  (w - wmin) * span + (te - tmin), where wmin and tmin are the operand's
  least weight and t exponent, and span = (tmax_a - tmin_a) +
  (tmax_b - tmin_b) + 1 is the number of t exponents the product can
  reach at one weight, so sums of t exponents never spill into the next
  weight.  Every Lucas object is weighted-homogeneous (one weight), so its
  slots are dense: one per term, no zeros.  Other polynomials leave some
  slots zero.
* Bound.  With bits = bits(max|a|) + bits(max|b|) + bits(min(len a,
  len b)), every product coefficient has absolute value below 2^bits.
* Sign.  An operand is the number read from its positive coefficients'
  slots minus the number read from its negative ones'.  When either
  operand has a negative coefficient, adding half the slot's range to
  every slot of the product makes each slot nonnegative, so the product
  splits slot by slot, and the bias is subtracted again per slot.  Zero
  slots are dropped, which leaves the result canonical.
* Int tier.  Each slot is `width` bytes with 8*width - 1 >= bits, and any
  bias is 2^(8*width - 1).  One `to_bytes` splits the product.
* Decimal tier.  Each slot is `digits` decimal digits with
  10^digits > 2^(bits + 1), and any bias is 5 * 10^(digits - 1).  Each
  operand is one `Decimal` read from its zero-padded coefficient texts,
  joined once; the product is taken in a local context of maximal precision,
  where libmpdec multiplies large operands by number-theoretic transform
  in O(n log n) against Karatsuba's O(n^1.58), and one `format(..., "f")`
  splits it.  It serves products of more than DECIMAL_MIN_BITS packed
  bits whose smaller operand packs to more than DECIMAL_MIN_OPERAND_BITS,
  and only when the C `_decimal` module imports (it is imported then, not
  at start-up); otherwise the int tier does.  Neither the decimal module's
  global context nor the int/str digit limit is left changed.
* Pairwise loop.  When the smaller operand has at most SCHOOLBOOK_MAX_TERMS
  terms, or the product's slot grid would hold more slots than there are
  term pairs (sparse, non-homogeneous operands), the pairwise loop runs
  instead; it is the kernel's base case, not a second kernel.

Division exists only as :func:`divide_exact`, which raises
:class:`NotDivisibleError` when no exact quotient exists.  All quotients
taken elsewhere in the package are guaranteed exact by identities, so a
NotDivisibleError signals a violated identity or a bug, never a user error.
Its one step divides two weighted-homogeneous operands as a series:

* Series.  With u = t/s^2 a polynomial of weight W is s^W p(u), so the
  quotient has weight W_num - W_den and is p_num(u) / p_den(u).  The
  weights and the two t ranges fix the quotient's t range; a range that is
  empty or starts below t^0, or one that would need a negative s exponent,
  admits no quotient.
* Steps.  The coefficients, held in dense int lists, are taken in
  ascending powers of u, each one inner product of the divisor's tail with
  the quotient so far, then a divmod by the divisor's lowest-t
  coefficient; a nonzero remainder means no quotient.
* Certificate.  The numerator's coefficients past the quotient's length
  must equal the same convolution, so quotient times divisor is the
  numerator exactly.
* Grading.  The weight grades Z[s, t], and the top-weight part of q * d is
  q_top * d_top.  So each step divides the top-weight terms of the
  remainder by those of the divisor, keeps that quotient piece and
  subtracts piece * divisor.  The remainder's top weight falls strictly
  and is never negative, so the loop ends.  When both operands have one
  weight, as every Lucas object has, the certificate already proves the
  remainder zero: one step and no product.

Rendering uses graded lexicographic term order (total degree first, then
s exponent), descending, so output is deterministic.  The zero polynomial
has an empty term mapping and renders as "0".
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping
from operator import mul, sub
from types import MappingProxyType

Monomial = tuple[int, int]  # (s exponent, t exponent)


class NotDivisibleError(ArithmeticError):
    """No exact polynomial quotient exists."""


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the 0-based failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _ordered_items(terms: Mapping[Monomial, int]) -> list[tuple[Monomial, int]]:
    # Graded lex, s before t, descending.
    return sorted(terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))


class Poly:
    """Immutable polynomial in Z[s, t], stored in canonical form."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] | None = None):
        canonical: dict[Monomial, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                se, te = key
                # A bool is an int to isinstance(), but True would write "s": true in JSON.
                if (not (isinstance(se, int) and isinstance(te, int) and isinstance(coeff, int))
                        or bool in (type(se), type(te), type(coeff))):
                    raise TypeError("exponents and coefficients must be int, not bool")
                if se < 0 or te < 0:
                    raise ValueError(f"negative exponent in monomial {key}")
                total = canonical.get((se, te), 0) + coeff
                if total:
                    canonical[(se, te)] = total
                else:
                    canonical.pop((se, te), None)
        self._terms = canonical
        self._hash: int | None = None

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only view of the canonical term mapping."""
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __neg__(self) -> Poly:
        return Poly({k: -c for k, c in self._terms.items()})

    def __add__(self, other: Poly | int) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return _from_canonical(out)

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
        a, b = self._terms, other._terms
        if min(len(a), len(b)) > SCHOOLBOOK_MAX_TERMS:
            ea, eb = _extent(a), _extent(b)
            if _slot_count(ea, eb) <= len(a) * len(b):
                return _from_canonical(_mul_kronecker(a, b, ea, eb))
        return _from_canonical(_mul_schoolbook(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
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
        """Exact integer value at (s, t) = (s0, t0)."""
        return sum(c * s0**se * t0**te for (se, te), c in self._terms.items())

    def is_nonneg(self) -> bool:
        """True iff every stored coefficient is positive.

        Canonical form stores no zeros, so this is the coefficientwise
        positivity witness.
        """
        return all(c > 0 for c in self._terms.values())

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


# ---------------------------------------------------------------------------
# Multiplication kernel
# ---------------------------------------------------------------------------

# Products whose smaller operand has at most this many terms use the pairwise
# loop; packing and unpacking cost more than they save below it.
SCHOOLBOOK_MAX_TERMS = 8

# Products of more packed bits (slots times the per-slot bound) than
# DECIMAL_MIN_BITS, whose smaller operand packs to more than
# DECIMAL_MIN_OPERAND_BITS, take the decimal tier; both cutoffs are measured
# crossovers.  The transform costs about as much for a lopsided product as
# for a balanced one of the same size, while Karatsuba's cost falls with the
# smaller operand, and libmpdec multiplies an operand of up to 256 words
# (4864 digits) by schoolbook.
DECIMAL_MIN_BITS = 300_000
DECIMAL_MIN_OPERAND_BITS = 75_000


def _mul_schoolbook(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """Canonical product of two canonical term maps, one step per term pair."""
    out: dict[Monomial, int] = {}
    for (sa, ta), ca in a.items():
        for (sb, tb), cb in b.items():
            key = (sa + sb, ta + tb)
            total = out.get(key, 0) + ca * cb
            if total:
                out[key] = total
            else:
                del out[key]
    return out


_Extent = tuple[int, int, int, int]


def _extent(terms: dict[Monomial, int]) -> _Extent:
    """(least weight, greatest weight, least t exponent, greatest t exponent)."""
    weights = [se + 2 * te for se, te in terms]
    ts = [te for _, te in terms]
    return min(weights), max(weights), min(ts), max(ts)


def _span(ea: _Extent, eb: _Extent) -> int:
    # Slots per weight: the range of t exponents the product can reach.
    return (ea[3] - ea[2]) + (eb[3] - eb[2]) + 1


def _slot_count(ea: _Extent, eb: _Extent) -> int:
    return (ea[1] - ea[0] + eb[1] - eb[0] + 1) * _span(ea, eb)


def _slot_bits(a: dict[Monomial, int], b: dict[Monomial, int]) -> int:
    # Every product coefficient has absolute value below 2^bits.
    return (
        max(map(abs, a.values())).bit_length()
        + max(map(abs, b.values())).bit_length()
        + min(len(a), len(b)).bit_length()
    )


def _operand_slots(e: _Extent, span: int) -> int:
    # Slots from the operand's first term to its last.
    return (e[1] - e[0]) * span + e[3] - e[2] + 1


def _pack(a: dict[Monomial, int], b: dict[Monomial, int], ea: _Extent, eb: _Extent, span: int,
          number, subtract) -> tuple:
    """(packed a, packed b, signed): each operand as one number, its positive
    slots less its negative ones, and whether either has a negative term.

    number(magnitudes) packs one coefficient magnitude per slot, slot 0
    first, and subtract(x, y) is x - y in the tier's arithmetic.  A square
    is packed once.
    """
    packed = []
    signed = False
    for terms, e in [(a, ea)] if b is a else [(a, ea), (b, eb)]:
        w0, _, t0, _ = e
        pos = [0] * _operand_slots(e, span)
        neg = None
        for (se, te), c in terms.items():
            at = (se + 2 * te - w0) * span + te - t0
            if c > 0:
                pos[at] = c
            else:
                if neg is None:
                    neg = [0] * len(pos)
                neg[at] = -c
        if neg is None:
            packed.append(number(pos))
        else:
            signed = True
            packed.append(subtract(number(pos), number(neg)))
    return packed[0], packed[-1], signed


def _mul_kronecker(
    a: dict[Monomial, int], b: dict[Monomial, int], ea: _Extent, eb: _Extent
) -> dict[Monomial, int]:
    """Canonical product of two nonempty term maps by one big-number product.

    ea and eb are the operands' extents.  See the module docstring for the
    slot layout, the bound, the bias and the int and decimal tiers.
    """
    span = _span(ea, eb)
    slots = _slot_count(ea, eb)
    bits = _slot_bits(a, b)
    values = None
    if (slots * bits > DECIMAL_MIN_BITS
            and min(_operand_slots(ea, span), _operand_slots(eb, span)) * bits > DECIMAL_MIN_OPERAND_BITS):
        values = _no_digit_limit(_product_decimal, a, b, ea, eb, span, bits)
    if values is None:
        values = _product_int(a, b, ea, eb, span, bits)
    w0, t0 = ea[0] + eb[0], ea[2] + eb[2]
    out: dict[Monomial, int] = {}
    values = iter(values)
    for w in range(w0, w0 + slots // span):
        for te, c in zip(range(t0, t0 + span), values):
            if c:
                out[(w - 2 * te, te)] = c
    return out


def _product_int(
    a: dict[Monomial, int], b: dict[Monomial, int], ea: _Extent, eb: _Extent, span: int, bits: int
) -> list[int]:
    """The product's coefficients, slot by slot, from one int product of width-byte slots."""
    width = bits // 8 + 1  # 8 * width - 1 >= bits

    def number(magnitudes):
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in magnitudes]), "little")

    packed_a, packed_b, signed = _pack(a, b, ea, eb, span, number, sub)
    slots = _slot_count(ea, eb)
    half = 1 << (8 * width - 1)
    product = packed_a * packed_b
    if signed:
        product += int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = product.to_bytes(slots * width, "little")
    from_bytes = int.from_bytes
    values = [from_bytes(data[at:at + width], "little") for at in range(0, len(data), width)]
    return [c - half for c in values] if signed else values


def _product_decimal(
    a: dict[Monomial, int], b: dict[Monomial, int], ea: _Extent, eb: _Extent, span: int, bits: int
) -> list[int] | None:
    """The product's coefficients, slot by slot, from one decimal product of digit slots.

    None when the C decimal module is missing: the pure-Python one has no
    fast multiply, and the int tier serves instead.  The digit limit must be
    lifted by the caller, since a slot may be wider than 4300 digits.
    """
    try:
        from _decimal import MAX_EMAX, MAX_PREC, Context, Decimal
    except ImportError:
        return None
    # 10^digits > 2^(bits + 1), since log10(2) < 0.30103; so half > 2^bits.
    digits = (bits + 1) * 30103 // 100000 + 1
    slot = f"{{:0{digits}d}}".format
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX)

    def number(magnitudes):
        # Decimal text puts the highest slot first.
        return Decimal("".join(map(slot, reversed(magnitudes))))

    packed_a, packed_b, signed = _pack(a, b, ea, eb, span, number, context.subtract)
    slots = _slot_count(ea, eb)
    half = 5 * 10 ** (digits - 1)
    product = context.multiply(packed_a, packed_b)
    if signed:
        product = context.add(product, Decimal(("5" + "0" * (digits - 1)) * slots))
    text = format(product, "f").zfill(slots * digits)
    values = [int(text[at - digits:at]) for at in range(len(text), 0, -digits)]
    return [c - half for c in values] if signed else values


def _from_canonical(terms: dict[Monomial, int]) -> Poly:
    # Internal fast path: `terms` is already canonical.
    poly = Poly()
    poly._terms = terms
    return poly


def _coerce(value: object) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Poly({(0, 0): value}) if value else ZERO
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


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    # Tokens: ("num", value, pos) or (symbol, 0, pos) for s t ^ * + -.
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit() takes "²" and "٣"
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
        elif ch in "st^*+-":
            tokens.append((ch, 0, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
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
    end = len(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)

    terms: dict[Monomial, int] = {}
    i = 0
    sign = 1
    if tokens[i][0] in "+-":
        sign = -1 if tokens[i][0] == "-" else 1
        i += 1

    def expect_exponent(i: int) -> tuple[int, int]:
        if i >= len(tokens) or tokens[i][0] != "num":
            raise PolyParseError("expected exponent after '^'", tokens[i][2] if i < len(tokens) else end)
        return tokens[i][1], i + 1

    while True:
        if i >= len(tokens):
            raise PolyParseError("expected a term", tokens[-1][2] if tokens else end)
        start = tokens[i][2]
        coeff = 1
        se = te = 0
        matched = False
        if tokens[i][0] == "num":
            coeff = tokens[i][1]
            matched = True
            i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] not in "st":
                    raise PolyParseError("expected 's' or 't' after '*'", tokens[i][2] if i < len(tokens) else end)
        if i < len(tokens) and tokens[i][0] == "s":
            matched = True
            se = 1
            i += 1
            if i < len(tokens) and tokens[i][0] == "^":
                se, i = expect_exponent(i + 1)
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "t":
                    raise PolyParseError("expected 't' after '*'", tokens[i][2] if i < len(tokens) else end)
        if i < len(tokens) and tokens[i][0] == "t":
            matched = True
            te = 1
            i += 1
            if i < len(tokens) and tokens[i][0] == "^":
                te, i = expect_exponent(i + 1)
        if not matched:
            raise PolyParseError("expected a term", start)

        key = (se, te)
        total = terms.get(key, 0) + sign * coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)

        if i == len(tokens):
            break
        kind, _, pos = tokens[i]
        if kind not in "+-":
            raise PolyParseError("expected '+' or '-' between terms", pos)
        sign = -1 if kind == "-" else 1
        i += 1

    return _from_canonical(terms)


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
    rem, top = num._terms, _top_weight(den._terms)
    out: dict[Monomial, int] = {}
    while rem:
        head = _top_weight(rem)
        piece = _divide_series(head, top)
        out.update(piece)
        if head is rem and top is den._terms:
            break  # the series certificate proves head == piece * den
        rem = (_from_canonical(rem) - _from_canonical(piece) * den)._terms
    return _from_canonical(out)


def _top_weight(terms: dict[Monomial, int]) -> dict[Monomial, int]:
    # The terms of greatest weight se + 2*te; `terms` itself if it has one weight.
    w0, w1, _, _ = _extent(terms)
    return terms if w0 == w1 else {(se, te): c for (se, te), c in terms.items() if se + 2 * te == w1}


def _divide_series(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """Exact quotient of two nonempty weighted-homogeneous term maps.

    See the module docstring: the coefficients of p_a / p_b in ascending
    powers of u = t/s^2, each checked by a divmod, then a certificate over
    the numerator's remaining coefficients.
    """
    (sa, ta), (sb, tb) = next(iter(a)), next(iter(b))
    weight = sa + 2 * ta - sb - 2 * tb
    a_lo, a_hi = min(te for _, te in a), max(te for _, te in a)
    b_lo, b_hi = min(te for _, te in b), max(te for _, te in b)
    q_lo, q_hi = a_lo - b_lo, a_hi - b_hi
    if q_lo < 0 or q_hi < q_lo or 2 * q_hi > weight:
        raise NotDivisibleError("no exact quotient: the weights or t ranges do not fit")
    num = [0] * (a_hi - a_lo + 1)
    for (_, te), c in a.items():
        num[te - a_lo] = c
    den = [0] * (b_hi - b_lo + 1)
    for (_, te), c in b.items():
        den[te - b_lo] = c
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
    out: dict[Monomial, int] = {}
    for te, c in enumerate(reversed(rev), q_lo):
        if c:
            out[(weight - 2 * te, te)] = c
    return out
