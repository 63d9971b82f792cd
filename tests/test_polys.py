"""Unit and property tests for the exact polynomial layer."""

import sys
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucanomials import polys
from lucanomials.lucas import lucanomial, lucas
from lucanomials.polys import (
    ONE,
    S,
    SCHOOLBOOK_MAX_TERMS,
    T,
    ZERO,
    Monomial,
    NotDivisibleError,
    Poly,
    PolyParseError,
    divide_exact,
    parse,
    render,
)

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")

exponents = st.integers(min_value=0, max_value=5)
coefficients = st.integers(min_value=-30, max_value=30)
poly_strategy = st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=6).map(Poly)
nonzero_polys = poly_strategy.filter(bool)
points = st.integers(min_value=-4, max_value=4)

big_coefficients = st.integers(min_value=-(2**256), max_value=2**256).filter(bool)


@st.composite
def wide_polys(draw, homogeneous, min_terms=SCHOOLBOOK_MAX_TERMS + 1, max_terms=40):
    """Polys with min_terms..max_terms terms and coefficients up to +-2^256.

    A homogeneous support has one weight w = s_exp + 2 * t_exp, like every
    Lucas object; the other kind mixes weights over a small grid.
    """
    if homogeneous:
        weight = draw(st.integers(min_value=2 * max_terms, max_value=2 * max_terms + 9))
        monomials = st.integers(min_value=0, max_value=weight // 2).map(lambda te: (weight - 2 * te, te))
    else:
        monomials = st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    terms = draw(st.dictionaries(monomials, big_coefficients, min_size=min_terms, max_size=max_terms))
    return Poly(terms)


def kronecker(p, q):
    a = dict(p.terms)
    b = a if q is p else dict(q.terms)  # the kernel packs a square once
    return Poly(polys._mul_kronecker(a, b, polys._extent(a), polys._extent(b)))


def schoolbook(p, q):
    return Poly(polys._mul_schoolbook(dict(p.terms), dict(q.terms)))


class TestArithmetic:
    def test_add_distinct_monomials(self):
        assert S + T == parse("s + t")

    def test_add_cancellation(self):
        assert parse("s^2 + t") + parse("-t") == parse("s^2")

    def test_mul_distributes_over_variables(self):
        assert S * (S + T) == parse("s^2 + s*t")

    def test_mul_expansion(self):
        # (s^2 + t)(s^3 + 2st) expanded by hand term by term.
        assert parse("s^2 + t") * parse("s^3 + 2*s*t") == parse("s^5 + 3*s^3*t + 2*s*t^2")

    def test_pow(self):
        assert (S + T) ** 2 == parse("s^2 + 2*s*t + t^2")
        assert ZERO**0 == ONE

    def test_int_coercion(self):
        assert 1 + S - 1 == S
        assert 3 * T == parse("3*t")

    @given(poly_strategy)
    def test_additive_identity(self, p):
        assert ZERO + p == p

    @given(poly_strategy)
    def test_multiplicative_identity(self, p):
        assert ONE * p == p

    @given(poly_strategy, poly_strategy)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(poly_strategy, poly_strategy)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(poly_strategy, poly_strategy, poly_strategy)
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(poly_strategy, poly_strategy, poly_strategy)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(poly_strategy, poly_strategy, poly_strategy)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(poly_strategy)
    def test_sub_is_add_neg(self, p):
        assert p - p == ZERO

    @given(poly_strategy, poly_strategy)
    def test_equal_polys_hash_equal(self, p, q):
        if p == q:
            assert hash(p) == hash(q)


class TestPow:
    @given(poly_strategy)
    def test_matches_repeated_multiplication(self, p):
        for e in range(10):
            assert p**e == reduce(mul, [p] * e, ONE)

    @pytest.mark.parametrize("exponent,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (9, 4)])
    def test_square_and_multiply(self, exponent, products, monkeypatch):
        calls = []
        original = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        S**exponent
        assert len(calls) == products


class TestKroneckerKernel:
    """The packed big-int product against the pairwise loop it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(wide_polys(homogeneous=True), wide_polys(homogeneous=True))
    def test_homogeneous(self, p, q):
        expected = schoolbook(p, q)
        assert kronecker(p, q) == expected
        assert p * q == expected

    @settings(max_examples=60, deadline=None)
    @given(wide_polys(homogeneous=False), wide_polys(homogeneous=False))
    def test_non_homogeneous(self, p, q):
        expected = schoolbook(p, q)
        assert kronecker(p, q) == expected
        assert p * q == expected

    @settings(max_examples=60, deadline=None)
    @given(
        wide_polys(homogeneous=False, min_terms=1),
        wide_polys(homogeneous=False, min_terms=1),
    )
    def test_every_size(self, p, q):
        expected = schoolbook(p, q)
        assert kronecker(p, q) == expected
        assert p * q == expected

    @settings(max_examples=30, deadline=None)
    @given(wide_polys(homogeneous=True))
    def test_square(self, p):
        assert kronecker(p, p) == schoolbook(p, p)
        assert p * p == p**2 == schoolbook(p, p)

    @settings(max_examples=30, deadline=None)
    @given(wide_polys(homogeneous=False))
    def test_cancels_to_zero(self, p):
        assert p * (-p) + p * p == ZERO
        assert kronecker(p, -p) == -kronecker(p, p)

    def test_cancels_to_sparse(self):
        assert kronecker(S - T, S + T) == parse("s^2 - t^2") == (S - T) * (S + T)
        # (1 + s + ... + s^9)(1 - s)(1 + s^10 + ... + s^90) = 1 - s^100
        a = sum((S**j for j in range(10)), ZERO)
        b = (1 - S) * sum((S ** (10 * j) for j in range(10)), ZERO)
        assert len(a.terms) == 10 and len(b.terms) == 20
        assert a * b == kronecker(a, b) == 1 - S**100

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("bits_a", [253, 254])
    def test_coefficient_at_slot_bound(self, bits_a, sign):
        # The middle coefficient of the product is 15 (2^bits_a - 1)(2^254 - 1),
        # within a sixteenth of 2^(bits_a + 258).  At bits_a = 253 it fills
        # 64-byte slots up to the bias bit; at 254 it needs a 65th byte.
        a = Poly({(30 - 2 * j, j): 2**bits_a - 1 for j in range(15)})
        b = Poly({(30 - 2 * j, j): sign * (2**254 - 1) for j in range(15)})
        product = a * b
        assert product == kronecker(a, b) == schoolbook(a, b)
        assert product.terms[(32, 14)] == sign * 15 * (2**bits_a - 1) * (2**254 - 1)

    @settings(max_examples=20, deadline=None)
    @given(wide_polys(homogeneous=True))
    def test_int_operands(self, p):
        assert 3 * p == p * 3 == p + p + p
        assert p * 0 == 0 * p == ZERO
        assert p * 1 == p

    def test_dense_products_use_the_kernel(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("pairwise loop called")

        a = Poly({(20 - 2 * j, j): j + 1 for j in range(11)})
        expected = schoolbook(a, a)
        monkeypatch.setattr(polys, "_mul_schoolbook", refuse)
        assert a * a == expected

    def test_sparse_products_use_the_loop(self, monkeypatch):
        # Nine terms spread over t^0 .. t^800 would need 1601 slots for 81
        # term pairs.
        def refuse(*args):
            raise AssertionError("kernel called")

        a = Poly({(j, 100 * j): 1 for j in range(9)})
        expected = schoolbook(a, a)
        monkeypatch.setattr(polys, "_mul_kronecker", refuse)
        assert a * a == expected


class TestCanonicalForm:
    def test_no_zero_terms_stored(self):
        assert (T - T).terms == {}
        assert Poly({(1, 1): 0, (2, 0): 3}).terms == {(2, 0): 3}

    def test_duplicate_monomials_merge(self):
        assert Poly([((1, 0), 2), ((1, 0), 3)]) == parse("5*s")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): 1})

    @pytest.mark.parametrize(
        "terms",
        [{(True, False): True}, {(True, 0): 1}, {(1, False): 1}, {(1, 0): True}, {(1, 0): 1.0}],
    )
    def test_bool_and_non_int_entries_rejected(self, terms):
        with pytest.raises(TypeError):
            Poly(terms)

    def test_bools_are_not_constants(self):
        assert S != True  # noqa: E712
        assert ONE != True  # noqa: E712
        for op in (lambda: S * True, lambda: True + S, lambda: S - False):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(TypeError):
            divide_exact(S, True)


class TestEval:
    def test_sum_of_coefficients(self):
        assert parse("s^2 + t").evaluate(1, 1) == 2

    def test_single_monomial(self):
        assert S.evaluate(2, -1) == 2

    def test_lucas_style_value(self):
        assert parse("s^3 + 2*s*t").evaluate(1, 1) == 3

    @given(poly_strategy, poly_strategy, points, points)
    def test_ring_homomorphism(self, p, q, s0, t0):
        assert (p + q).evaluate(s0, t0) == p.evaluate(s0, t0) + q.evaluate(s0, t0)
        assert (p * q).evaluate(s0, t0) == p.evaluate(s0, t0) * q.evaluate(s0, t0)


class TestDivideExact:
    def test_factor_removal(self):
        assert divide_exact(parse("s^2 + s*t"), S) == parse("s + t")

    @given(poly_strategy)
    def test_unit_divisor(self, p):
        assert divide_exact(p, ONE) == p

    def test_not_divisible(self):
        # Long division: (s^2 + t) * s = s^3 + st != s^3 + 2st.
        with pytest.raises(NotDivisibleError):
            divide_exact(parse("s^3 + 2*s*t"), parse("s^2 + t"))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(ONE, ZERO)

    def test_zero_numerator(self):
        assert divide_exact(ZERO, parse("s + t")) == ZERO

    def test_divisor_constant_in_s(self):
        assert divide_exact(parse("2*t^2 + 2*s*t"), parse("2*t")) == parse("t + s")

    def test_non_monic_exact(self):
        assert divide_exact(parse("6*s^2 + 6*s*t"), parse("2*s + 2*t")) == parse("3*s")

    def test_non_monic_integer_obstruction(self):
        # Quotient would be t/2; the leading integer division fails fast.
        with pytest.raises(NotDivisibleError):
            divide_exact(parse("s*t + t^2"), parse("2*s + 2*t"))

    @given(poly_strategy, nonzero_polys)
    def test_product_quotient_roundtrip(self, p, q):
        assert divide_exact(p * q, q) == p

    def test_int_operands(self):
        assert divide_exact(parse("2*s + 4*t"), 2) == parse("s + 2*t")
        assert divide_exact(6, 3) == Poly({(0, 0): 2})
        assert divide_exact(4, parse("2")) == parse("2")
        assert divide_exact(0, S) == ZERO
        with pytest.raises(NotDivisibleError):
            divide_exact(4, S)
        with pytest.raises(NotDivisibleError):
            divide_exact(parse("2*s + 3*t"), 2)
        with pytest.raises(ZeroDivisionError):
            divide_exact(S, 0)

    @pytest.mark.parametrize("num,den", [(S, 2.0), ("s", S), (None, ONE), (S, [1])])
    def test_other_operand_types_rejected(self, num, den):
        with pytest.raises(TypeError):
            divide_exact(num, den)


@st.composite
def homogeneous_polys(draw, min_terms=1, max_terms=6):
    """Polys whose terms all have one weight se + 2*te, with small coefficients."""
    weight = draw(st.integers(min_value=2 * (min_terms - 1), max_value=12))
    monomials = st.integers(min_value=0, max_value=weight // 2).map(lambda te: (weight - 2 * te, te))
    terms = draw(
        st.dictionaries(monomials, coefficients.filter(bool), min_size=min_terms, max_size=max_terms)
    )
    return Poly(terms)


def series(num, den):
    return Poly(polys._divide_series(dict(num.terms), dict(den.terms)))


def _group_by_s(terms: dict[Monomial, int]) -> dict[int, dict[int, int]]:
    grouped: dict[int, dict[int, int]] = {}
    for (se, te), c in terms.items():
        grouped.setdefault(se, {})[te] = c
    return grouped


def _divide_t_exact(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    # Exact division of univariate polynomials in t over Z; greedy
    # leading-term division detects non-exactness because Z[t] is a domain.
    quotient: dict[int, int] = {}
    rem = dict(num)
    dt = max(den)
    dc = den[dt]
    while rem:
        rt = max(rem)
        rc = rem[rt]
        if rt < dt or rc % dc:
            raise NotDivisibleError("no exact quotient in Z[t]")
        qc = rc // dc
        qe = rt - dt
        quotient[qe] = qc
        for e, c in den.items():
            key = qe + e
            total = rem.get(key, 0) - qc * c
            if total:
                rem[key] = total
            else:
                rem.pop(key, None)
    return quotient


def _divide_rows(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """Exact quotient of two nonempty term maps, one s-degree row at a time.

    Long division in s with coefficients in Z[t]; raises NotDivisibleError
    at the first non-exact step.
    """
    den_by_s = _group_by_s(b)
    ds = max(den_by_s)
    den_lead = den_by_s[ds]
    rem = _group_by_s(a)
    out: dict[Monomial, int] = {}
    while rem:
        rs = max(rem)
        if rs < ds:
            raise NotDivisibleError("no exact quotient: remainder of lower s-degree than divisor")
        qt = _divide_t_exact(rem[rs], den_lead)
        qs = rs - ds
        for te, c in qt.items():
            out[(qs, te)] = c
        for se, tpoly in den_by_s.items():
            target = rem.setdefault(qs + se, {})
            for te, dc in tpoly.items():
                for qe, qc in qt.items():
                    key = te + qe
                    total = target.get(key, 0) - dc * qc
                    if total:
                        target[key] = total
                    else:
                        target.pop(key, None)
            if not target:
                rem.pop(qs + se, None)
    return out


def rows(num, den):
    """Long division in s over Z[t]: the reference for divide_exact, sharing no code with it."""
    return Poly(_divide_rows(dict(num.terms), dict(den.terms)))


def assert_not_divisible(num, den):
    for divide in (series, rows, divide_exact):
        with pytest.raises(NotDivisibleError):
            divide(num, den)


def weights(p):
    return {se + 2 * te for se, te in p.terms}


mixed_polys = nonzero_polys.filter(lambda p: len(weights(p)) > 1)


def count_series_calls(monkeypatch):
    calls = []
    kernel = polys._divide_series

    def counting(a, b):
        calls.append(a)
        return kernel(a, b)

    monkeypatch.setattr(polys, "_divide_series", counting)
    return calls


class TestSeriesKernel:
    """Series division of weighted-homogeneous operands against the s-row loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        homogeneous_polys(),
        homogeneous_polys(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_exact_quotient(self, q, d, i, j):
        # Negative coefficients, any lowest-t coefficient, t^i and t^j factors
        # and gaps in the quotient's support all come from the draw.
        q, d = q * T**i, d * T**j
        n = q * d
        assert series(n, d) == rows(n, d) == divide_exact(n, d) == q

    @settings(max_examples=30, deadline=None)
    @given(
        wide_polys(homogeneous=True, min_terms=1, max_terms=20),
        wide_polys(homogeneous=True, min_terms=1, max_terms=20),
    )
    def test_big_coefficients(self, q, d):
        n = q * d
        assert series(n, d) == rows(n, d) == q

    @settings(max_examples=50, deadline=None)
    @given(homogeneous_polys())
    def test_non_monic_lowest_coefficient(self, q):
        d = parse("2*s^2 + 2*t")
        assert series(q * d, d) == rows(q * d, d) == q

    def test_zero_interior_quotient_coefficients(self):
        q = parse("s^6 - t^3")
        d = parse("s^2 + t")
        n = q * d
        assert n == parse("s^8 + s^6*t - s^2*t^3 - t^4")
        assert series(n, d) == rows(n, d) == divide_exact(n, d) == q

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_polys(), homogeneous_polys(min_terms=2), st.sampled_from([1, -1]), st.data())
    def test_coefficient_off_by_one(self, q, d, delta, data):
        # A divisor of two or more terms divides no monomial, so changing one
        # coefficient of q * d by one leaves no exact quotient.
        n = q * d
        se, te = next(iter(n.terms))
        weight = se + 2 * te
        ts = [te for _, te in n.terms]
        at = data.draw(st.integers(min(ts), max(ts)))
        assert_not_divisible(n + Poly({(weight - 2 * at, at): delta}), d)

    def test_off_by_one_in_a_low_coefficient(self):
        # (2s^2 + 2t)(s^2 - t) = 2s^4 - 2t^2.  With 3s^4 the first step leaves
        # a remainder, although the numerator's top coefficient still fits.
        assert_not_divisible(parse("3*s^4 - 2*t^2"), parse("2*s^2 + 2*t"))

    def test_off_by_one_in_a_top_coefficient(self):
        # Every step divides by 1; only the certificate sees the -t^2 change.
        # (s^2 + t)(s^2 - t) = s^4 - t^2.
        assert_not_divisible(parse("s^4 - 2*t^2"), parse("s^2 + t"))

    @pytest.mark.parametrize(
        "num,den",
        [
            ("t", "s^2"),  # the quotient t / s^2 needs a negative s exponent
            ("s", "s^2"),  # the divisor's weight exceeds the numerator's
            ("s^3", "s^2*t"),  # and again, with the quotient's t range below t^0
            ("s^2", "t"),  # the quotient's t range starts below t^0
            ("s^4", "s^2 + t"),  # the divisor spans more t exponents than the numerator
        ],
    )
    def test_impossible_ranges(self, num, den):
        assert_not_divisible(parse(num), parse(den))

    def test_lucas_quotient(self):
        n, d = lucanomial(24, 12), lucas(13)
        assert series(n, d) == rows(n, d) == divide_exact(n, d)

    def test_homogeneous_operands_use_the_kernel(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("product or difference taken")

        q, d = parse("s^4 + 3*s^2*t - t^2"), parse("s^2 + t")
        n = q * d
        calls = count_series_calls(monkeypatch)
        for name in ("__mul__", "__sub__", "__add__"):
            monkeypatch.setattr(Poly, name, refuse)
        assert divide_exact(n, d) == q
        assert len(calls) == 1

    def test_non_homogeneous_operands_use_the_loop(self, monkeypatch):
        # The quotient 3*s + 6 has weights 1 and 0: one series step for each.
        num, den = parse("6*s^2 + 6*s*t + 12*s + 12*t"), parse("2*s + 2*t")
        calls = count_series_calls(monkeypatch)
        assert divide_exact(num, den) == rows(num, den) == parse("3*s + 6")
        assert len(calls) == 2


class TestGradedDivision:
    """divide_exact on operands of several weights, one weight at a time."""

    @settings(max_examples=200, deadline=None)
    @given(poly_strategy, mixed_polys)
    def test_product_quotient(self, p, q):
        assert divide_exact(p * q, q) == rows(p * q, q) == p

    @settings(max_examples=200, deadline=None)
    @given(poly_strategy, mixed_polys, exponents, exponents, st.sampled_from([1, -1]))
    def test_perturbed_product_matches_the_reference(self, p, q, se, te, delta):
        # Usually no quotient exists; when one does, both divisions find it.
        n = p * q + Poly({(se, te): delta})
        try:
            expected = rows(n, q)
        except NotDivisibleError:
            with pytest.raises(NotDivisibleError):
                divide_exact(n, q)
        else:
            assert divide_exact(n, q) == expected

    def test_top_part_divides_but_the_rest_does_not(self):
        # s^2 / s = s leaves the remainder 1, which s does not divide.
        for divide in (rows, divide_exact):
            with pytest.raises(NotDivisibleError):
                divide(parse("s^2 + 1"), S)

    def test_quotient_spanning_several_weights(self, monkeypatch):
        # The quotient has weights 4, 2 and 0 and the divisor 2 and 1.
        q, d = parse("s^4 + 2*t^2 - 3*s^2 + 7"), parse("s^2 - t + s")
        calls = count_series_calls(monkeypatch)
        assert divide_exact(q * d, d) == rows(q * d, d) == q
        assert len(calls) == len(weights(q)) == 3


class TestIsNonneg:
    def test_positive(self):
        assert parse("s^2 + t").is_nonneg()

    def test_mixed_signs(self):
        assert not parse("s - t").is_nonneg()

    def test_zero_polynomial(self):
        assert ZERO.is_nonneg()


class TestTextForm:
    def test_parse_simple(self):
        assert dict(parse("s^2 + t").terms) == {(2, 0): 1, (0, 1): 1}

    def test_render_zero(self):
        assert render(ZERO) == "0"
        assert parse("0") == ZERO

    def test_parse_full_term(self):
        assert dict(parse("3*s*t^2 - 1").terms) == {(1, 2): 3, (0, 0): -1}

    def test_parse_accepts_optional_stars(self):
        assert parse("st") == parse("s*t")
        assert parse("2*st^2") == parse("2*s*t^2")
        assert parse("s t") == parse("s*t")

    def test_leading_minus(self):
        assert parse("-s^2 + t") == T - S * S

    def test_render_order_is_graded_lex(self):
        assert render(parse("t + s^3 + s*t")) == "s^3 + s*t + t"

    @pytest.mark.parametrize(
        "text,position",
        [("s +", 2), ("^2", 0), ("s^x", 2), ("3*", 2), ("2x", 1), ("s²", 1), ("s^¹", 2), ("٣*s", 0)],
    )
    def test_parse_error_reports_position(self, text, position):
        with pytest.raises(PolyParseError) as excinfo:
            parse(text)
        assert excinfo.value.position == position

    @given(poly_strategy)
    def test_parse_render_roundtrip(self, p):
        assert parse(render(p)) == p

    @given(poly_strategy)
    def test_render_is_canonical_fixed_point(self, p):
        assert render(parse(render(p))) == render(p)

    def test_render_past_digit_limit(self):
        # 5001 digits: past Python's default int-to-str limit of 4300.
        before = sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None
        assert str(Poly({(1, 0): 10**5000, (0, 1): -1})) == "1" + "0" * 5000 + "*s - t"
        if HAS_DIGIT_LIMIT:
            assert sys.get_int_max_str_digits() == before

    def test_roundtrip_past_digit_limit(self):
        before = sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None
        p = Poly({(1, 0): 10**5000, (0, 1): -(3**9000)})
        assert parse(str(p)) == p
        if HAS_DIGIT_LIMIT:
            assert sys.get_int_max_str_digits() == before


class TestJsonForm:
    def test_roundtrip(self):
        p = parse("3*s*t^2 - 1")
        assert Poly.from_json_dict(p.to_json_dict()) == p

    @given(poly_strategy)
    def test_every_poly_roundtrips(self, p):
        encoded = p.to_json_dict()
        assert all(type(term[key]) is int for term in encoded["terms"] for key in ("s", "t"))
        assert Poly.from_json_dict(encoded) == p

    def test_big_coefficients_survive(self):
        p = Poly({(1, 1): 10**30, (0, 0): -(2**64)})
        encoded = p.to_json_dict()
        assert all(isinstance(term["c"], str) for term in encoded["terms"])
        assert Poly.from_json_dict(encoded) == p

    def test_big_coefficients_past_digit_limit(self):
        before = sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None
        assert Poly({(1, 0): 10**5000}).to_json_dict() == {
            "terms": [{"s": 1, "t": 0, "c": "1" + "0" * 5000}]
        }
        if HAS_DIGIT_LIMIT:
            assert sys.get_int_max_str_digits() == before

    def test_roundtrip_past_digit_limit(self):
        before = sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None
        p = Poly({(1, 0): 10**5000, (0, 1): -(3**9000)})
        assert Poly.from_json_dict(p.to_json_dict()) == p
        if HAS_DIGIT_LIMIT:
            assert sys.get_int_max_str_digits() == before

    def test_int_coefficients_accepted(self):
        assert Poly.from_json_dict({"terms": [{"s": 1, "t": 0, "c": -7}]}) == -7 * S

    def test_malformed(self):
        with pytest.raises(ValueError):
            Poly.from_json_dict({"terms": [{"s": 1}]})

    @pytest.mark.parametrize(
        "term",
        [
            {"s": 1.7, "t": True, "c": "5"},
            {"s": 1, "t": True, "c": "5"},
            {"s": 1.0, "t": 0, "c": "5"},
            {"s": "1", "t": 0, "c": "5"},
            {"s": 1, "t": 0, "c": True},
            {"s": 1, "t": 0, "c": 5.0},
            {"s": 1, "t": 0, "c": " 5"},
            {"s": 1, "t": 0, "c": "+5"},
            {"s": 1, "t": 0, "c": "5_0"},
            {"s": 1, "t": 0, "c": "٣"},
            {"s": 1, "t": 0, "c": ""},
        ],
    )
    def test_exponents_are_ints_and_coefficients_ints_or_decimal_strings(self, term):
        with pytest.raises(ValueError, match="malformed polynomial JSON"):
            Poly.from_json_dict({"terms": [term]})
