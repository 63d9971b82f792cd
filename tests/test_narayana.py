"""Tests for FiboNarayana, generalized Narayana, and Catalan-style numbers."""

import sys
from collections import Counter
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucanomials import cli, narayana, tilings
from lucanomials.cli import _TARGETS, main
from lucanomials.narayana import (
    _atom_powers,
    _catalan_atom_exponents,
    _catalan_quotient,
    _narayana_atom_exponents,
    _quotient,
    _recurrence,
    catalan,
    classical_narayana,
    classical_specialization_report,
    fibocatalan,
    fibocatalan_definition_oracle,
    fibonarayana,
    fibonarayana_definition_oracle,
    fibonarayana_recurrence,
    generalized_catalan,
    generalized_catalan_definition_oracle,
    generalized_narayana,
    generalized_narayana_definition_oracle,
    generalized_narayana_recurrence,
)
from lucanomials.lucas import (
    _INT,
    _POLY,
    MEMO_SIZE,
    _atom,
    _factorial,
    _lucanomial,
    _mirrored,
    _term,
    fib_factorial,
    fibonacci,
    fibonacci_atom,
    fibonomial,
    lucanomial,
    lucas,
    lucas_atom,
    lucas_factorial,
)
from lucanomials.polys import ONE, S, T, ZERO, Poly, parse

# The two routes of each Narayana row of verify: the recurrence and the quotient.
ROUTES = {
    "theorem2": ("fibonarayana_recurrence", "fibonarayana_definition_oracle"),
    "theorem3": ("generalized_narayana_recurrence", "generalized_narayana_definition_oracle"),
}


def check_mirror_memos(family, first):
    """Each value of a family f(n, k) = f(n, n+first-k), which its memo serves
    from the mirror key (n, min(k, n+first-k)), equals the uncached body
    evaluated at k itself, for first <= k <= n <= 14."""
    family.cache_clear()
    for n in range(first, 15):
        for k in range(first, n + 1):
            assert family(n, k) == family.__wrapped__(n, k), (family.__name__, n, k)
    # One entry per mirror pair: ceil((n+1-first)/2) keys in row n.
    pairs = sum((n + 2 - first) // 2 for n in range(first, 15))
    assert family.cache_info().currsize == pairs, family.__name__
    assert family.cache_info().maxsize == MEMO_SIZE


def check_recurrence_zero(recurrence, zero):
    """The recurrence's body itself is zero outside 1 <= k <= n, by the lucanomial zero convention."""
    for n in range(1, 15):
        for k in (-1, 0, n + 1, n + 2):
            assert recurrence(n, k) == recurrence.__wrapped__(n, k) == zero, (n, k)


class TestLucanomialMemos:
    def test_one_entry_per_mirror_pair(self):
        # lucas._mirrored makes these two with first = 0: {n, k} = {n, n-k}.
        for family in (lucanomial, fibonomial):
            check_mirror_memos(family, 0)


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
        for family in (fibonarayana, fibonarayana_recurrence, fibonarayana_definition_oracle):
            check_mirror_memos(family, 1)
        check_recurrence_zero(fibonarayana_recurrence, 0)

    def test_reports_hold_values(self):
        # verify theorem2 and theorem3 report the recurrence as lhs and the
        # definitional quotient as rhs, as values, not text.
        assert _TARGETS["theorem2"].check(5, 2) == {
            "n": 5, "k": 2, "lhs": 15, "rhs": 15,
            "oracle_agrees": True, "nonneg": True, "pass": True,
        }
        report = _TARGETS["theorem3"].check(3, 2)
        assert report["lhs"] == report["rhs"] == parse("s^2 + t")
        assert isinstance(report["lhs"], Poly) and report["pass"] is True

    # The pass rule of the verify rows theorem2 and theorem3: the recurrence
    # agrees with the quotient, and the value is positive.
    def test_report_fails_on_disagreement(self, monkeypatch):
        monkeypatch.setattr(narayana, "fibonarayana_definition_oracle", lambda n, k: 16)
        report = _TARGETS["theorem2"].check(5, 2)
        assert (report["lhs"], report["rhs"]) == (15, 16)
        assert report["oracle_agrees"] is False and report["nonneg"] is True
        assert report["pass"] is False

    def test_report_fails_on_negative_value(self, monkeypatch):
        # Both routes give the same value, which is not positive.
        for target, value in (("theorem2", -15), ("theorem3", S - T)):
            for route in ROUTES[target]:
                monkeypatch.setattr(narayana, route, lambda n, k: value)
            report = _TARGETS[target].check(5, 2)
            assert report["lhs"] == report["rhs"] == value
            assert report["oracle_agrees"] is True and report["nonneg"] is False
            assert report["pass"] is False

    def test_report_passes_when_both_hold(self):
        for target in ROUTES:
            report = _TARGETS[target].check(5, 2)
            assert report["oracle_agrees"] is True and report["nonneg"] is True
            assert report["pass"] is True

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            fibonarayana(0, 1)
        assert fibonarayana_definition_oracle(4, 0) == 0


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
        for family in (generalized_narayana, generalized_narayana_recurrence,
                       generalized_narayana_definition_oracle):
            check_mirror_memos(family, 1)
        check_recurrence_zero(generalized_narayana_recurrence, ZERO)

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
    "recurrence": (fibonarayana_recurrence, generalized_narayana_recurrence,
                   [(n, k) for n in range(1, RING_N_MAX + 1) for k in range(-1, n + 2)],
                   [(0, 1), (-1, 0)]),
    "definition_oracle": (fibonarayana_definition_oracle, generalized_narayana_definition_oracle,
                          [(n, k) for n in range(1, RING_N_MAX + 1) for k in range(-1, n + 2)],
                          [(0, 1), (-1, 0)]),
    "catalan": (fibocatalan, generalized_catalan,
                [(n,) for n in range(RING_N_MAX + 1)], [(-1,)]),
    "catalan_definition_oracle": (fibocatalan_definition_oracle,
                                  generalized_catalan_definition_oracle,
                                  [(n,) for n in range(RING_N_MAX + 1)], [(-1,)]),
    "tiling_sum": (lambda n, k: tilings._rectangle_sum(n, k, _INT),
                   tilings.lucanomial_tiling_oracle,
                   [(n, k) for n in range(RING_N_MAX + 1) for k in range(n + 1)], [(3, 4), (3, -1)]),
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


# The first n and the routes, in both rings, of each family lucas._mirrored makes.
MIRRORED_FAMILIES = {
    "coefficient": (0, (lucanomial, fibonomial)),
    "narayana": (1, (generalized_narayana, generalized_narayana_recurrence,
                     generalized_narayana_definition_oracle, fibonarayana,
                     fibonarayana_recurrence, fibonarayana_definition_oracle)),
}


@pytest.mark.parametrize("family", sorted(MIRRORED_FAMILIES))
def test_every_route_of_a_family_agrees_on_every_k(family):
    """At each (n, k), every route gives one value (a Poly compared at s = t = 1),
    or every route raises ValueError."""
    first, routes = MIRRORED_FAMILIES[family]
    disagreements = []
    for n in range(first - 2, 13):
        for k in range(-2, n + 4):
            values, raised = set(), 0
            for route in routes:
                try:
                    value = route(n, k)
                except ValueError:
                    raised += 1
                else:
                    values.add(value.evaluate(1, 1) if isinstance(value, Poly) else value)
            if (raised, len(values)) not in ((0, 1), (len(routes), 0)):
                disagreements.append((n, k))
    assert disagreements == []


def test_int_tiling_sum_is_the_fibonomial_past_the_poly_range():
    assert tilings._rectangle_sum(300, 150, _INT) == fibonomial(300, 150)


# A third ring: Z at (s, t) = (2, -1), where {n} = n and the tower is the
# classical one.  It is one record naming its own memos; no atom vanishes there.
@lru_cache(maxsize=MEMO_SIZE)
def classical_term(n):
    return _term(n, CLASSICAL)


@lru_cache(maxsize=MEMO_SIZE)
def classical_atom(d):
    return _atom(d, CLASSICAL)


@_mirrored(0, 0)
def classical_coefficient(n, k):
    return _lucanomial(n, k, CLASSICAL)


CLASSICAL = _INT._replace(s=2, t=-1, term=classical_term, atom=classical_atom,
                          coefficient=classical_coefficient)


def test_the_bodies_over_a_third_ring_give_the_classical_tower():
    for n in range(RING_N_MAX + 1):
        assert classical_term(n) == n
        assert _factorial(n, CLASSICAL) == factorial(n)
        for k in range(n + 1):
            assert classical_coefficient(n, k) == tilings._rectangle_sum(n, k, CLASSICAL) == comb(n, k)
        assert _atom_powers(_catalan_atom_exponents(n), CLASSICAL) == catalan(n)
        assert _catalan_quotient(n, CLASSICAL) == catalan(n)
        for k in range(1, n + 1):
            expected = classical_narayana(n, k)
            assert _atom_powers(_narayana_atom_exponents(n, k), CLASSICAL) == expected, (n, k)
            assert _recurrence(n, k, CLASSICAL) == _quotient(n, k, CLASSICAL) == expected, (n, k)


def test_the_ring_memos_are_looked_up_when_called(monkeypatch):
    """Counting wrappers rebound over lucas, lucanomial and fibonomial in every
    module, as the benchmark's tracer installs its spans, see the ring bodies' calls."""
    counts = Counter()
    package = [m for name, m in sys.modules.items() if name.partition(".")[0] == "lucanomials"]
    for name in ("lucas", "lucanomial", "fibonomial"):
        original = getattr(sys.modules["lucanomials.lucas"], name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    for family in (generalized_narayana_recurrence, generalized_narayana_definition_oracle,
                   fibonarayana_recurrence):
        family.cache_clear()
    # The fewest calls of each wrapper: a cold memo below a call adds more.
    for call, least in (
        (lambda: generalized_narayana_recurrence(6, 3), {"lucanomial": 3}),
        (lambda: generalized_narayana_definition_oracle(6, 3), {"lucanomial": 2, "lucas": 1}),
        (lambda: fibonarayana_recurrence(6, 3), {"fibonomial": 3}),
        (lambda: generalized_catalan_definition_oracle(4), {"lucanomial": 1, "lucas": 1}),
        (lambda: tilings.lucanomial_tiling_oracle(5, 2), {"lucas": 8}),
    ):
        counts.clear()
        call()
        assert all(counts[name] >= calls for name, calls in least.items()), (least, counts)


EXPONENT_N_MAX = 300


class TestAtomProduct:
    """The primary route: one product of Lucas (or integer) atoms, no division."""

    def test_narayana_exponents_are_zero_one_or_two(self):
        for n in range(1, EXPONENT_N_MAX + 1):
            seen = set()
            for k in range(1, n + 1):
                exponents = _narayana_atom_exponents(n, k)
                assert [d for d, _ in exponents] == list(range(2, n + 1))
                seen.update(x for _, x in exponents)
            assert seen <= {0, 1, 2}, n
        assert seen == {0, 1, 2}

    def test_catalan_exponents_are_zero_or_one(self):
        for n in range(EXPONENT_N_MAX + 1):
            exponents = _catalan_atom_exponents(n)
            assert [d for d, _ in exponents] == list(range(2, 2 * n + 1))
            assert {x for _, x in exponents} <= {0, 1}, n
        assert {x for _, x in exponents} == {0, 1}

    def test_exponents_are_symmetric_under_the_mirror(self):
        for n in range(1, 40):
            for k in range(1, n + 1):
                assert _narayana_atom_exponents(n, k) == _narayana_atom_exponents(n, n + 1 - k)

    def test_hand_exponents(self):
        # N(4, 2) = {4,2}{4,1}/{4}, where {4,2} = P_3 P_4 and {4,1} = {4} = P_2 P_4.
        assert _narayana_atom_exponents(4, 2) == [(2, 0), (3, 1), (4, 1)]
        assert generalized_narayana(4, 2) == parse("s^2 + t") * parse("s^2 + 2*t")
        # C(3) = {6,3}/{4}: {6,3} = P_2 P_4 P_5 P_6, {4} = P_2 P_4.
        assert _catalan_atom_exponents(3) == [(2, 0), (3, 0), (4, 0), (5, 1), (6, 1)]

    @pytest.mark.parametrize("ring", [_POLY, _INT], ids=["poly", "int"])
    def test_forced_negative_exponent_raises(self, ring):
        with pytest.raises(AssertionError, match="exponent -1"):
            _atom_powers([(2, 1), (3, -1)], ring)
        with pytest.raises(AssertionError, match="exponent 3"):
            _atom_powers([(2, 3)], ring)
        assert _atom_powers([(3, 2), (4, 1), (5, 0)], ring) == (
            ring.atom(3) ** 2 * ring.atom(4))

    def test_forced_negative_exponent_raises_from_the_public_functions(self, monkeypatch):
        # A memoised value would not reach the patched exponents.
        generalized_narayana.cache_clear()
        fibonarayana.cache_clear()
        monkeypatch.setattr(narayana, "_narayana_atom_exponents", lambda n, k: [(2, 1), (3, -1)])
        monkeypatch.setattr(narayana, "_catalan_atom_exponents", lambda n: [(2, -1)])
        for call in (lambda: generalized_narayana(5, 2), lambda: fibonarayana(5, 2),
                     lambda: generalized_catalan(3), lambda: fibocatalan(3)):
            with pytest.raises(AssertionError):
                call()

    def test_certificate_fails_on_a_negative_exponent(self, monkeypatch):
        # theorem3 compares the recurrence with the quotient; the atom
        # exponents are its certificate of positivity.
        monkeypatch.setattr(narayana, "_narayana_atom_exponents", lambda n, k: [(2, 1), (3, -1)])
        report = _TARGETS["theorem3"].check(5, 2)
        assert report["lhs"] == report["rhs"] and report["lhs"].is_nonneg()
        assert report["oracle_agrees"] is True and report["nonneg"] is False
        assert report["pass"] is False

    def test_certificate_fails_on_a_negative_atom(self, monkeypatch):
        monkeypatch.setattr(cli, "lucas_atom", lambda d: -ONE)
        for target, point in (("theorem3", (5, 2)), ("catalan", (3,))):
            report = _TARGETS[target].check(*point)
            assert report["nonneg"] is False and report["pass"] is False, target

    def test_certificate_holds_across_the_default_sweeps(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert _TARGETS["theorem3"].check(n, k)["nonneg"] is True
        for n in range(9):
            assert _TARGETS["catalan"].check(n)["nonneg"] is True


narayana_points = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=-1, max_value=n + 2)))


@settings(max_examples=40, deadline=None)
@given(narayana_points)
def test_three_narayana_routes_agree_in_both_rings(point):
    n, k = point
    poly = generalized_narayana(n, k)
    assert poly == generalized_narayana_recurrence(n, k)
    value = fibonarayana(n, k)
    assert value == fibonarayana_recurrence(n, k) == poly.evaluate(1, 1)
    if 1 <= k <= n:
        assert poly == generalized_narayana_definition_oracle(n, k)
        assert value == fibonarayana_definition_oracle(n, k)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_catalan_routes_agree_in_both_rings(n):
    poly = generalized_catalan(n)
    assert poly == generalized_catalan_definition_oracle(n)
    assert fibocatalan(n) == fibocatalan_definition_oracle(n) == poly.evaluate(1, 1)


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
