"""Tests for partitions in rectangles, row tilings, and the two weight-sum fills."""

import itertools
from math import comb

import pytest

from lucanomials.lucas import fibonacci, fibonomial, lucanomial
from lucanomials.polys import ONE, Poly, ZERO, parse
from lucanomials.tilings import (
    RectTiling,
    ShapeError,
    _cut_offsets,
    _tile_counts,
    _tiling_row,
    covered_length,
    domino_initial_tilings,
    enumerate_rect_tilings,
    linear_tilings,
    lucanomial_tiling_oracle,
    partitions_in_rectangle,
    row_weight_poly,
    split_after,
    star,
)


class TestRowBasics:
    def test_covered_length(self):
        assert covered_length("") == 0
        assert covered_length("DSD") == 5

    def test_invalid_tile(self):
        with pytest.raises(ShapeError):
            covered_length("SX")

    def test_breakable(self):
        # Entry c of the cut offsets is -1 exactly when a domino covers cells c and c+1.
        assert _cut_offsets("SS")[1] >= 0
        assert _cut_offsets("D")[1] < 0
        assert _cut_offsets("SDS")[2] < 0  # domino covers cells 2-3
        assert _cut_offsets("SDS")[1] >= 0
        assert _cut_offsets("SDS")[3] >= 0

    def test_breakable_out_of_range(self):
        # The boundaries at either end of a row are never inside a domino.
        assert _cut_offsets("SS")[2] >= 0
        assert _cut_offsets("SS")[0] >= 0
        assert _cut_offsets("D")[2] >= 0

    def test_split_after(self):
        assert split_after("SDS", 1) == ("S", "DS")
        assert split_after("SDS", 0) == ("", "SDS")
        assert split_after("SDS", 4) == ("SDS", "")

    def test_split_through_domino(self):
        with pytest.raises(ShapeError):
            split_after("SDS", 2)

    def test_split_past_end(self):
        with pytest.raises(ShapeError):
            split_after("S", 2)

    @pytest.mark.parametrize("tiling", ["XS", "SX"])
    def test_split_invalid_tile(self, tiling):
        with pytest.raises(ShapeError):
            split_after(tiling, 1)


class TestEnumeration:
    def test_linear_small(self):
        assert list(linear_tilings(0)) == [""]
        assert sorted(linear_tilings(2)) == ["D", "SS"]
        assert len(list(linear_tilings(5))) == 8

    def test_linear_order_is_square_first(self):
        assert list(linear_tilings(3)) == ["SSS", "SD", "DS"]

    def test_linear_counts_are_fibonacci(self):
        for m in range(11):
            assert len(list(linear_tilings(m))) == fibonacci(m + 1)

    def test_domino_initial_small(self):
        assert list(domino_initial_tilings(1)) == []
        assert list(domino_initial_tilings(2)) == ["D"]
        assert sorted(domino_initial_tilings(4)) == ["DD", "DSS"]

    def test_domino_initial_counts(self):
        assert list(domino_initial_tilings(0)) == [""]
        for m in range(1, 11):
            assert len(list(domino_initial_tilings(m))) == fibonacci(m - 1)

    def test_linear_table_is_one_tuple_per_length(self):
        for m in range(11):
            rows = linear_tilings(m)
            assert rows is linear_tilings(m)
            assert isinstance(rows, tuple) and len(rows) == fibonacci(m + 1)
            # Square-first: "S" sorts after "D", and no tiling of m cells is a
            # proper prefix of another, so descending order is square-first.
            assert list(rows) == sorted(rows, reverse=True)

    def test_domino_initial_is_a_tuple(self):
        for m in range(1, 11):
            rows = domino_initial_tilings(m)
            assert isinstance(rows, tuple) and len(rows) == fibonacci(m - 1)
            assert all(row.startswith("D") for row in rows)

    def test_negative_length_rejected(self):
        # At the call itself: neither function is a generator.
        for tilings in (linear_tilings, domino_initial_tilings):
            with pytest.raises(ValueError, match="length must be nonnegative"):
                tilings(-1)


class TestRowWeightPoly:
    def test_length_two(self):
        assert row_weight_poly(2) == parse("s^2 + t")

    def test_domino_initial_length_one(self):
        assert row_weight_poly(1, domino_initial=True) == ZERO

    def test_domino_initial_length_three(self):
        assert row_weight_poly(3, domino_initial=True) == parse("s*t")

    def test_counts_at_one_one(self):
        for m in range(11):
            assert row_weight_poly(m).evaluate(1, 1) == fibonacci(m + 1)
        for m in range(1, 11):
            assert row_weight_poly(m, domino_initial=True).evaluate(1, 1) == fibonacci(m - 1)

    def test_matches_brute_enumeration(self):
        for m in range(9):
            for domino_initial in (False, True):
                rows = (
                    domino_initial_tilings(m) if domino_initial else linear_tilings(m)
                )
                brute = sum(
                    (Poly({(r.count("S"), r.count("D")): 1}) for r in rows), ZERO
                )
                assert row_weight_poly(m, domino_initial) == brute


class TestPartitions:
    def test_one_by_one(self):
        assert list(partitions_in_rectangle(1, 1)) == [(1,), (0,)]

    def test_two_by_two_count(self):
        assert len(list(partitions_in_rectangle(2, 2))) == 6

    def test_zero_rows(self):
        assert list(partitions_in_rectangle(0, 5)) == [()]

    def test_counts_are_binomials(self):
        for k in range(5):
            for m in range(5):
                assert len(list(partitions_in_rectangle(k, m))) == comb(k + m, k)

    def test_order_is_lex_descending(self):
        parts = list(partitions_in_rectangle(2, 2))
        assert parts == sorted(parts, reverse=True)

    def test_each_exactly_once(self):
        parts = list(partitions_in_rectangle(3, 3))
        assert len(parts) == len(set(parts))

    def test_order_matches_brute_force(self):
        for k in range(7):
            for m in range(7):
                brute = sorted(
                    (p for p in itertools.product(range(m + 1), repeat=k)
                     if all(a >= b for a, b in zip(p, p[1:]))),
                    reverse=True,
                )
                assert list(partitions_in_rectangle(k, m)) == brute, (k, m)

    def test_many_parts_without_recursion(self):
        assert next(partitions_in_rectangle(1500, 2)) == (2,) * 1500


class TestStar:
    def test_full_rectangle(self):
        assert star((3, 3), 2, 3) == (0, 0, 0)

    def test_empty_partition(self):
        assert star((0, 0), 2, 3) == (2, 2, 2)

    def test_drawn_example(self):
        assert star((1, 0), 2, 2) == (2, 1)

    def test_involution(self):
        for k in range(5):
            for m in range(5):
                for lam in partitions_in_rectangle(k, m):
                    assert star(star(lam, k, m), m, k) == lam

    def test_misshapen_rejected(self):
        with pytest.raises(ShapeError):
            star((3,), 1, 2)  # part exceeds width
        with pytest.raises(ShapeError):
            star((1, 2), 2, 2)  # not weakly decreasing
        with pytest.raises(ShapeError):
            star((1,), 2, 2)  # wrong part count


class TestRectTiling:
    def test_validation_accepts_consistent(self):
        # 2 x 2 rectangle, lam = (1, 1): complement is the right column.
        rt = RectTiling((1, 1), ("S", "S"), ("D", ""))
        assert rt.star_parts == (2, 0)

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            RectTiling((1, 1), ("S", "D"), ("D", ""))

    def test_star_row_must_start_with_domino(self):
        with pytest.raises(ShapeError):
            RectTiling((0, 0), ("", ""), ("SS", ""))

    def test_json_roundtrip(self):
        rt = RectTiling((1, 1), ("S", "S"), ("D", ""))
        assert RectTiling.from_json_dict(rt.to_json_dict()) == rt

    @pytest.mark.parametrize(
        "field,value",
        [("lambda", [1.5]), ("lambda", [True]), ("lambda", ["1"]), ("lambda_rows", [1]), ("star_rows", [None])],
    )
    def test_json_fields_hold_exact_types(self, field, value):
        data = {"lambda": [1], "lambda_rows": ["S"], "star_rows": [""], field: value}
        with pytest.raises(ValueError, match="malformed rectangle tiling JSON"):
            RectTiling.from_json_dict(data)

    def test_weight(self):
        rt = RectTiling((1, 1), ("S", "S"), ("D", ""))
        assert rt.weight() == parse("s^2*t")


class TestWeightSums:
    def test_oracle_two_one(self):
        # lam = (1) contributes s; lam = (0) has a length-1 complement column.
        assert lucanomial_tiling_oracle(2, 1) == parse("s")

    def test_oracle_three_one(self):
        assert lucanomial_tiling_oracle(3, 1) == parse("s^2 + t")

    def test_oracle_k_zero(self):
        assert all(lucanomial_tiling_oracle(n, 0) == ONE for n in range(6))

    def test_oracle_equals_lucanomial(self):
        for n in range(21):
            for k in range(n + 1):
                assert lucanomial_tiling_oracle(n, k) == lucanomial(n, k), (n, k)
        assert lucanomial_tiling_oracle(40, 20) == lucanomial(40, 20)

    def test_row_memo_equals_oracle_and_lucanomial(self):
        _tiling_row.cache_clear()
        assert len(_tiling_row(20)) == 21  # a cold call recurses through every smaller row
        for n in range(21):
            assert len(_tiling_row(n)) == n + 1
            for k in range(n + 1):
                assert _tiling_row(n)[k] == lucanomial_tiling_oracle(n, k) == lucanomial(n, k), (n, k)

    @staticmethod
    def per_partition_sum(k, m):
        """The weight sum as one product per partition: a row polynomial per
        part and a domino-initial polynomial per complement column."""
        total = ZERO
        for lam in partitions_in_rectangle(k, m):
            term = ONE
            for part in lam:
                term = term * row_weight_poly(part)
            for part in star(lam, k, m):
                term = term * row_weight_poly(part, domino_initial=True)
            total = total + term
        return total

    def test_oracle_equals_per_partition_products(self):
        # The boundary-path fill must sum exactly the per-partition products
        # it replaces.
        for n in range(11):
            for k in range(n + 1):
                assert lucanomial_tiling_oracle(n, k) == self.per_partition_sum(k, n - k), (n, k)

    def test_row_memo_equals_per_partition_products(self):
        for n in range(9):
            assert _tiling_row(n) == tuple(self.per_partition_sum(k, n - k) for k in range(n + 1)), n

    def test_oracle_rejects_out_of_range_k(self):
        for n, k in ((3, -1), (3, 4), (-1, 0)):
            with pytest.raises(ValueError):
                lucanomial_tiling_oracle(n, k)

    def test_product_form_equals_cross_product_up_to_4x4(self):
        # Per partition: the product of per-row generating polynomials must
        # equal the weight sum over the full cross product of row tilings.
        for lam in partitions_in_rectangle(4, 4):
            stars = star(lam, 4, 4)
            product_form = ONE
            for part in lam:
                product_form = product_form * row_weight_poly(part)
            for part in stars:
                product_form = product_form * row_weight_poly(part, domino_initial=True)
            total = ZERO
            row_sets = [list(linear_tilings(p)) for p in lam] + [
                list(domino_initial_tilings(q)) for q in stars
            ]
            for choice in itertools.product(*row_sets):
                squares = sum(r.count("S") for r in choice)
                dominos = sum(r.count("D") for r in choice)
                total = total + Poly({(squares, dominos): 1})
            assert product_form == total


class TestEnumerateRectTilings:
    def test_two_one(self):
        assert len(list(enumerate_rect_tilings(2, 1))) == 1

    def test_four_two(self):
        tilings = list(enumerate_rect_tilings(4, 2))
        assert len(tilings) == 6
        assert len(set(tilings)) == 6

    def test_k_zero(self):
        assert len(list(enumerate_rect_tilings(5, 0))) == 1

    def test_counts_match_fibonomial(self):
        for n in range(8):
            for k in range(n + 1):
                assert len(list(enumerate_rect_tilings(n, k))) == fibonomial(n, k)

    def test_enumerated_tilings_pass_the_constructor_checks(self):
        # The enumeration builds its tilings without validation; each one must
        # rebuild through the validating constructor as an equal tiling.
        for n in range(9):
            for k in range(n + 1):
                for rt in enumerate_rect_tilings(n, k):
                    rebuilt = RectTiling(rt.lam, rt.lambda_rows, rt.star_rows)
                    assert type(rt) is RectTiling and rebuilt == rt and hash(rebuilt) == hash(rt)

    def test_weight_sum_matches_oracle(self):
        for n in range(7):
            for k in range(n + 1):
                total = sum(
                    (rt.weight() for rt in enumerate_rect_tilings(n, k)), ZERO
                )
                assert total == lucanomial_tiling_oracle(n, k)

    def test_weight_is_the_monomial_of_the_tile_counts(self):
        for rt in enumerate_rect_tilings(6, 3):
            rows = rt.lambda_rows + rt.star_rows
            counts = _tile_counts(rows)
            assert counts == (sum(r.count("S") for r in rows), sum(r.count("D") for r in rows))
            assert rt.weight() == Poly({counts: 1})
