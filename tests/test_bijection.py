"""Exhaustive tests for the stairstep bijection and the pair decomposition."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucanomials import bijection, narayana
from lucanomials.bijection import (
    EMPTY_STAIRSTEP,
    NotInImageError,
    StairstepTiling,
    TilingTriple,
    _replay_key,
    _scan_key,
    decompose_pair,
    enumerate_stairstep_tilings,
    forward,
    inverse,
    verify_cardinality,
    verify_pair_decomposition,
)
from lucanomials.cli import main
from lucanomials.lucas import fib_factorial, fibonomial
from lucanomials.narayana import fibonarayana
from lucanomials.tilings import (
    RectTiling,
    ShapeError,
    _cut_offsets,
    enumerate_rect_tilings,
    linear_tilings,
)


def triple_space(n, k):
    """Every shape-valid triple for (n, k): the codomain of forward."""
    smalls = list(enumerate_stairstep_tilings(max(k - 1, 0)))
    others = list(enumerate_stairstep_tilings(max(n - k - 1, 0)))
    rects = list(enumerate_rect_tilings(n, n - k))  # (n-k) x k rectangle
    return {
        TilingTriple(s, o, r) for s, o, r in itertools.product(smalls, others, rects)
    }


def triple_key(triple):
    """The scan core's key format, the head, serialized from a triple's fields."""
    rect = triple.rect
    return "|".join(rect.lambda_rows + rect.star_rows + triple.other_stair.rows)


def top_rows(t, k):
    """The rows of a stairstep that the scan reads: all but the bottom k-1."""
    return t.rows[:len(t.rows) - max(k - 1, 0)]


def reference_scan_key(top, n, k):
    """The forward scan of one choice of top rows, event by event: the
    reference for the depth-first core.  ``top`` holds n-k rows (n-1 when
    k = 0), row i covering n-1-i cells; returns the head."""
    height = n - k
    scan_count = len(top)
    lengths = list(range(n - 1, n - 1 - scan_count, -1))  # 0 once consumed
    offsets = [_cut_offsets(row) for row in top]
    lam_rows: list[str] = []
    star_cols: list[str] = []
    other_rows: list[str] = []
    other_length = height - 1  # the next other-stairstep row's length
    alive = scan_count
    c = k
    r = 0
    while alive:
        while not lengths[r]:
            r = r + 1 if r + 1 < scan_count else 0
        length = lengths[r]
        cuts = offsets[r]
        if c < length and cuts[c] < 0:
            # The complement column closed here has one cell per partition
            # row still to emit.
            if length - c + 1 != height - len(lam_rows):
                raise RuntimeError("a cut column does not fit the rows left to emit")
            star_cols.append(top[r][cuts[c - 1]:cuts[length]])
            c -= 1
            lengths[r] = c
            if not c:
                alive -= 1
        else:
            if c > length:
                raise RuntimeError("comparison column drifted past the end of a row")
            if len(lam_rows) == height:
                raise RuntimeError("scan emitted more partition rows than the rectangle has")
            row = top[r]
            lam_rows.append(row[:cuts[c]])
            if c < length:
                if length - c != other_length:
                    raise RuntimeError("scan produced a stairstep row of the wrong length")
                other_rows.append(row[cuts[c]:cuts[length]])
                other_length -= 1
            lengths[r] = 0
            alive -= 1
        r = r + 1 if r + 1 < scan_count else 0

    # Complete the path to the bottom-left corner: one of the two remainders
    # is always zero, otherwise cells would have been left unplaced.
    missing_down = height - len(lam_rows)
    if missing_down and c:
        raise RuntimeError("scan ended with both path directions unfinished")
    if other_length > 0:
        raise RuntimeError("scan produced a stairstep of the wrong size")
    return "|".join(lam_rows + [""] * missing_down + star_cols + [""] * c + other_rows)


def colliding_core(monkeypatch, victim, twin):
    """Make the scan core give the top rows ``victim`` the head of ``twin``."""
    original = bijection._scan_heads

    def core(choices, n, k):
        for top, head in zip(itertools.product(*choices), original(choices, n, k)):
            yield next(original([(row,) for row in twin], n, k)) if top == victim else head

    monkeypatch.setattr(bijection, "_scan_heads", core)


@st.composite
def stairsteps(draw, size):
    """A random stairstep tiling of the given size, one tile at a time."""
    rows = []
    for length in range(size, 0, -1):
        tiles = []
        covered = 0
        while covered < length:
            if length - covered >= 2 and draw(st.booleans()):
                tiles.append("D")
                covered += 2
            else:
                tiles.append("S")
                covered += 1
        rows.append("".join(tiles))
    return StairstepTiling(tuple(rows))


@st.composite
def stairstep_and_k(draw):
    """(T, n, k): a stairstep of size n-1 for n in 10..30, and 0 <= k <= n."""
    n = draw(st.integers(10, 30))
    return draw(stairsteps(n - 1)), n, draw(st.integers(0, n))


class TestStairstepTiling:
    def test_row_lengths_validated(self):
        StairstepTiling(("SS", "S"))
        with pytest.raises(ShapeError):
            StairstepTiling(("S", "SS"))
        with pytest.raises(ShapeError):
            StairstepTiling(("SS",))

    def test_text_roundtrip(self):
        t = StairstepTiling(("SD", "D", "S"))
        assert StairstepTiling.from_text(t.to_text()) == t

    def test_counts(self):
        assert len(list(enumerate_stairstep_tilings(0))) == 1
        assert len(list(enumerate_stairstep_tilings(2))) == 2
        assert len(list(enumerate_stairstep_tilings(5))) == 240

    def test_counts_are_fibonacci_factorials(self):
        for m in range(7):
            assert len(list(enumerate_stairstep_tilings(m))) == fib_factorial(m + 1)

    def test_each_exactly_once(self):
        tilings = list(enumerate_stairstep_tilings(4))
        assert len(tilings) == len(set(tilings))


class TestForward:
    def test_smallest_case_is_forced(self):
        (t,) = enumerate_stairstep_tilings(1)
        triple = forward(t, 1)
        assert triple.small_stair == EMPTY_STAIRSTEP
        assert triple.other_stair == EMPTY_STAIRSTEP
        assert triple.rect.lam == (1,)
        assert triple.rect.lambda_rows == ("S",)

    def test_bottom_rows_pass_through(self):
        t = StairstepTiling(("SDSS", "DD", "DS", "D", "S"))
        triple = forward(t, 3)
        assert triple.small_stair.rows == ("D", "S")

    def test_traced_example(self):
        # Scan trace for rows SDSS / DD / DS with comparison column 3:
        # break, cut, break, break; partition (3, 2, 2), one cut column D.
        t = StairstepTiling(("SDSS", "DD", "DS", "D", "S"))
        triple = forward(t, 3)
        assert triple.rect.lam == (3, 2, 2)
        assert triple.rect.lambda_rows == ("SD", "D", "D")
        assert triple.rect.star_rows == ("D", "", "")
        assert triple.other_stair.rows == ("SS", "S")

    def test_wrong_k_rejected(self):
        t = StairstepTiling(("S",))
        with pytest.raises(ShapeError):
            forward(t, 5)

    def test_image_equals_triple_space_n4_k2(self):
        image = {forward(t, 2) for t in enumerate_stairstep_tilings(3)}
        assert image == triple_space(4, 2)

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3)])
    def test_image_equals_triple_space(self, n, k):
        image = {forward(t, k) for t in enumerate_stairstep_tilings(n - 1)}
        assert image == triple_space(n, k)

    def test_bijective_n_up_to_6(self):
        for n in range(2, 7):
            stairs = list(enumerate_stairstep_tilings(n - 1))
            for k in range(1, n):
                image = {forward(t, k) for t in stairs}
                assert len(image) == len(stairs)
                assert len(image) == fibonomial(n, k) * fib_factorial(k) * fib_factorial(n - k)

    def test_tile_multiset_conserved(self):
        for n in range(2, 7):
            for t in enumerate_stairstep_tilings(n - 1):
                for k in range(1, n):
                    assert forward(t, k).tile_counts() == t.tile_counts()

    def test_degenerate_k_zero_and_k_n(self):
        t = StairstepTiling(("SD", "D", "S"))
        low = forward(t, 0)
        assert low.small_stair == EMPTY_STAIRSTEP
        assert low.other_stair == t
        assert low.rect.lam == (0, 0, 0, 0)
        high = forward(t, 4)
        assert high.small_stair == t
        assert high.other_stair == EMPTY_STAIRSTEP
        assert high.rect.lam == ()
        assert inverse(low, 4, 0) == t
        assert inverse(high, 4, 4) == t


class TestScanKey:
    def test_keys_match_forward_one_to_one(self):
        for n in range(1, 8):
            stairs = list(enumerate_stairstep_tilings(n - 1))
            for k in range(0, n + 1):
                pairs = set()
                for t in stairs:
                    top = top_rows(t, k)
                    head = _scan_key(top, n, k)
                    assert _replay_key(head, n, k) == top, (n, k, t)
                    pairs.add((head, forward(t, k)))
                heads = {head for head, _ in pairs}
                triples = {triple for _, triple in pairs}
                # Only the top rows are scanned: a head stands for F_k! stairsteps.
                assert len(heads) * fib_factorial(max(k, 1)) == len(triples) == len(pairs), (n, k)
                assert all(head == triple_key(triple) for head, triple in pairs), (n, k)

    def test_core_matches_the_reference_scan_in_product_order(self):
        # Every choice of top rows for 0 <= k <= n <= 8, k = 0 and k = n included.
        for n in range(0, 9):
            for k in range(0, n + 1):
                choices = [tuple(linear_tilings(m)) for m in range(n - 1, max(k - 1, 0), -1)]
                expected = [reference_scan_key(top, n, k) for top in itertools.product(*choices)]
                assert list(bijection._scan_heads(choices, n, k)) == expected, (n, k)

    def test_fault_in_a_memoised_state_propagates(self, monkeypatch):
        # A shape check failing where the scan wraps to a cut row, in a state
        # shared by many choices, must reach the verifier as it is.
        original = bijection._finish

        def faulty(state, height):
            if state[3]:  # a cut row is still queued
                raise RuntimeError("a cut column does not fit the rows left to emit")
            return original(state, height)

        monkeypatch.setattr(bijection, "_finish", faulty)
        with pytest.raises(RuntimeError, match="a cut column does not fit"):
            verify_cardinality(6, 3)


class TestBeyondExhaustion:
    """Properties on random stairsteps far past the exhaustive range."""

    @settings(max_examples=25, deadline=None)
    @given(stairstep_and_k())
    def test_inverse_undoes_forward(self, case):
        t, n, k = case
        assert inverse(forward(t, k), n, k) == t

    @settings(max_examples=25, deadline=None)
    @given(stairstep_and_k())
    def test_tile_multiset_conserved(self, case):
        t, _, k = case
        assert forward(t, k).tile_counts() == t.tile_counts()

    @settings(max_examples=25, deadline=None)
    @given(stairstep_and_k())
    def test_key_agrees_with_forward(self, case):
        t, n, k = case
        top = top_rows(t, k)
        head = _scan_key(top, n, k)
        triple = forward(t, k)
        assert head == triple_key(triple)
        assert triple.small_stair.rows == t.rows[len(top):]
        assert _replay_key(head, n, k) == top

    @pytest.mark.parametrize("k", [1, 600])
    def test_roundtrip_past_the_recursion_limit(self, k):
        # The forward scan's first pass is n - max(k, 1) - 1 rows deep: 1198
        # at n = 1200, k = 1, past the default recursion limit of 1000.
        rng = random.Random(1199)
        rows = []
        for length in range(1199, 0, -1):
            tiles, covered = [], 0
            while covered < length:
                tile = "D" if length - covered > 1 and rng.random() < 0.5 else "S"
                tiles.append(tile)
                covered += 1 + (tile == "D")
            rows.append("".join(tiles))
        t = StairstepTiling(tuple(rows))
        assert inverse(forward(t, k), 1200, k) == t


class TestInverse:
    def test_roundtrip_n_up_to_6(self):
        for n in range(2, 7):
            for t in enumerate_stairstep_tilings(n - 1):
                for k in range(0, n + 1):
                    assert inverse(forward(t, k), n, k) == t, (n, k, t)

    def test_every_triple_has_preimage(self):
        # Surjectivity scan: inverse then forward is the identity on triples.
        for n, k in [(4, 2), (5, 1), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3)]:
            for triple in triple_space(n, k):
                t = inverse(triple, n, k)
                assert forward(t, k) == triple

    def test_matches_search_inverse(self):
        # Exhaustive-search fallback inverse, kept as an oracle for the
        # reverse procedure.
        for n, k in [(4, 2), (5, 2)]:
            stairs = list(enumerate_stairstep_tilings(n - 1))
            for triple in triple_space(n, k):
                matches = [t for t in stairs if forward(t, k) == triple]
                assert len(matches) == 1
                assert inverse(triple, n, k) == matches[0]

    def test_shape_mismatch_rejected(self):
        t = StairstepTiling(("SS", "S"))
        triple = forward(t, 1)
        with pytest.raises(ShapeError):
            inverse(triple, 3, 2)
        with pytest.raises(ShapeError):
            inverse(triple, 4, 1)
        # There is no stairstep of size -1 to map forward.
        empty = TilingTriple(EMPTY_STAIRSTEP, EMPTY_STAIRSTEP, RectTiling((), (), ()))
        with pytest.raises(ShapeError):
            inverse(empty, 0, 0)

    def test_certificate_rejects_a_wrong_scan(self, monkeypatch, capsys, tmp_path):
        # The replay never scans; only the forward certificate can notice
        # that the scan core disagrees with it.
        t = StairstepTiling(("SDSS", "DD", "DS", "D", "S"))
        triple = forward(t, 3)
        triple_file = tmp_path / "triple.json"
        triple_file.write_text(json.dumps(triple.to_json_dict()))
        original = bijection._scan_key
        monkeypatch.setattr(bijection, "_scan_key", lambda top, n, k: original(top, n, k) + "S")
        with pytest.raises(NotInImageError):
            inverse(triple, 6, 3)
        with pytest.raises(SystemExit) as excinfo:
            main(["bijection", "inverse", "--n", "6", "--k", "3", "--input", str(triple_file)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


class TestVerifyCardinality:
    def test_four_two(self):
        report = verify_cardinality(4, 2)
        assert report["pass"]
        assert report["lhs"] == report["rhs"] == 6

    def test_six_three(self):
        report = verify_cardinality(6, 3)
        assert report["pass"]
        assert report["lhs"] == 240
        assert report["rhs"] == 240
        assert report["injective"] and report["surjective"]

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_cardinality(4, 4)

    def test_reports_up_to_seven(self):
        for n in range(2, 8):
            count = fib_factorial(n)
            for k in range(1, n):
                assert verify_cardinality(n, k) == {
                    "n": n, "k": k, "lhs": count, "rhs": count,
                    "injective": True, "surjective": True, "pass": True,
                }

    def test_eight_four(self):
        # 65 520 stairstep tilings, one past the default exhaustive range.
        assert verify_cardinality(8, 4) == {
            "n": 8, "k": 4, "lhs": 65520, "rhs": 65520,
            "injective": True, "surjective": True, "pass": True,
        }

    @pytest.mark.parametrize("n, k", [(8, k) for k in (1, 2, 3, 5, 6, 7)] + [(9, 5)])
    def test_reports_past_the_default_range(self, n, k):
        # (9, 5) scans 74 256 heads against 30 suffixes: F_9! = 2 227 680.
        count = fib_factorial(n)
        assert verify_cardinality(n, k) == {
            "n": n, "k": k, "lhs": count, "rhs": count,
            "injective": True, "surjective": True, "pass": True,
        }

    def test_duplicate_bottom_choice_breaks_injectivity(self, monkeypatch):
        # The bottom rows are counted, not stored: two equal choices of the
        # second-to-last row keep the count at F_6!, but two stairsteps would
        # pass through to one image.
        original = bijection.linear_tilings
        monkeypatch.setattr(bijection, "linear_tilings",
                            lambda length: ("SS", "SS") if length == 2 else original(length))
        report = verify_cardinality(6, 3)
        assert report["injective"] is False and report["pass"] is False
        assert report["lhs"] == report["rhs"] == 240

    def test_head_collision_breaks_injectivity(self, monkeypatch, capsys):
        # Give one choice of the top rows the head of another: the counts
        # still match F_n!, but the map is no longer injective (nor onto).
        colliding_core(monkeypatch, ("SSSSS", "SSSS", "SSS"), ("DSSS", "SSSS", "SSS"))
        report = verify_cardinality(6, 3)
        assert report["injective"] is False
        assert report["pass"] is False
        assert report["lhs"] == report["rhs"] == 240
        assert main(["verify", "bijection", "--n", "6", "--k", "3"]) == 1
        assert capsys.readouterr().out == (
            "bijection n=6 k=3 FAIL lhs=240 rhs=240\nbijection: 1 checks FAILED\n"
        )


class TestDecomposePair:
    def test_all_squares_first_row_is_no_domino(self):
        t1 = StairstepTiling(("SSSS", "SSS", "SS", "S"))
        t2 = StairstepTiling(("SSS", "SS", "S"))
        for k in range(1, 5):
            assert decompose_pair(t1, t2, k)[0] == "no_domino"

    def test_domino_across_the_boundary(self):
        t1 = StairstepTiling(("DSS", "SSS", "SS", "S"))  # domino on cells 1-2
        t2 = StairstepTiling(("SSS", "SS", "S"))
        assert decompose_pair(t1, t2, 2)[0] == "domino"
        assert decompose_pair(t1, t2, 3)[0] == "no_domino"

    def test_first_row_parts(self):
        t1 = StairstepTiling(("SDS", "SSS", "SS", "S"))  # domino on cells 2-3
        t2 = StairstepTiling(("SSS", "SS", "S"))
        rest = StairstepTiling(t1.rows[1:])
        # The domino case maps T1's remainder at k-2 and T2 at k.
        assert decompose_pair(t1, t2, 3) == ("domino", ("S", "S"), forward(rest, 1), forward(t2, 3))

    def test_size_mismatch_rejected(self):
        t1 = StairstepTiling(("SS", "S"))
        with pytest.raises(ShapeError):
            decompose_pair(t1, t1, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_keys_count_the_pair_check(self, n):
        # The brute-force reference of the factored counter: one key per
        # pair, all distinct, and as many of each case as the report counts.
        firsts = list(enumerate_stairstep_tilings(n - 1))
        seconds = list(enumerate_stairstep_tilings(n - 2))
        for k in range(1, n):
            keys = {decompose_pair(t1, t2, k) for t1 in firsts for t2 in seconds}
            report = verify_pair_decomposition(n, k)
            assert len(keys) == len(firsts) * len(seconds) == report["lhs"], k
            cases = Counter(case_tag for case_tag, *_ in keys)
            assert (cases["no_domino"], cases["domino"]) == (report["no_domino"], report["domino"]), k
            # Each remainder maps forward at its case's column parameter.
            widths = {(tag, len(a.rect.star_rows), len(b.rect.star_rows)) for tag, _, a, b in keys}
            assert widths <= {("no_domino", k - 1, k - 1), ("domino", k - 2, k)}, k


def pair_report(n, k):
    """The passing verify_pair_decomposition report at (n, k), from closed forms."""
    prefactor = fib_factorial(k) * fib_factorial(n - k) * fib_factorial(k - 1) * fib_factorial(n - k + 1)
    no_domino = prefactor * fibonomial(n - 1, k - 1) ** 2
    domino = prefactor * fibonomial(n - 1, k) * fibonomial(n - 1, k - 2)
    total = fib_factorial(n) * fib_factorial(n - 1)
    return {
        "n": n, "k": k, "lhs": total, "rhs": total,
        "no_domino": no_domino, "domino": domino,
        "injective": True, "surjective": True, "pass": True,
    }


class TestVerifyPairDecomposition:
    def test_four_two(self):
        report = verify_pair_decomposition(4, 2)
        assert report["pass"]
        assert report["lhs"] == report["rhs"] == 12

    def test_five_two_total(self):
        report = verify_pair_decomposition(5, 2)
        assert report["pass"]
        assert report["lhs"] == report["rhs"] == 180

    def test_degenerate_k_one(self):
        # The domino case cannot occur: there is no boundary left of cell 1.
        report = verify_pair_decomposition(5, 1)
        assert report["pass"]
        assert report["domino"] == 0

    def test_bracket_matches_fibonarayana(self):
        for n in range(3, 6):
            for k in range(1, n):
                report = verify_pair_decomposition(n, k)
                prefactor = (
                    fib_factorial(k)
                    * fib_factorial(n - k)
                    * fib_factorial(k - 1)
                    * fib_factorial(n - k + 1)
                )
                assert report["pass"]
                assert report["rhs"] == prefactor * fibonarayana(n, k)

    def test_checks_the_library_fibonarayana(self, monkeypatch):
        # The total is compared with the FiboNarayana function that
        # `narayana --mode fibo` prints, so a wrong value there fails the check.
        monkeypatch.setattr(narayana, "fibonarayana", lambda n, k: 7)
        report = verify_pair_decomposition(4, 2)
        assert report["pass"] is False
        assert report["injective"] and report["surjective"]
        assert (report["lhs"], report["rhs"]) == (12, 2 * 7)
        code = main(["verify", "theorem2", "--n", "4", "--k", "2"])
        assert code == 1

    def test_reports_up_to_six(self):
        for n in range(2, 7):
            for k in range(1, n):
                assert verify_pair_decomposition(n, k) == pair_report(n, k), (n, k)

    def test_eight_four(self):
        # 3120 stairsteps of size 6 per column parameter; F_8! * F_7! pairs.
        assert verify_pair_decomposition(8, 4) == pair_report(8, 4)

    @pytest.mark.parametrize("k", [1, 7])
    def test_eight_extreme_k(self, k):
        # k = 1 scans the remainders at column parameter 0 only; k = 7 also
        # scans T2 at parameter 7 = n - 1, where the scan reads no row.
        assert verify_pair_decomposition(8, k) == pair_report(8, k)

    @pytest.mark.parametrize("n", [6, 7])
    def test_one_scan_per_column_parameter(self, monkeypatch, n):
        # Both remainders are scanned once per column parameter the cases
        # use, not once per first row: k-1 alone at k = 1, where no domino
        # can cross the boundary, else k-2 (domino), k-1 (no domino) and k.
        calls = Counter()
        original = bijection._image_size

        def counted(m, p):
            calls[m, p] += 1
            return original(m, p)

        monkeypatch.setattr(bijection, "_image_size", counted)
        for k in range(1, n):
            calls.clear()
            assert verify_pair_decomposition(n, k) == pair_report(n, k), k
            params = {k - 1} if k == 1 else {k - 2, k - 1, k}
            assert calls == Counter((n - 1, p) for p in params), k

    def test_key_collision_breaks_injectivity(self, monkeypatch):
        # Give one size-2 stairstep the scan of the other: every count still
        # matches, but the pair map is no longer injective.
        colliding_core(monkeypatch, ("SS", "S"), ("D", "S"))
        report = verify_pair_decomposition(4, 2)
        assert report["injective"] is False
        assert report["pass"] is False
        assert report["surjective"] is True
        assert report["lhs"] == report["rhs"] == 12

    def test_seven_three(self):
        # 748 800 pairs: F_7! * F_6! = 3120 * 240.
        report = verify_pair_decomposition(7, 3)
        assert report["pass"] and report["injective"] and report["surjective"]
        assert report["lhs"] == report["rhs"] == 748800
        assert (report["no_domino"], report["domino"]) == (576000, 172800)
