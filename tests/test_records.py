"""Value semantics of the tiling records: construction, equality, immutability, copying."""

import copy
import pickle

import pytest

from lucanomials.bijection import PairDecomposition, StairstepTiling, TilingTriple, decompose_pair
from lucanomials.tilings import RectTiling, ShapeError, star

RECT = RectTiling((1, 1), ("S", "S"), ("D", ""))
STAIR = StairstepTiling(("DS", "D", "S"))
TRIPLE = TilingTriple(StairstepTiling(("S",)), StairstepTiling(("S",)),
                      RectTiling((2, 2), ("D", "D"), ("", "")))
PAIR = decompose_pair(STAIR, StairstepTiling(("D", "S")), 2)
RECORDS = [RECT, STAIR, TRIPLE, PAIR]
FIELDS = {
    RectTiling: ("lam", "lambda_rows", "star_rows"),
    StairstepTiling: ("rows",),
    TilingTriple: ("small_stair", "other_stair", "rect"),
    PairDecomposition: ("case_tag", "first_row_parts", "triple_1", "triple_2"),
}


def values(record):
    return [getattr(record, name) for name in FIELDS[type(record)]]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestValueSemantics:
    def test_keyword_construction(self, record):
        cls, names = type(record), FIELDS[type(record)]
        by_keyword = dict(zip(names, values(record)))
        assert cls(**by_keyword) == record
        assert cls(**dict(reversed(by_keyword.items()))) == record
        assert cls(*values(record)[:1], **dict(list(by_keyword.items())[1:])) == record

    def test_bad_arguments_rejected(self, record):
        cls, names = type(record), FIELDS[type(record)]
        args = values(record)
        for bad in (
            lambda: cls(*args[:-1]),  # missing
            lambda: cls(*args, args[0]),  # extra
            lambda: cls(*args, colour="red"),  # unknown keyword
            lambda: cls(*args, **{names[0]: args[0]}),  # given twice
        ):
            with pytest.raises(TypeError):
                bad()

    def test_equal_and_hash_by_value(self, record):
        twin = type(record)(*values(record))
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert record != tuple(values(record))
        assert all(record != other for other in RECORDS if other is not record)

    def test_assignment_and_deletion_refused(self, record):
        name = FIELDS[type(record)][0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is before

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_roundtrip(self, record, protocol):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)

    def test_copy_and_deepcopy(self, record):
        for copied in (copy.copy(record), copy.deepcopy(record)):
            assert type(copied) is type(record)
            assert copied == record and hash(copied) == hash(record)


class TestRepr:
    def test_rect_tiling(self):
        assert repr(RECT) == "RectTiling(lam=(1, 1), lambda_rows=('S', 'S'), star_rows=('D', ''))"

    def test_stairstep_tiling(self):
        assert repr(STAIR) == "StairstepTiling(rows=('DS', 'D', 'S'))"

    def test_tiling_triple(self):
        assert repr(TRIPLE) == (
            "TilingTriple(small_stair=StairstepTiling(rows=('S',)), "
            "other_stair=StairstepTiling(rows=('S',)), "
            "rect=RectTiling(lam=(2, 2), lambda_rows=('D', 'D'), star_rows=('', '')))"
        )

    def test_pair_decomposition(self):
        assert repr(PAIR) == (
            "PairDecomposition(case_tag='domino', first_row_parts=('', 'S'), "
            "triple_1=TilingTriple(small_stair=StairstepTiling(rows=()), "
            "other_stair=StairstepTiling(rows=('D', 'S')), "
            "rect=RectTiling(lam=(0, 0, 0), lambda_rows=('', '', ''), star_rows=())), "
            "triple_2=TilingTriple(small_stair=StairstepTiling(rows=('S',)), "
            "other_stair=StairstepTiling(rows=()), "
            "rect=RectTiling(lam=(2,), lambda_rows=('D',), star_rows=('', ''))))"
        )


class TestFieldTypes:
    def test_lists_are_stored_as_tuples(self):
        stair = StairstepTiling(["S"])
        assert stair.rows == ("S",) and hash(stair) == hash(StairstepTiling(("S",)))
        rect = RectTiling([1, 1], ["S", "S"], ["D", ""])
        assert (rect.lam, rect.lambda_rows, rect.star_rows) == ((1, 1), ("S", "S"), ("D", ""))
        assert rect == RECT and hash(rect) == hash(RECT)
        pair = PairDecomposition(PAIR.case_tag, list(PAIR.first_row_parts), PAIR.triple_1, PAIR.triple_2)
        assert pair.first_row_parts == ("", "S") and hash(pair) == hash(PAIR)

    @pytest.mark.parametrize("rows", [(1,), ("D", 1), ("D", None), (["S", "D"],)])
    def test_stairstep_row_must_be_a_string(self, rows):
        with pytest.raises(ShapeError, match="not a string"):
            StairstepTiling(rows)

    @pytest.mark.parametrize(
        "lam,lambda_rows,star_rows",
        [((1,), (1,), ("",)), ((1,), (["S"],), ("",)), ((0, 0), ("", ""), (None,))],
    )
    def test_rect_row_must_be_a_string(self, lam, lambda_rows, star_rows):
        with pytest.raises(ShapeError, match="not a string"):
            RectTiling(lam, lambda_rows, star_rows)

    @pytest.mark.parametrize("lam", [(True,), (1, False), (1.0,), ("1",), (None,)])
    def test_rect_part_must_be_an_int(self, lam):
        rows = ("S",) * len(lam)
        with pytest.raises(ShapeError, match="not an integer"):
            RectTiling(lam, rows, ("",))
        with pytest.raises(ShapeError, match="not an integer"):
            star(lam, len(lam), 1)
