"""Partitions in a rectangle, square/domino row tilings, and weight sums.

A row tiling is a string over {"S", "D"}: S covers one cell, D covers two
adjacent cells.  A partition with k parts, each at most m (zeros explicit),
sits inside a k x m rectangle; the lengths of the columns of its complement,
read right to left so they come out weakly decreasing, form a second
partition with m parts.

A :class:`RectTiling` combines a partition in a rectangle with a linear
tiling of each partition row and a tiling of each complement column that
must begin with a domino when the column is nonempty.  Its weight is the
monomial s^(#squares) * t^(#dominos).  Summing weights over all rectangle
tilings of a k x (n-k) rectangle produces the lucanomial {n choose k}.

Summing without listing the partitions.  A partition is a lattice path
from the top-right corner of the rectangle to its bottom-left corner: a
down step at column x emits a row of length x, and a left step after i rows
closes column x, whose complement has length k - i.  The weight of a tiling
set factors over the steps of its path (one row polynomial per row, one
domino-initial polynomial per column), so the weight sum B(k, m) of the
k x m rectangle splits at the path's first step.  Either the path emits the
top row at full length m, of weight {m+1}, and leaves a (k-1) x m
rectangle, or it closes the rightmost column, whose complement is all k
cells, of weight t{k-1}, and leaves a k x (m-1) rectangle:

    B(k, m) = {m+1} B(k-1, m) + t{k-1} B(k, m-1),  B(0, m) = B(k, 0) = 1.

Two fills take that step.  :func:`_rectangle_sum` fills the k x m
rectangle row by row in one list of m+1 values, k*m steps, in a ring
record of :mod:`lucanomials.lucas`, which also names the ring's {x}: in
Z[s, t] it is :func:`lucanomial_tiling_oracle`, and ``tilings count`` runs
it in Z, where {x} is F_x, so it counts the tilings with no polynomial
built.  The memo :func:`_tiling_row` holds B(k, n-k) in Z[s, t] for
k = 0..n, each entry one step from the row of n-1, so a sweep over
n = 0..N takes one step per point.  Neither fill uses the
lucanomial formulas; the tests check the factorisation by enumeration.

All enumeration orders are deterministic: partitions stream in
lexicographically descending order, and row tilings come square-first from
one table, :func:`linear_tilings`, a bounded memo of one tuple per length.
:func:`_tile_counts` counts the squares and dominos of every record.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import lru_cache

from .lucas import _POLY, MEMO_SIZE, lucas
from .polys import ONE, Poly, T

__all__ = [
    "RectTiling",
    "ShapeError",
    "covered_length",
    "domino_initial_tilings",
    "enumerate_rect_tilings",
    "linear_tilings",
    "lucanomial_tiling_oracle",
    "partitions_in_rectangle",
    "row_weight_poly",
    "split_after",
    "star",
]

SQUARE = "S"
DOMINO = "D"


class ShapeError(ValueError):
    """A partition, tiling, or board does not have the required shape."""


def covered_length(tiling: str) -> int:
    """Number of cells covered by a row tiling string."""
    if not isinstance(tiling, str):
        raise ShapeError(f"row tiling {tiling!r} is not a string")
    dominos = tiling.count(DOMINO)
    if tiling.count(SQUARE) + dominos != len(tiling):
        invalid = next(ch for ch in tiling if ch not in (SQUARE, DOMINO))
        raise ShapeError(f"invalid tile {invalid!r}; expected 'S' or 'D'")
    return len(tiling) + dominos


def _tile_counts(rows: tuple[str, ...]) -> tuple[int, int]:
    """(squares, dominos) over a tuple of valid row tilings."""
    tiles = "".join(rows)
    return tiles.count(SQUARE), tiles.count(DOMINO)


def _check_rows_field(rows, name: str) -> None:
    # A string is a sequence of one-letter rows; a field of rows is a tuple of them.
    if isinstance(rows, str):
        raise ShapeError(f"{name} must be a tuple of row tilings, not the string {rows!r}")


@lru_cache(maxsize=MEMO_SIZE)
def _cut_offsets(row: str) -> tuple[int, ...]:
    """String offset of every cell boundary of a row tiling; -1 inside a domino.

    Entry c ends the piece that covers cells 1..c, so
    ``row[offsets[a]:offsets[b]]`` covers cells a+1..b, and a domino covers
    cells c and c+1 exactly when entry c is -1.  This is the only map from
    cells to string offsets; the row must be a valid tiling.
    """
    offsets = [0]
    for index, ch in enumerate(row, 1):
        if ch == DOMINO:
            offsets.append(-1)
        offsets.append(index)
    return tuple(offsets)


def split_after(tiling: str, i: int) -> tuple[str, str]:
    """Split a row tiling between cells i and i+1.

    Returns the pieces covering cells 1..i and i+1..end.  Raises ShapeError
    when the tiling is invalid, a domino spans the cut, or i is outside
    0..covered_length.
    """
    length = covered_length(tiling)
    if not 0 <= i <= length:
        raise ShapeError(f"cannot split after cell {i} of a row of length {length}")
    cut = _cut_offsets(tiling)[i]
    if cut < 0:
        raise ShapeError(f"a domino spans the cut at position {i}")
    return tiling[:cut], tiling[cut:]


@lru_cache(maxsize=MEMO_SIZE)
def linear_tilings(length: int) -> tuple[str, ...]:
    """All square/domino tilings of a strip, square-first; F_{length+1} of them.

    The package's one strip table: a bounded memo, one tuple per length.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length <= 1:
        return (SQUARE * length,)
    return (*(SQUARE + rest for rest in linear_tilings(length - 1)),
            *(DOMINO + rest for rest in linear_tilings(length - 2)))


def domino_initial_tilings(length: int) -> tuple[str, ...]:
    """Tilings whose first tile is a domino (plus the empty tiling at length 0).

    There are F_{length-1} of them for length >= 1; in particular none for
    length 1.  A negative length raises ValueError, from :func:`linear_tilings`.
    """
    if length == 1:
        return ()
    return ("",) if length == 0 else tuple(DOMINO + rest for rest in linear_tilings(length - 2))


def row_weight_poly(length: int, domino_initial: bool = False) -> Poly:
    """Sum of s^(#squares) * t^(#dominos) over one row's admissible tilings.

    A free row of length L gives {L+1}; a domino-initial one gives t*{L-1},
    or 1 for the empty row.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if not domino_initial:
        return lucas(length + 1)
    return ONE if length == 0 else T * lucas(length - 1)


def partitions_in_rectangle(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """Partitions with k parts, each at most m, in lexicographic descending order."""
    if k < 0 or m < 0:
        raise ValueError("rectangle dimensions must be nonnegative")
    # Nondecreasing positions in (m, ..., 0) are weakly decreasing parts.
    yield from itertools.combinations_with_replacement(range(m, -1, -1), k)


def star(lam: tuple[int, ...], k: int, m: int) -> tuple[int, ...]:
    """Column lengths of the complement of lam in the k x m rectangle.

    Columns are read right to left so the result is weakly decreasing; it
    has m parts with zeros explicit.
    """
    if len(lam) != k:
        raise ShapeError(f"expected {k} parts, got {len(lam)}")
    previous = m
    for part in lam:
        if isinstance(part, bool) or not isinstance(part, int):
            raise ShapeError(f"part {part!r} is not an integer")
        if part < 0 or part > m:
            raise ShapeError(f"part {part} does not fit in width {m}")
        if part > previous:
            raise ShapeError("parts must be weakly decreasing")
        previous = part
    return tuple(sum(1 for part in lam if part < column) for column in range(m, 0, -1))


class _Record:
    """Base of the package's value records: immutable, named fields.

    A subclass lists its fields in ``__slots__``.  The constructor takes
    them by position or keyword, stores a list as a tuple and calls
    ``__post_init__``, the subclass's validation hook.  Assignment and
    deletion raise AttributeError.  Records compare and hash by value,
    print as ``Name(field=value, ...)``, and copy and pickle through
    ``__reduce__``, which rebuilds (so revalidates) a record from its field
    values.

    A plain class rather than a dataclass: importing dataclasses loads
    inspect, ast, dis and tokenize, and building each class costs up to a
    millisecond more, which every CLI run would pay at start-up.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(fields)}, each once, by position or keyword")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields; raise ShapeError when they do not fit together."""

    @classmethod
    def _trusted(cls, *values):
        # Internal fast path: the values are tuples that already fit together.
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class RectTiling(_Record):
    """A partition in a rectangle with tiled rows and tiled complement columns.

    ``lam`` (a tuple of ints) has one entry per rectangle row (zeros
    explicit), ``lambda_rows`` tiles each part, and ``star_rows`` tiles each
    complement column (tuples of row tiling strings); every nonempty
    complement column begins with a domino.  The rectangle is
    len(lam) x len(star_rows).
    """

    __slots__ = ("lam", "lambda_rows", "star_rows")

    def __post_init__(self):
        _check_rows_field(self.lambda_rows, "lambda_rows")
        _check_rows_field(self.star_rows, "star_rows")
        k = len(self.lam)
        m = len(self.star_rows)
        star_parts = star(self.lam, k, m)
        if len(self.lambda_rows) != k:
            raise ShapeError(f"expected {k} row tilings, got {len(self.lambda_rows)}")
        for part, row in zip(self.lam, self.lambda_rows):
            if covered_length(row) != part:
                raise ShapeError(f"row tiling {row!r} does not cover {part} cells")
        for part, row in zip(star_parts, self.star_rows):
            if covered_length(row) != part:
                raise ShapeError(f"column tiling {row!r} does not cover {part} cells")
            if part > 0 and not row.startswith(DOMINO):
                raise ShapeError(f"nonempty column tiling {row!r} must begin with a domino")

    @property
    def star_parts(self) -> tuple[int, ...]:
        return star(self.lam, len(self.lam), len(self.star_rows))

    def weight(self) -> Poly:
        """Monomial s^(#squares) * t^(#dominos) over all rows and columns."""
        return Poly({_tile_counts(self.lambda_rows + self.star_rows): 1})

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "lambda_rows": list(self.lambda_rows),
            "star_rows": list(self.star_rows),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> RectTiling:
        what = "rectangle tiling"
        return cls(
            _json_field(data, "lambda", what, list, int),
            _json_field(data, "lambda_rows", what, list, str),
            _json_field(data, "star_rows", what, list, str),
        )


def _json_field(data, key: str, what: str, kind: type, item: type | None = None):
    """Field ``key`` of the JSON object ``data``, of type ``kind``.

    With ``item``, the field is a list of exactly that type (a JSON true is
    no int), returned as a tuple.  Raises ValueError, never KeyError or
    TypeError, so that malformed input files are usage errors.
    """
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what} JSON: expected an object")
    if key not in data:
        raise ValueError(f"malformed {what} JSON: missing {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ValueError(f"malformed {what} JSON: {key!r} must be {expected}")
    if item is None:
        return value
    if any(type(x) is not item for x in value):
        kinds = "integers" if item is int else "strings"
        raise ValueError(f"malformed {what} JSON: {key!r} must hold {kinds}")
    return tuple(value)


def enumerate_rect_tilings(n: int, k: int) -> Iterator[RectTiling]:
    """All rectangle tilings for the k x (n-k) rectangle, each exactly once.

    At s = t = 1 the number of tilings equals fibonomial(n, k).  Each
    tiling fits its rectangle by construction, so it is built without the
    constructor's validation.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    m = n - k
    for lam in partitions_in_rectangle(k, m):
        column_choices = [domino_initial_tilings(part) for part in star(lam, k, m)]
        for rows in itertools.product(*map(linear_tilings, lam)):
            for columns in itertools.product(*column_choices):
                yield RectTiling._trusted(lam, rows, columns)


def _rectangle_sum(n: int, k: int, ring):
    """B(k, n-k) in ring, with ring.term(x) the {x} of that ring.

    Fills row by row: after row i, ``sums[x]`` is B(i, x), one first step
    from B(i-1, x), which the top row leaves, and B(i, x-1), which the
    rightmost column of weight t{i-1} leaves.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    m = n - k
    term = ring.term
    sums = [ring.one] * (m + 1)
    for i in range(1, k + 1):
        column = ring.t * term(i - 1)
        for x in range(1, m + 1):
            sums[x] = term(x + 1) * sums[x] + column * sums[x - 1]
    return sums[m]


def lucanomial_tiling_oracle(n: int, k: int) -> Poly:
    """The k x (n-k) rectangle fill in Z[s, t]: its tiling weight sum, equal to lucanomial(n, k)."""
    return _rectangle_sum(n, k, _POLY)


@lru_cache(maxsize=MEMO_SIZE)
def _tiling_row(n: int) -> tuple[Poly, ...]:
    """B(k, n-k) for k = 0..n, n >= 0: row n of the triangle of weight sums.

    Each inner entry is one first step from the row of n-1, which holds
    B(k-1, n-k) and B(k, n-k-1).  A cold call recurses through every
    smaller row; a sweep in increasing n finds the row of n-1 in the memo.
    """
    if n == 0:
        return (ONE,)
    previous = _tiling_row(n - 1)
    inner = (lucas(n - k + 1) * previous[k - 1] + T * lucas(k - 1) * previous[k] for k in range(1, n))
    return (ONE, *inner, ONE)
