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

:func:`lucanomial_tiling_oracle` computes that sum without listing the
partitions.  A partition is a lattice path from the top-right corner
(0 rows emitted, column m) to the bottom-left corner (k, 0) of the
rectangle: a down step at column x emits a row of length x, and a left step
after i rows closes column x, whose complement has length k - i.  The weight
of a tiling set factors over the steps of its path (one row polynomial per
row, one domino-initial polynomial per column), so a transfer DP over the
(i, x) grid sums all C(n, k) paths with O(k * (n-k)) polynomial products.
The per-step polynomials are Lucas polynomials, and the route never uses
the lucanomial formulas of :mod:`lucanomials.lucas`.  The test suite
checks the factorisation by full enumeration at small sizes.

All enumeration orders are deterministic: partitions stream in
lexicographically descending order, and row tilings stream square-first.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import lru_cache

from .lucas import MEMO_SIZE, lucas
from .polys import ONE, Poly, T, ZERO

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
def _linear_tilings(length: int) -> tuple[str, ...]:
    if length == 0:
        return ("",)
    if length == 1:
        return (SQUARE,)
    return tuple(SQUARE + rest for rest in _linear_tilings(length - 1)) + tuple(
        DOMINO + rest for rest in _linear_tilings(length - 2)
    )


def linear_tilings(length: int) -> Iterator[str]:
    """All square/domino tilings of a strip; there are F_{length+1} of them."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    yield from _linear_tilings(length)


def domino_initial_tilings(length: int) -> Iterator[str]:
    """Tilings whose first tile is a domino (plus the empty tiling at length 0).

    There are F_{length-1} of them for length >= 1; in particular none for
    length 1.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        yield ""
    elif length >= 2:
        for rest in _linear_tilings(length - 2):
            yield DOMINO + rest


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
        squares = dominos = 0
        for row in self.lambda_rows + self.star_rows:
            squares += row.count(SQUARE)
            dominos += row.count(DOMINO)
        return Poly({(squares, dominos): 1})

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

    At s = t = 1 the number of tilings equals fibonomial(n, k).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    m = n - k
    for lam in partitions_in_rectangle(k, m):
        star_parts = star(lam, k, m)
        row_choices = [_linear_tilings(part) for part in lam]
        column_choices = [tuple(domino_initial_tilings(part)) for part in star_parts]
        for rows in itertools.product(*row_choices):
            for columns in itertools.product(*column_choices):
                yield RectTiling(lam, rows, columns)


def lucanomial_tiling_oracle(n: int, k: int) -> Poly:
    """Weight sum over all rectangle tilings of the k x (n-k) rectangle.

    A transfer DP along the partition's boundary path: after i rows,
    ``paths[x]`` is the weight sum of the path prefixes that stand at
    column x.  A left step from x multiplies by the domino-initial
    polynomial of the closed column's length k - i; a down step emits a row
    of length x.  Must equal lucanomial(n, k).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    m = n - k
    paths = [ZERO] * m + [ONE]
    for i in range(k):
        column = row_weight_poly(k - i, domino_initial=True)
        for x in range(m, 0, -1):
            paths[x - 1] = paths[x - 1] + paths[x] * column
        for x in range(m + 1):
            paths[x] = paths[x] * row_weight_poly(x)
    # After the last row every column still open has an empty complement,
    # of weight 1, so each path walks left to the corner unchanged.
    return sum(paths, ZERO)
