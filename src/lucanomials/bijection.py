"""The stairstep bijection and the pair decomposition built on top of it.

A stairstep tiling of size m tiles rows of lengths m, m-1, ..., 1
independently with squares and dominos; there are F_2 * F_3 * ... * F_{m+1}
of them, which is F_{m+1}! since F_1 = 1.  :func:`forward` maps each
stairstep tiling of size n-1, for a chosen 1 <= k <= n-1, to a triple of

* a stairstep tiling of size k-1 (the bottom k-1 rows, taken verbatim),
* a stairstep tiling of size n-k-1, and
* a rectangle tiling of the (n-k) x k rectangle,

witnessing F_n! = fibonomial(n, k) * F_k! * F_{n-k}! bijectively.

Forward procedure.  The top n-k rows are scanned cyclically while a
comparison column c (starting at k) drifts left:

* if a domino covers cells c and c+1 of the current row, the path of the
  rectangle partition gains a leftward step, the domino and everything
  right of it is cut off to become the next complement-column tiling
  (domino first, so the column obeys the domino-initial rule), the row
  keeps its first c-1 cells, and c decreases by one;
* otherwise the path gains a downward step, cells 1..c of the row become
  the next partition-row tiling and the remaining cells become the next
  row of the size-(n-k-1) stairstep, consuming the row.

The cursor then moves to the next row below, skipping consumed rows and
wrapping from the last scanned row back to the topmost row that still has
cells.  When every cell has been placed, the path is completed to the
bottom-left corner of the rectangle; the completion steps carry empty rows
or columns only.  Comparisons at column 0 or beyond the end of a row count
as breakable, which makes the procedure total, including the degenerate
parameters k = 0 and k = n that the pair decomposition needs.

Both directions run on one flat key, the head: the partition rows,
complement columns and other-stairstep rows of a triple joined by "|".  The
small stairstep is the bottom k-1 rows verbatim, so the head keys the image
of the top rows.  One core, :func:`_scan_heads`, maps every choice of the
top rows to its head, and :func:`_scan_key` is that core on one choice.
The scan reads the rows once each, in order, before it wraps to the rows it
has cut, so the core walks the choices depth first: each event of that
first pass runs once per prefix of rows.  The rest of the scan depends only
on the state a prefix leaves, less the rows and columns already emitted, so
it runs once per such state, memoised for the one call.  :func:`_event` is
the scan's one step, in both phases.  :func:`_replay_key` maps a head back
by replaying the scan on int state (row lengths, 0 once consumed, the
cursor, and c), reading each event off the partition rows: a downward step
when the next part equals c, else a leftward one.  No part exceeds c, so a
leftward step never meets c = 0 and the replay always ends.
:func:`forward` and :func:`inverse` wrap the cores.

:func:`decompose_pair` splits a pair of stairstep tilings of sizes n-1 and
n-2 along the first row of the larger one at cells k-1|k and maps both
remainders by :func:`forward`; the tuple it returns is the pair's key, and
:func:`verify_pair_decomposition` counts keys without forming any, realizing

    F_n! * F_{n-1}! = F_k! F_{n-k}! F_{k-1}! F_{n-k+1}!
                      * [fib(n-1,k-1)^2 + fib(n-1,k) * fib(n-1,k-2)]

by exhaustion; the check compares the total with the prefactor times
:func:`narayana.fibonarayana`, the atom product that ``narayana --mode
fibo`` prints, which computes the bracket without the recurrence.

Where validation happens.  Shapes are validated at the boundary: when a
:class:`StairstepTiling` or :class:`TilingTriple` is constructed (so also
when :func:`forward` builds its result) and by the CLI on its input.  Both
cores trust their input.  The scan tracks row lengths and the comparison
column as ints and reads cut positions from the per-row offset table of
:func:`lucanomials.tilings._cut_offsets`.  :func:`_event` checks the image's
shape with O(1) int comparisons per event (a cut column has one cell per
partition row still to emit, the other-stairstep rows have lengths n-k-1,
..., 1, and there are no more partition rows than the rectangle has), and
:func:`_finish` checks that the path completes.  An event that a prefix or
a memoised state shares among many choices is checked once for all of
them, with the outcome each would have had alone.  Both exhaustive
verifiers count the image on one counter, :func:`_image_size`, as the
paper's proof of the recurrence applies Theorem 1 to both remainders: at
(n, k), and at (n-1, p) once per column parameter p of the pair
decomposition.  :func:`inverse` checks only the sizes of the triple up
front and nothing during the replay.  Its certificate then builds the
stairstep tiling (a ShapeError there becomes NotInImageError) and requires
its top rows to scan to the triple's head, so a returned tiling T always
satisfies forward(T, k) == triple.  Every shape-valid triple is an image,
so NotInImageError means a fault here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator

from . import narayana
from .lucas import fib_factorial, fibonomial
from .tilings import (
    DOMINO,
    RectTiling,
    ShapeError,
    _check_rows_field,
    _cut_offsets,
    _Record,
    _json_field,
    _tile_counts,
    covered_length,
    linear_tilings,
    split_after,
)

__all__ = [
    "EMPTY_STAIRSTEP",
    "NotInImageError",
    "StairstepTiling",
    "TilingTriple",
    "decompose_pair",
    "enumerate_stairstep_tilings",
    "forward",
    "inverse",
    "verify_cardinality",
    "verify_pair_decomposition",
]


class NotInImageError(ValueError):
    """No stairstep tiling maps to the given triple."""


class StairstepTiling(_Record):
    """Independent row tilings of rows of lengths size, size-1, ..., 1.

    ``rows`` is a tuple of row tiling strings, top row first.
    """

    __slots__ = ("rows",)

    def __post_init__(self):
        _check_rows_field(self.rows, "rows")
        size = len(self.rows)
        for index, row in enumerate(self.rows):
            expected = size - index
            if covered_length(row) != expected:
                raise ShapeError(
                    f"row {index + 1} covers {covered_length(row)} cells, expected {expected}"
                )

    @property
    def size(self) -> int:
        return len(self.rows)

    def to_text(self) -> str:
        """Fixture format: one row per line, top row first."""
        return "\n".join(self.rows)

    @classmethod
    def from_text(cls, text: str) -> StairstepTiling:
        rows = tuple(line.strip() for line in text.splitlines() if line.strip())
        return cls(rows)

    def tile_counts(self) -> tuple[int, int]:
        """(squares, dominos) over all rows."""
        return _tile_counts(self.rows)


EMPTY_STAIRSTEP = StairstepTiling(())


def enumerate_stairstep_tilings(m: int) -> Iterator[StairstepTiling]:
    """All stairstep tilings of size m, each exactly once; F_{m+1}! of them."""
    if m < 0:
        raise ValueError("size must be nonnegative")
    for rows in itertools.product(*map(linear_tilings, range(m, 0, -1))):
        yield StairstepTiling(rows)


class TilingTriple(_Record):
    """Image of :func:`forward`: two smaller stairsteps plus a rectangle tiling.

    ``small_stair`` has size k-1 (empty when k <= 1), ``other_stair`` size
    n-k-1 (empty when k >= n-1), and ``rect`` is a partition inside the
    (n-k) x k rectangle.
    """

    __slots__ = ("small_stair", "other_stair", "rect")

    def __post_init__(self):
        if tuple(map(type, self._values())) != (StairstepTiling, StairstepTiling, RectTiling):
            raise ShapeError("a triple holds two StairstepTilings and a RectTiling, in that order")

    def tile_counts(self) -> tuple[int, int]:
        rows = self.small_stair.rows + self.other_stair.rows
        return _tile_counts(rows + self.rect.lambda_rows + self.rect.star_rows)

    def to_json_dict(self) -> dict:
        return {
            "small_stair": list(self.small_stair.rows),
            "other_stair": list(self.other_stair.rows),
            "rect": self.rect.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> TilingTriple:
        return cls(
            StairstepTiling(_json_field(data, "small_stair", "triple", list, str)),
            StairstepTiling(_json_field(data, "other_stair", "triple", list, str)),
            RectTiling.from_json_dict(_json_field(data, "rect", "triple", dict)),
        )


def _event(state: tuple, row: str, length: int, height: int) -> tuple:
    """The state after one scan event: ``row``, of ``length`` cells, read at
    the state's comparison column.

    The state is (c, the number of partition rows emitted, the length of the
    next other-stairstep row, the rows cut but not yet consumed with their
    lengths, in the order the cursor meets them, then the tuples of partition
    rows, complement columns and other-stairstep rows emitted so far).
    Raises RuntimeError if the image is not shape-valid, which would be an
    implementation fault.
    """
    c, emitted, other_length, alive, lam, star, other = state
    cuts = _cut_offsets(row)
    if c < length and cuts[c] < 0:
        # The complement column closed here has one cell per partition row
        # still to emit.  The row keeps its first c-1 cells.
        if length - c + 1 != height - emitted:
            raise RuntimeError("a cut column does not fit the rows left to emit")
        cut = cuts[c - 1]
        if c > 1:
            alive += ((row[:cut], c - 1),)
        return c - 1, emitted, other_length, alive, lam, star + (row[cut:],), other
    if c > length:
        raise RuntimeError("comparison column drifted past the end of a row")
    if emitted == height:
        raise RuntimeError("scan emitted more partition rows than the rectangle has")
    if c == length:
        return c, emitted + 1, other_length, alive, lam + (row,), star, other
    if length - c != other_length:
        raise RuntimeError("scan produced a stairstep row of the wrong length")
    cut = cuts[c]
    return c, emitted + 1, other_length - 1, alive, lam + (row[:cut],), star, other + (row[cut:],)


def _finish(state: tuple, height: int) -> tuple[tuple[str, ...], ...]:
    """The emitted fields of ``state`` once the scan has run to its end: it
    reads the cut rows still queued until every cell is placed, then
    completes the path."""
    while state[3]:
        (row, length), *queue = state[3]
        state = _event(state[:3] + (tuple(queue),) + state[4:], row, length, height)
    c, emitted, other_length, _, lam, star, other = state
    # Complete the path to the bottom-left corner: one of the two remainders
    # is always zero, otherwise cells would have been left unplaced.
    missing_down = height - emitted
    if missing_down and c:
        raise RuntimeError("scan ended with both path directions unfinished")
    if other_length > 0:
        raise RuntimeError("scan produced a stairstep of the wrong size")
    return lam + ("",) * missing_down, star + ("",) * c, other


def _next_states(states: Iterable[tuple], choices, length: int, height: int) -> Iterable[tuple]:
    """The state after the next row, of ``length`` cells, for each state before
    it and each of the row's ``choices``, in itertools.product order.  A row of
    one choice is read at once, so one stairstep's scan nests no generators."""
    states = (_event(state, row, length, height) for state in states for row in choices)
    return list(states) if len(choices) == 1 else states


def _scan_heads(choices: list, n: int, k: int) -> Iterator[str]:
    """The forward scan of every choice of top rows, in itertools.product order.

    ``choices[i]`` holds the candidates for row i of a size-(n-1) stairstep,
    trusted to be valid tilings of n-1-i cells, for n-k rows (n-1 when
    k = 0).  Yields each choice's head: the image's n-k partition rows (top
    first, "" for a zero part), its k complement columns (right to left) and
    its n-k-1 other-stairstep rows, joined by "|"; the small stairstep is
    the bottom rows verbatim.

    The scan reads rows 0, 1, ... once each, in order, before it wraps to
    the rows it has cut.  So the states after all rows but the last come
    from one :func:`_next_states` generator per row, each reading the states
    the row before it yields: every event of that first pass runs once per
    prefix.  The rest of the scan, the last row and the wrap-around, depends
    only on the state without its emitted fields, so it runs once per such
    state and choice of the last row, memoised for this call.
    """
    height = n - k
    start = (k, 0, height - 1, (), (), (), ())
    if not choices:  # k = n, or n <= 1: no cell to place, only the path to complete
        lam, star, other = _finish(start, height)
        yield "|".join(lam + star + other)
        return
    *inner, last = choices
    last_length = n - len(choices)
    states: Iterable[tuple] = [start]
    for depth, row_choices in enumerate(inner):
        states = _next_states(states, row_choices, n - 1 - depth, height)
    ends: dict[tuple, list[tuple[tuple[str, ...], ...]]] = {}
    for state in states:
        key = state[:4]
        tails = ends.get(key)
        if tails is None:
            fresh = key + ((), (), ())
            tails = ends[key] = [_finish(_event(fresh, row, last_length, height), height) for row in last]
        _, _, _, _, lam, star, other = state
        for lam_end, star_end, other_end in tails:
            yield "|".join([*lam, *lam_end, *star, *star_end, *other, *other_end])


def _scan_key(top: tuple[str, ...], n: int, k: int) -> str:
    """The head of one choice of top rows: :func:`_scan_heads` on singletons."""
    return next(_scan_heads([(row,) for row in top], n, k))


def forward(t: StairstepTiling, k: int) -> TilingTriple:
    """Map a stairstep tiling of size n-1 to its triple, n = t.size + 1."""
    n = t.size + 1
    if not 0 <= k <= n:
        raise ShapeError(f"need 0 <= k <= {n} for a stairstep of size {n - 1}")
    scan_count = n - max(k, 1)
    pieces = tuple(_scan_key(t.rows[:scan_count], n, k).split("|"))
    height = n - k
    lam_rows = pieces[:height]
    lam = tuple(len(row) + row.count(DOMINO) for row in lam_rows)
    try:
        rect = RectTiling(lam, lam_rows, pieces[height:n])
        other_stair = StairstepTiling(pieces[n:])
    except ShapeError as exc:
        raise RuntimeError(f"scan produced an inconsistent triple: {exc}") from exc
    return TilingTriple(StairstepTiling(t.rows[scan_count:]), other_stair, rect)


def _replay_key(head: str, n: int, k: int) -> tuple[str, ...]:
    """The top rows whose scan is ``head``, which is trusted: the scan
    replayed on int state, each row glued back right to left."""
    height = n - k
    fields = head.split("|")
    lam_rows = fields[:height]
    parts = [len(row) + row.count(DOMINO) for row in lam_rows]
    star_cols = iter(fields[height:n])
    # No shape-valid head runs out of stairstep rows (checked for every
    # partition with n <= 18); the default keeps the replay total for any
    # input and leaves the verdict to the caller's certificate.
    other_rows = iter(fields[n:])
    scan_count = n - max(k, 1)
    lengths = list(range(n - 1, n - 1 - scan_count, -1))  # 0 once consumed
    rows = [""] * scan_count  # the pieces of each row placed so far
    alive = scan_count
    c = k
    r = 0
    i = 0  # the next partition row
    while alive:
        while not lengths[r]:
            r = r + 1 if r + 1 < scan_count else 0
        if i < height and parts[i] == c:
            # The scan emitted partition row i here and consumed the row.
            other = next(other_rows, "") if c < lengths[r] else ""
            rows[r] = lam_rows[i] + other + rows[r]
            i += 1
            lengths[r] = 0
            alive -= 1
        else:
            # The scan cut the next complement column off this row.
            rows[r] = next(star_cols) + rows[r]
            c -= 1
            lengths[r] = c
            if not c:
                alive -= 1
        r = r + 1 if r + 1 < scan_count else 0
    return tuple(rows)


def inverse(triple: TilingTriple, n: int, k: int) -> StairstepTiling:
    """The unique stairstep tiling T with forward(T, k) == triple.

    Replays the triple's head with :func:`_replay_key` and appends the
    small stairstep's rows.  One certificate then proves the result: it
    must be a stairstep tiling whose top rows scan to the triple's head.
    Raises ShapeError when the triple's sizes do not fit (n, k) and
    NotInImageError when the certificate fails.
    """
    if n < 1 or not 0 <= k <= n:
        raise ShapeError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    rect = triple.rect
    height = n - k
    if len(rect.lam) != height or len(rect.star_rows) != k:
        raise ShapeError(
            f"rectangle tiling is {len(rect.lam)} x {len(rect.star_rows)}, "
            f"expected {height} x {k}"
        )
    if triple.small_stair.size != max(k - 1, 0):
        raise ShapeError(f"small stairstep has size {triple.small_stair.size}, expected {max(k - 1, 0)}")
    if triple.other_stair.size != max(height - 1, 0):
        raise ShapeError(
            f"other stairstep has size {triple.other_stair.size}, expected {max(height - 1, 0)}"
        )
    head = "|".join(rect.lambda_rows + rect.star_rows + triple.other_stair.rows)
    top = _replay_key(head, n, k)
    try:
        result = StairstepTiling(top + triple.small_stair.rows)
    except ShapeError as exc:
        raise NotInImageError(f"replayed rows do not form a stairstep: {exc}") from exc
    if _scan_key(top, n, k) != head:
        raise NotInImageError("the replayed stairstep does not map forward to the triple")
    return result


def _image_size(n: int, k: int) -> tuple[int, int]:
    """(F_n!, size of the forward scan's image) at (n, k), for 0 <= k <= n.

    The bottom k-1 rows pass through verbatim and the head is the scan of
    the top rows, so the map is injective exactly when the F_n!/F_k!
    top-row choices give distinct heads and the F_k! bottom-row tuples are
    distinct.  Only the heads are stored, straight from :func:`_scan_heads`;
    the bottoms are counted, row by row, as tuples of distinct choices per
    row are distinct.
    """
    top_choices = [linear_tilings(length) for length in range(n - 1, max(k - 1, 0), -1)]
    bottom_choices = [linear_tilings(length) for length in range(k - 1, 0, -1)]
    heads = set(_scan_heads(top_choices, n, k))
    total = math.prod(map(len, top_choices + bottom_choices))
    if total != fib_factorial(n):
        raise RuntimeError("stairstep enumeration does not match F_n!")
    return total, len(heads) * math.prod(len(set(row)) for row in bottom_choices)


def verify_cardinality(n: int, k: int) -> dict:
    """Exhaustively check F_n! = fibonomial(n,k) * F_k! * F_{n-k}! via the forward scan.

    Returns a report with both side counts plus injectivity and surjectivity
    flags.  Surjectivity uses the count argument: images are shape-valid by
    construction, so hitting the full product count means hitting every
    triple.  Injectivity is :func:`_image_size`'s head/suffix count.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    total, image_size = _image_size(n, k)
    rhs = fibonomial(n, k) * fib_factorial(k) * fib_factorial(n - k)
    injective = image_size == total
    surjective = image_size == rhs
    return {
        "n": n,
        "k": k,
        "lhs": total,
        "rhs": rhs,
        "injective": injective,
        "surjective": surjective,
        "pass": injective and surjective and total == rhs,
    }


def _split_first_row(first: str, k: int) -> tuple[str, tuple[str, str], int, int]:
    """Case tag, flanking pieces of T1's first row at the cells k-1|k boundary,
    and the column parameters that T1's remainder and T2 map forward with."""
    if _cut_offsets(first)[k - 1] < 0:  # a domino covers cells k-1 and k
        left, tail = split_after(first, k - 2)
        return "domino", (left, tail[1:]), k - 2, k
    return "no_domino", split_after(first, k - 1), k - 1, k - 1


def decompose_pair(
    t1: StairstepTiling, t2: StairstepTiling, k: int
) -> tuple[str, tuple[str, str], TilingTriple, TilingTriple]:
    """The key (case_tag, first_row_parts, triple_1, triple_2) of one pair,
    which :func:`verify_pair_decomposition` counts without forming it.

    T1 (size n-1) and T2 (size n-2) split along T1's first row at k-1|k.  With
    no domino across cells k-1 and k, the tag is "no_domino", the pieces have
    lengths k-1 and n-k, and both remainders map forward with parameter k-1.
    With a domino, the tag is "domino", the pieces have lengths k-2 and n-k-1,
    and T1's remainder and T2 map forward with parameters k-2 and k.
    """
    n = t1.size + 1
    if t2.size != n - 2:
        raise ShapeError(f"second tiling has size {t2.size}, expected {n - 2}")
    if not 1 <= k <= n - 1:
        raise ShapeError(f"need 1 <= k <= {n - 1}")
    case_tag, parts, k1, k2 = _split_first_row(t1.rows[0], k)
    rest = StairstepTiling(t1.rows[1:])
    return case_tag, parts, forward(rest, k1), forward(t2, k2)


def verify_pair_decomposition(n: int, k: int) -> dict:
    """Exhaustively verify the pair-decomposition counting identity at (n, k).

    Checks that the key of :func:`decompose_pair`, with heads in place of
    triples, is injective over all F_n! * F_{n-1}! pairs and that the
    per-case image sizes match
    F_k! F_{n-k}! F_{k-1}! F_{n-k+1}! * fib(n-1,k-1)^2   (no domino) and
    F_k! F_{n-k}! F_{k-1}! F_{n-k+1}! * fib(n-1,k) * fib(n-1,k-2)  (domino),
    and that F_n! F_{n-1}! is that prefactor times fibonarayana(n, k).

    The image is the disjoint union, over first rows, of the products
    {(case, pieces)} x image(k1) x image(k2), image(p) being the forward
    scan's image at (n-1, p).  So the map is injective exactly when (case,
    pieces) differs between first rows and :func:`_image_size` finds each
    scan it uses injective; no pair and no key list is stored.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    splits = [_split_first_row(first, k) for first in linear_tilings(n - 1)]
    # T1's remainder and T2 are both of size n-2: scan once per parameter, not per pair.
    sizes = {p: _image_size(n - 1, p) for p in {q for split in splits for q in split[2:]}}
    counts = {"no_domino": 0, "domino": 0}
    for case_tag, _, k1, k2 in splits:
        counts[case_tag] += sizes[k1][0] * sizes[k2][0]
    total = sum(counts.values())
    injective = len(set(splits)) == len(splits) and all(a == b for a, b in sizes.values())
    prefactor = (
        fib_factorial(k) * fib_factorial(n - k) * fib_factorial(k - 1) * fib_factorial(n - k + 1)
    )
    expected = {
        "no_domino": prefactor * fibonomial(n - 1, k - 1) ** 2,
        "domino": prefactor * fibonomial(n - 1, k) * fibonomial(n - 1, k - 2),
    }
    lhs = fib_factorial(n) * fib_factorial(n - 1)
    rhs = prefactor * narayana.fibonarayana(n, k)
    cases_match = counts == expected
    ok = injective and total == lhs and cases_match and lhs == rhs
    return {
        "n": n,
        "k": k,
        "lhs": lhs,
        "rhs": rhs,
        "no_domino": counts["no_domino"],
        "domino": counts["domino"],
        "injective": injective,
        "surjective": cases_match,
        "pass": ok,
    }
