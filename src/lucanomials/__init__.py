"""Exact combinatorics of Lucas polynomials and their tiling models.

The package computes Lucas polynomials, lucanomial and fibonomial
coefficients, FiboNarayana and generalized Narayana numbers, and
Catalan-style analogues, all over exact integer arithmetic.  Identities are
never assumed: each quantity has an independent second computation route
(a definitional quotient, a tiling weight sum, or an exhaustive bijection)
and the test suite checks the routes against each other exactly.
"""

from .bijection import (
    EMPTY_STAIRSTEP,
    NotInImageError,
    PairDecomposition,
    StairstepTiling,
    TilingTriple,
    decompose_pair,
    enumerate_stairstep_tilings,
    forward,
    inverse,
    recompose_pair,
    verify_cardinality,
    verify_pair_decomposition,
)
from .lucas import (
    fib_factorial,
    fibonacci,
    fibonacci_atom,
    fibonomial,
    lucanomial,
    lucas,
    lucas_atom,
    lucas_factorial,
)
from .narayana import (
    catalan,
    classical_narayana,
    classical_specialization_report,
    fibocatalan,
    fibonarayana,
    fibonarayana_definition_oracle,
    generalized_catalan,
    generalized_narayana,
    generalized_narayana_definition_oracle,
)
from .polys import (
    ONE,
    S,
    T,
    ZERO,
    NotDivisibleError,
    Poly,
    PolyParseError,
    divide_exact,
    int_text,
    parse,
    render,
)
from .tilings import (
    RectTiling,
    ShapeError,
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

__version__ = "0.1.0"

__all__ = [
    "EMPTY_STAIRSTEP",
    "NotDivisibleError",
    "NotInImageError",
    "ONE",
    "PairDecomposition",
    "Poly",
    "PolyParseError",
    "RectTiling",
    "S",
    "ShapeError",
    "StairstepTiling",
    "T",
    "TilingTriple",
    "ZERO",
    "catalan",
    "classical_narayana",
    "classical_specialization_report",
    "covered_length",
    "decompose_pair",
    "divide_exact",
    "domino_initial_tilings",
    "enumerate_rect_tilings",
    "enumerate_stairstep_tilings",
    "fib_factorial",
    "fibonacci",
    "fibonacci_atom",
    "fibocatalan",
    "fibonarayana",
    "fibonarayana_definition_oracle",
    "fibonomial",
    "forward",
    "generalized_catalan",
    "generalized_narayana",
    "generalized_narayana_definition_oracle",
    "int_text",
    "inverse",
    "linear_tilings",
    "lucanomial",
    "lucanomial_tiling_oracle",
    "lucas",
    "lucas_atom",
    "lucas_factorial",
    "parse",
    "partitions_in_rectangle",
    "recompose_pair",
    "render",
    "row_weight_poly",
    "split_after",
    "star",
    "verify_cardinality",
    "verify_pair_decomposition",
]
