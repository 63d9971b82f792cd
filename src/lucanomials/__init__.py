"""Exact combinatorics of Lucas polynomials and their tiling models.

The package computes Lucas polynomials, lucanomial and fibonomial
coefficients, FiboNarayana and generalized Narayana numbers, and
Catalan-style analogues, all over exact integer arithmetic.  Identities are
never assumed: each quantity has an independent second computation route
(a definitional quotient, a tiling weight sum, or an exhaustive bijection)
and the test suite checks the routes against each other exactly.
"""

from .bijection import *
from .lucas import *
from .narayana import *
from .polys import *
from .tilings import *

__version__ = "0.1.0"

# Each import above also bound its submodule here; a module's __all__ is its public API.
__all__ = [*bijection.__all__, *lucas.__all__, *narayana.__all__, *polys.__all__, *tilings.__all__]
