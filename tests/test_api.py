"""The package's public surface and the README's library example."""

from pathlib import Path

import lucanomials
from lucanomials import bijection, lucas, narayana, parse, polys, tilings

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "EMPTY_STAIRSTEP", "NotDivisibleError", "NotInImageError", "ONE",
    "Poly", "PolyParseError", "RectTiling", "S", "ShapeError", "StairstepTiling", "T",
    "TilingTriple", "ZERO", "catalan", "classical_narayana", "classical_specialization_report",
    "covered_length", "decompose_pair", "divide_exact", "domino_initial_tilings",
    "enumerate_rect_tilings", "enumerate_stairstep_tilings", "fib_factorial", "fibonacci",
    "fibonacci_atom", "fibocatalan", "fibocatalan_definition_oracle", "fibonarayana",
    "fibonarayana_definition_oracle", "fibonarayana_recurrence", "fibonomial", "forward",
    "generalized_catalan", "generalized_catalan_definition_oracle", "generalized_narayana",
    "generalized_narayana_definition_oracle", "generalized_narayana_recurrence", "int_text",
    "inverse", "linear_tilings", "lucanomial", "lucanomial_tiling_oracle", "lucas_atom",
    "lucas_factorial", "parse", "partitions_in_rectangle", "render",
    "row_weight_poly", "split_after", "star", "verify_cardinality", "verify_pair_decomposition",
]


def test_public_surface():
    """Each module's __all__ names what it defines; the package re-exports
    exactly those lists.  Changing the surface means editing PUBLIC."""
    assert len(set(lucanomials.__all__)) == len(lucanomials.__all__)
    assert sorted(lucanomials.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from lucanomials import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(PUBLIC)
    seen = set()
    for module in (bijection, lucas, narayana, polys, tilings):
        for name in module.__all__:
            obj = getattr(module, name)
            # A constant such as ONE is defined where its class is.
            assert getattr(obj, "__module__", type(obj).__module__) == module.__name__, name
            assert getattr(lucanomials, name) is obj, name
            assert name not in seen, name
            seen.add(name)


def quick_start() -> str:
    """The Python block under "Library quick start" in the README."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start():
    block = quick_start()
    namespace = {}
    exec(block, namespace)  # its imports, and its inverse(forward(t)) assert
    stated = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment and "=" not in code:
            stated[code.strip()] = comment.strip()
    assert stated == {
        "lucanomial(6, 3)": 'Poly("s^9 + 8*s^7*t + ... + 6*s*t^4")',
        "lucanomial_tiling_oracle(6, 3)": "same polynomial, summed over tilings",
        "fibonarayana(5, 2)": "15",
        "generalized_narayana(3, 2)": 'Poly("s^2 + t")',
    }
    value = {code: eval(code, namespace) for code in stated}
    assert str(value["lucanomial(6, 3)"]).startswith("s^9 + 8*s^7*t + ")
    assert str(value["lucanomial(6, 3)"]).endswith(" + 6*s*t^4")
    assert value["lucanomial(6, 3)"] == value["lucanomial_tiling_oracle(6, 3)"]
    assert value["fibonarayana(5, 2)"] == 15
    assert value["generalized_narayana(3, 2)"] == parse("s^2 + t")
