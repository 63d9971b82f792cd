"""Workload definitions: which CLI commands one pass runs, chosen by seed.

Each command has a band of (n, k) choices of about equal cost.  Seed 0
takes the first choice of every band, in table order; any other seed draws
one choice per band and shuffles the order.  A band of one choice is fixed
because no neighbouring input costs about the same (see DESIGN.md).

The bands were sized by the exact number of coefficient pairs multiplied
(``polys.mul.term_pairs``), which stays within 1.5 % across each band of
``big_query``.
"""

from __future__ import annotations

import random

# workload -> list of bands; a band is a list of argument lists.
BANDS: dict[str, list[list[list[str]]]] = {
    "big_query": [
        [["lucanomial", "--n", "64", "--k", str(k)] for k in (32, 30, 31, 33, 34)],
        [["lucanomial", "--n", str(n), "--k", str(k)] for n, k in ((84, 13), (88, 12), (92, 11))],
        [["catalan", "--n", "28", "--mode", "general"]],
        [["narayana", "--n", "50", "--k", str(k), "--mode", "general"] for k in (25, 23, 24, 26, 27)],
        [["fibonomial", "--n", "280", "--k", str(k)] for k in (140, 138, 139, 141, 142)],
    ],
    "verify_sweep": [
        [["verify", "theorem1", "--n-max", "14"]],
        [["verify", "classical", "--n-max", "30"]],
        [["verify", "theorem3", "--n-max", "22"]],
        [["verify", "catalan", "--n-max", "18"]],
        [["verify", "theorem2", "--n-max", "100"]],
    ],
    "exhaustive": [
        [["verify", "bijection", "--n", "8", "--k", "4"]],
        [["verify", "bijection", "--n-max", "7"]],
        [["verify", "theorem2", "--n", "6", "--k", str(k)] for k in (3, 4)],
        [["tilings", "count", "--n", "10", "--k", "5"]],
        [["tilings", "list", "--n", "8", "--k", str(k)] for k in (4, 3, 5)],
    ],
}

# Commands that fail at the seed commit; run once per big_query run, outside
# the timed passes, and checked against values computed in the benchmark.
PROBES: list[list[str]] = [
    ["fibonomial", "--n", "1000", "--k", "1"],
    ["fibonomial", "--n", "290", "--k", "145"],
]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one pass of ``workload`` for ``seed``."""
    bands = BANDS[workload]
    if seed == 0:
        return [band[0] for band in bands]
    rng = random.Random(seed)
    chosen = [rng.choice(band) for band in bands]
    rng.shuffle(chosen)
    return chosen


def all_commands() -> list[list[str]]:
    """Every command any seed can produce, for recording expected outputs."""
    return [argv for bands in BANDS.values() for band in bands for argv in band]


def fibonacci(n: int) -> int:
    """F_n by iteration, independent of the library."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _fib_factorial(n: int) -> int:
    product = 1
    a, b = 1, 1  # F_1, F_2
    for _ in range(n):
        product *= a
        a, b = b, a + b
    return product


def fibonomial_value(n: int, k: int) -> int:
    """F_n! / (F_k! F_{n-k}!) with Python ints, independent of the library."""
    quotient, remainder = divmod(_fib_factorial(n), _fib_factorial(k) * _fib_factorial(n - k))
    if remainder:
        raise ArithmeticError(f"fibonomial({n}, {k}) is not an integer")
    return quotient


def probe_expected_stdout(argv: list[str]) -> bytes:
    """Correct stdout of a probe, computed without the library.

    The caller must lift the int-to-str digit limit in its own process.
    """
    n, k = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--k") + 1])
    value = fibonacci(n) if k == 1 else fibonomial_value(n, k)
    return f"{value}\n".encode()
