"""Run one CLI command in-process with the library's entry points traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python perfbench/trace_child.py <cli arguments...>

Every wrapped call opens a span (name, start, end, parent).  Spans are
folded when they close into per-(parent, name) aggregates of calls, total
time and self time, kept in memory and written out at the end; storing the
millions of individual spans of an exhaustive command would double its
memory.  Self time is a span's duration minus the time its child spans
cover.  Generators are timed at each ``next``, so work done while iterating
is charged to the generator and not to its consumer.

The command's stdout is captured and reported as a digest; the exit code
mirrors ``python -m lucanomials.cli``.  The single JSON line printed on the
real stdout carries the exit code, digest and span aggregates.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
import time
import traceback
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = [["<root>", 0.0]]  # frames: [name, child time]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.counts: Counter = Counter()

    def _close(self, parent: list, frame: list, start: float) -> None:
        duration = _clock() - start
        self.stack.pop()
        parent[1] += duration
        key = (parent[0], frame[0])
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - frame[1]

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call is a span; ``on_call`` sees the arguments first."""
        stack, close = self.stack, self._close

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(parent, frame, start)

        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap a generator function: one span per ``next``, items counted."""
        stack, close, counts = self.stack, self._close, self.counts
        items = f"{name}.items"

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                start = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(parent, frame, start)
                counts[items] += 1
                yield item

        return wrapper

    def summary(self) -> dict:
        return {
            "edges": [[p, n, *agg] for (p, n), agg in self.edges.items()],
            "counts": dict(self.counts),
        }


def _rebind(modules, original, wrapper) -> None:
    # A name imported with ``from x import y`` is a separate binding in every
    # importing module; patch each one so no call escapes the wrapper.
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the public entry points of every module; return the traced ``cli``."""
    polys = importlib.import_module("lucanomials.polys")
    lucas = importlib.import_module("lucanomials.lucas")
    tilings = importlib.import_module("lucanomials.tilings")
    bijection = importlib.import_module("lucanomials.bijection")
    narayana = importlib.import_module("lucanomials.narayana")
    cli = importlib.import_module("lucanomials.cli")
    modules = [sys.modules["lucanomials"], polys, lucas, tilings, bijection, narayana, cli]
    counts = tracer.counts
    Poly = polys.Poly

    def term_pairs(a, b):
        size = len(b._terms) if isinstance(b, Poly) else int(isinstance(b, int) and b != 0)
        counts["polys.mul.term_pairs"] += len(a._terms) * size

    seen: set = set()

    def lucanomial_args(n, k):
        seen.add((n, k))
        counts["lucas.lucanomial.distinct"] = len(seen)

    # __rmul__ and __radd__ are the same functions as __mul__ and __add__.
    mul = tracer.span("polys.mul", Poly.__mul__, term_pairs)
    Poly.__mul__ = Poly.__rmul__ = mul
    add = tracer.span("polys.add", Poly.__add__)
    Poly.__add__ = Poly.__radd__ = add
    for cls, name in ((tilings.RectTiling, "tilings.rect_tiling"),
                      (bijection.StairstepTiling, "bijection.stairstep_tiling")):
        cls.__post_init__ = tracer.span(name, cls.__post_init__)

    functions = [
        (polys, "divide_exact", "polys.divide_exact", None),
        (polys, "render", "polys.render", None),
        (lucas, "lucanomial", "lucas.lucanomial", lucanomial_args),
        (lucas, "fibonomial", "lucas.fibonomial", None),
        (lucas, "lucas", "lucas.lucas", None),
        (tilings, "lucanomial_tiling_oracle", "tilings.oracle", None),
        (tilings, "star", "tilings.star", None),
        (tilings, "covered_length", "tilings.covered_length", None),
        (tilings, "split_after", "tilings.split_after", None),
        (bijection, "forward", "bijection.forward", None),
        (bijection, "decompose_pair", "bijection.decompose_pair", None),
        (bijection, "verify_cardinality", "bijection.verify_cardinality", None),
        (bijection, "verify_pair_decomposition", "bijection.verify_pair_decomposition", None),
        (narayana, "generalized_narayana", "narayana.generalized_narayana", None),
        (narayana, "generalized_narayana_definition_oracle", "narayana.gn_oracle", None),
        (narayana, "generalized_catalan", "narayana.generalized_catalan", None),
        (narayana, "classical_specialization_report", "narayana.classical_report", None),
        (cli, "main", "cli.main", None),
    ]
    for module, attr, name, on_call in functions:
        original = getattr(module, attr)
        _rebind(modules, original, tracer.span(name, original, on_call))
    generators = [
        (tilings, "partitions_in_rectangle", "tilings.partitions"),
        (tilings, "enumerate_rect_tilings", "tilings.enumerate_rect"),
        (bijection, "enumerate_stairstep_tilings", "bijection.stairstep"),
    ]
    for module, attr, name in generators:
        original = getattr(module, attr)
        _rebind(modules, original, tracer.generator_span(name, original))
    return cli


def main() -> None:
    tracer = Tracer()
    cli = install(tracer)
    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        # What the interpreter does with an uncaught exception.
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout = real_stdout
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    out = captured.getvalue().encode()
    result = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "stdout_bytes": len(out)}
    result.update(tracer.summary())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
