"""Command-line interface: compute values, enumerate tilings, run verifiers.

Every run with identical arguments produces byte-identical output: there is
no randomness anywhere, all sweeps iterate in sorted (n, k) order, and JSON
is emitted with sorted keys.  Exit status is 0 on success, 1 when a
verification finds a counterexample, and 2 on usage errors.  Run as the
``lucanomials`` script or as ``python -m lucanomials.cli`` (both call
:func:`entry`), a command whose reader closes stdout early
(``... | head -1``) stops writing and exits with status 1, with no
traceback on stderr.

The rows of :data:`_VALUES` (value commands) and :data:`_TARGETS` (``verify``)
are namedtuple records; :func:`_two_routes` builds every two-route check.
Reports hold ints and Polys, which become text only where they are printed.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable

from . import bijection, narayana, tilings
from .lucas import _INT, fibonomial, lucanomial, lucas_atom
from .lucas import lucas as lucas_poly
from .polys import Poly, int_text
from .tilings import ShapeError


def _dump(obj) -> str:
    import json  # here, not at the top: only JSON output needs it

    return json.dumps(obj, sort_keys=True)


# A value command: help, least --n, whether it takes --k, and its value per
# --mode (key None: no --mode); names are looked up at call time, as in _TARGETS.
_Value = namedtuple("_Value", "help least_n takes_k modes")

_VALUES = {
    "lucas": _Value("Lucas polynomial {n}", 0, False, {None: lambda a: lucas_poly(a.n)}),
    "lucanomial": _Value("lucanomial {n choose k}", 0, True, {None: lambda a: lucanomial(a.n, a.k)}),
    "fibonomial": _Value("fibonomial coefficient", 0, True, {None: lambda a: fibonomial(a.n, a.k)}),
    "narayana": _Value("Narayana-style numbers", 1, True, {
        "fibo": lambda a: narayana.fibonarayana(a.n, a.k),
        "general": lambda a: narayana.generalized_narayana(a.n, a.k),
        "classical": lambda a: narayana.classical_narayana(a.n, a.k),
    }),
    "catalan": _Value("Catalan-style numbers", 0, False, {
        "fibo": lambda a: narayana.fibocatalan(a.n),
        "general": lambda a: narayana.generalized_catalan(a.n),
        "classical": lambda a: narayana.catalan(a.n),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="lucanomials",
        description="Exact Lucas polynomials, lucanomial and fibonomial "
                    "coefficients, Narayana and Catalan analogues, rectangle "
                    "tilings, and the stairstep bijection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, value in _VALUES.items():
        p = sub.add_parser(name, parents=[fmt], help=value.help)
        p.add_argument("--n", type=int, required=True)
        if value.takes_k:
            p.add_argument("--k", type=int, required=True)
        if None not in value.modes:
            p.add_argument("--mode", choices=tuple(value.modes), default="fibo")

    p = sub.add_parser("tilings", parents=[fmt], help="rectangle tilings of k x (n-k)")
    p.add_argument("action", choices=("count", "list"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("bijection", parents=[fmt], help="apply the stairstep bijection")
    p.add_argument("action", choices=("forward", "inverse"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True, metavar="FILE",
                   help="stairstep rows (forward) or triple JSON (inverse)")

    p = sub.add_parser("verify", parents=[fmt], help="run an exhaustive verifier")
    p.add_argument("target", choices=tuple(_TARGETS))
    p.add_argument("--n-max", type=int, default=None,
                   help="sweep bound (defaults per target)")
    p.add_argument("--n", type=int, default=None, help="check a single n")
    p.add_argument("--k", type=int, default=None, help="check a single k")
    return parser


def _text(value: Poly | int) -> str:
    """Printed form of a value: canonical text of a Poly, decimal of an int of any size."""
    return str(value) if isinstance(value, Poly) else int_text(value)


def _emit(value: Poly | int, fmt: str) -> None:
    if fmt == "text":
        print(_text(value))
    elif isinstance(value, Poly):
        print(_dump(value.to_json_dict()))
    else:
        print(_dump({"value": int_text(value)}))


def _rendered(c: dict) -> dict:
    """A check report for JSON: its values (ints and Polys) as text."""
    values = ("lhs", "rhs", "no_domino", "domino")
    return {key: _text(value) if key in values else value for key, value in c.items()}


def _check_line(name: str, c: dict) -> str:
    where = " ".join(f"{key}={c[key]}" for key in ("n", "k") if key in c)
    if c["pass"]:
        return f"{name} {where} ok"
    return f"{name} {where} FAIL lhs={_text(c['lhs'])} rhs={_text(c['rhs'])}"


def _emit_checks(name: str, checks: Iterable[dict], fmt: str,
                 text: Callable[[dict], str] | None = None) -> int:
    """Print the reports of one verify run; 0 if every check passed, else 1.

    A report holds its lhs and rhs (and the pair check its case counts) as
    values; they become text only where they are printed.  Text mode prints
    each line as its check is produced and keeps only the count and the pass
    flag, so a sweep holds one report at a time, and it prints lhs and rhs
    only on a failing line.  JSON mode collects the reports, each with its
    values as text, into one object.
    """
    if fmt == "json":
        checks = [_rendered(c) for c in checks]
        ok = all(c["pass"] for c in checks)
        print(_dump({"target": name, "pass": ok, "checks": checks}))
        return 0 if ok else 1
    ok = True
    count = 0
    for c in checks:
        count += 1
        if not c["pass"]:
            ok = False
        print(_check_line(name, c) if text is None else text(c))
    if text is None:
        print(f"{name}: {count} checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def _two_routes(lhs: Callable, rhs: Callable, agree: Callable = operator.eq,
                nonneg: Callable | None = None, reported: bool = False) -> Callable[..., dict]:
    """The check of a two-route row at (n,) or (n, k): lhs, then rhs, both
    reported as values.  It passes when agree(lhs, rhs) holds and so does the
    certificate nonneg(lhs, rhs, *point), if given, which the report holds as
    ``nonneg``; where reported, it also holds the agreement as ``oracle_agrees``."""

    def check(*point: int) -> dict:
        a = lhs(*point)
        b = rhs(*point)
        agrees = agree(a, b)
        report = {"n": point[0], "lhs": a, "rhs": b, "pass": agrees}
        if len(point) > 1:
            report["k"] = point[1]
        if reported:
            report["oracle_agrees"] = agrees
        if nonneg is not None:
            report["nonneg"] = positive = nonneg(a, b, *point)
            report["pass"] = agrees and positive
        return report

    return check


def _atoms_nonneg(exponents: list[tuple[int, int]]) -> bool:
    """The atom certificate of positivity: every exponent is nonnegative and
    every atom of a positive exponent has nonnegative coefficients."""
    return all(x >= 0 and (not x or lucas_atom(d).is_nonneg()) for d, x in exponents)


def _classical_line(report: dict) -> str:
    status = "ok" if report["pass"] else f"FAIL {report['first_failure']}"
    return f"classical n_max={report['n_max']} {status}"


# A verify row: at each n >= first it makes check(n, k) for every k in ks(n), or
# check(n) where ks is None; default is --n-max when neither --n-max nor --n is
# given; single is the (ks, check) of --n, where it is not the sweep's; text
# makes one line per report and no summary line: a target with its own line
# runs one cumulative check, whose check at n covers every n' <= n.
_Target = namedtuple("_Target", "default first ks check single text", defaults=(None, None))


# The routes call through the modules at run time, never through a reference
# taken here, so a wrapper installed on a module function sees every call.
_TARGETS = {
    # A sweep shares each row of tiling sums among its points and builds it a
    # step from the row before; --n fills only its own rectangle, one row at a time.
    "theorem1": _Target(16, 0, lambda n: range(0, n + 1), _two_routes(
        lambda n, k: tilings._tiling_row(n)[k], lambda n, k: lucanomial(n, k)),
        single=(lambda n: range(0, n + 1), _two_routes(
            lambda n, k: tilings.lucanomial_tiling_oracle(n, k), lambda n, k: lucanomial(n, k)))),
    "theorem2": _Target(25, 2, lambda n: range(1, n + 1), _two_routes(
        lambda n, k: narayana.fibonarayana_recurrence(n, k),
        lambda n, k: narayana.fibonarayana_definition_oracle(n, k),
        nonneg=lambda value, _, n, k: value > 0, reported=True),
        # Exhaustive realization of the identity at one (n, k) by pair
        # decomposition; it scans the F_{n-1}! stairsteps of size n-2 once
        # per column parameter, storing only the heads of each scan.
        single=(lambda n: range(1, n), lambda n, k: bijection.verify_pair_decomposition(n, k))),
    "theorem3": _Target(12, 2, lambda n: range(1, n + 1), _two_routes(
        lambda n, k: narayana.generalized_narayana_recurrence(n, k),
        lambda n, k: narayana.generalized_narayana_definition_oracle(n, k),
        nonneg=lambda value, _, n, k: (value.is_nonneg()
                                       and _atoms_nonneg(narayana._narayana_atom_exponents(n, k))),
        reported=True)),
    "bijection": _Target(6, 2, lambda n: range(1, n), lambda n, k: bijection.verify_cardinality(n, k)),
    "catalan": _Target(8, 0, None, _two_routes(
        lambda n: narayana.fibocatalan_definition_oracle(n),
        lambda n: narayana.generalized_catalan(n),
        agree=lambda value, poly: poly.evaluate(1, 1) == value,
        nonneg=lambda _, poly, n: (poly.is_nonneg()
                                   and _atoms_nonneg(narayana._catalan_atom_exponents(n))))),
    "classical": _Target(15, 1, None, lambda n: narayana.classical_specialization_report(n),
                         text=_classical_line),
}


def _run_verify(args, parser: argparse.ArgumentParser) -> int:
    target = _TARGETS[args.target]
    single = args.n is not None
    ks, check = target.single if single and target.single else (target.ks, target.check)
    if args.n_max is not None and args.n_max < 0:
        parser.error("--n-max must be nonnegative")
    if single and args.n_max is not None:
        parser.error("--n-max cannot be combined with --n")
    if args.k is not None and not single:
        parser.error("--k requires --n")
    if args.k is not None and ks is None:
        parser.error(f"--k does not apply to verify {args.target}")
    if single and args.n < 0:
        parser.error("--n must be nonnegative")
    n_max = target.default if args.n_max is None else args.n_max
    n = args.n if single else n_max
    ns = [n] if single or target.text else range(target.first, n + 1)
    points = ([(m,) for m in ns if m >= target.first] if ks is None
              else [(m, k) for m in ns for k in ks(m)])
    if not points:
        parser.error(f"verify {args.target} has no check at {'--n' if single else '--n-max'} {n}")
    if args.k is not None:
        if (n, args.k) not in points:
            parser.error(f"need {ks(n).start} <= --k <= {ks(n).stop - 1} at --n {n}")
        points = [(n, args.k)]
    checks = (check(*p) for p in points)
    return _emit_checks(args.target, checks, args.format, target.text)


def _run_bijection(args, parser: argparse.ArgumentParser) -> int:
    if not 1 <= args.k <= args.n - 1:
        parser.error("need 1 <= --k <= --n - 1")
    # Open whatever path is given, so a pipe such as /dev/stdin is input too.
    try:
        with open(args.input, encoding="utf-8") as file:
            text = file.read()
    except FileNotFoundError:
        parser.error(f"--input file not found: {args.input}")
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"--input cannot be read as UTF-8 text: {exc}")
    if args.action == "forward":
        try:
            tiling = bijection.StairstepTiling.from_text(text)
        except ShapeError as exc:
            parser.error(f"--input is not a valid stairstep fixture: {exc}")
        if tiling.size != args.n - 1:
            parser.error(f"--input has size {tiling.size}, expected {args.n - 1}")
        triple = bijection.forward(tiling, args.k)
        if args.format == "json":
            print(_dump(triple.to_json_dict()))
        else:
            print("small_stair:")
            for row in triple.small_stair.rows:
                print(row)
            print("other_stair:")
            for row in triple.other_stair.rows:
                print(row)
            print("rect:")
            print(_dump(triple.rect.to_json_dict()))
        return 0
    import json  # here, not at the top: only reading a triple needs it

    try:
        triple = bijection.TilingTriple.from_json_dict(json.loads(text))
        tiling = bijection.inverse(triple, args.n, args.k)
    except (json.JSONDecodeError, ValueError, ShapeError, RecursionError) as exc:
        parser.error(f"--input is not an invertible triple for (n={args.n}, k={args.k}): {exc}")
    if args.format == "json":
        print(_dump({"rows": list(tiling.rows)}))
    else:
        print(tiling.to_text())
    return 0


def _dispatch(args, parser: argparse.ArgumentParser) -> int:
    if args.command in _VALUES:
        value = _VALUES[args.command]
        if args.n < value.least_n:
            parser.error(f"--n must be {'positive' if value.least_n else 'nonnegative'}")
        _emit(value.modes[getattr(args, "mode", None)](args), args.format)
        return 0
    if args.command == "tilings":
        if not 0 <= args.k <= args.n:
            parser.error("need 0 <= --k <= --n")
        if args.action == "count":
            _emit(tilings._rectangle_sum(args.n, args.k, _INT), args.format)
        else:
            items = (rt.to_json_dict() for rt in tilings.enumerate_rect_tilings(args.n, args.k))
            if args.format == "json":
                print(_dump(list(items)))
            else:
                for item in items:
                    print(_dump(item))
        return 0
    if args.command == "bijection":
        return _run_bijection(args, parser)
    return _run_verify(args, parser)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _dispatch(args, parser)


def entry() -> None:
    """Run :func:`main` on ``sys.argv`` and exit with its status.

    The entry point of the ``lucanomials`` script and of ``python -m
    lucanomials.cli``.  A reader that closes stdout early ends the run with
    status 1 and no traceback.
    """
    try:
        code = main()
        sys.stdout.flush()  # an early-closed reader fails this flush here, not at shutdown
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at devnull so
        # that flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
