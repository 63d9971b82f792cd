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

The command line is read from the same tables: :data:`_COMMANDS` gives each
command's positional and flags, and :class:`_Parser` reads an argument list
as argparse read this grammar (``--n 4`` or ``--n=4``, unique prefixes of
long flags, flags before or after the positional, the last of a repeated
flag winning, negative numbers as values).  The top level is one more
grammar, whose positional is the command: the command's grammar reads every
token after it, so one walk reads both levels.  It renders ``--help`` as
fixed text, whatever the terminal's width, and the usage line of every error.
"""

from __future__ import annotations

import operator
import os
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from types import SimpleNamespace

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
    where = f"n={c['n']} k={c['k']}" if "k" in c else f"n={c['n']}"
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


# An argument: a flag (--name) or a positional (a name without dashes), its
# value (int, a tuple of choices, or the metavar of a string), whether it is
# required, its default and its help.
_Arg = namedtuple("_Arg", "name value required default help", defaults=(False, None, ""))

# A command: its help and its arguments after --format, the positional (if
# any) first; their order is the order of a "required" error.
_Command = namedtuple("_Command", "help arguments")

_FORMAT = _Arg("--format", ("text", "json"), default="text", help="output format (default: text)")
_N = _Arg("--n", int, True)
_K = _Arg("--k", int, True)


def _value_command(value: _Value) -> _Command:
    arguments = (_N, _K) if value.takes_k else (_N,)
    if None not in value.modes:
        arguments += (_Arg("--mode", tuple(value.modes), default="fibo", help="which analogue (default: fibo)"),)
    return _Command(value.help, arguments)


_COMMANDS = {name: _value_command(value) for name, value in _VALUES.items()} | {
    "tilings": _Command("rectangle tilings of k x (n-k)", (_Arg("action", ("count", "list"), True), _N, _K)),
    "bijection": _Command("apply the stairstep bijection", (
        _Arg("action", ("forward", "inverse"), True), _N, _K,
        _Arg("--input", "FILE", True, help="stairstep rows (forward) or triple JSON (inverse)"))),
    "verify": _Command("run an exhaustive verifier", (
        _Arg("target", tuple(_TARGETS), True),
        _Arg("--n-max", int, help="sweep bound (defaults per target)"),
        _Arg("--n", int, help="check a single n"),
        _Arg("--k", int, help="check a single k"))),
}

_DESCRIPTION = """\
Exact Lucas polynomials, lucanomial and fibonomial coefficients, Narayana and
Catalan analogues, rectangle tilings, and the stairstep bijection.
"""

_WIDTH = 78  # of the usage line; help is fixed text, whatever the terminal


def _dest(argument: _Arg) -> str:
    return argument.name.lstrip("-").replace("-", "_")


def _meta(argument: _Arg) -> str:
    """How an argument's value is shown: {a,b} for choices, else its metavar."""
    if argument.value is int:
        return _dest(argument).upper()
    return "{" + ",".join(argument.value) + "}" if isinstance(argument.value, tuple) else argument.value


def _rows(title: str, rows: list[tuple[str, str]]) -> str:
    """A help section: each entry with its help from column 24, or on the next line."""
    lines = [f"{title}:"]
    for left, right in rows:
        left = f"  {left}"
        if len(left) > 22 and right:
            lines += [left, " " * 24 + right]
        else:
            lines.append(f"{left:<24}{right}".rstrip())
    return "\n".join(lines) + "\n"


class _Parser:
    """The grammar of one command, or of the top level (command None), read
    from :data:`_COMMANDS`.  It reads an argument list as argparse did and
    renders the help and the usage line of every error."""

    def __init__(self, command: str | None = None):
        self.command = command
        if command is None:
            self.prog, arguments = "lucanomials", (_Arg("command", tuple(_COMMANDS), True),)
        else:
            self.prog, arguments = f"lucanomials {command}", (_FORMAT, *_COMMANDS[command].arguments)
        self.arguments = arguments
        self.options = {"-h": None, "--help": None} | {a.name: a for a in arguments if a.name[0] == "-"}
        self.positional = next((a for a in arguments if a.name[0] != "-"), None)

    def error(self, message: str) -> None:
        sys.stderr.write(f"{self.usage()}{self.prog}: error: {message}\n")
        sys.exit(2)

    def usage(self) -> str:
        parts = ["[-h]"]
        for flag in self.options.values():
            if flag is not None:
                used = f"{flag.name} {_meta(flag)}"
                parts.append(used if flag.required else f"[{used}]")
        if self.positional is not None:
            parts.append(_meta(self.positional))
        if self.command is None:
            parts.append("...")
        indent = " " * len(f"usage: {self.prog}")
        lines = [f"usage: {self.prog}"]
        for part in parts:
            if len(lines[-1]) + 1 + len(part) > _WIDTH and lines[-1] != indent:
                lines.append(indent)
            lines[-1] += " " + part
        return "\n".join(lines) + "\n"

    def help(self) -> str:
        if self.command is None:
            sections = [_DESCRIPTION, _rows("commands", [(name, c.help) for name, c in _COMMANDS.items()])]
        else:
            sections = [_COMMANDS[self.command].help + "\n"]
            if self.positional is not None:
                sections.append(_rows("positional arguments", [(_meta(self.positional), "")]))
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"{flag.name} {_meta(flag)}", flag.help) for flag in self.options.values() if flag]
        sections.append(_rows("options", rows))
        return "\n".join([self.usage(), *sections])

    def show_help(self, name: str, attached: str | None) -> None:
        """-h or --help: print the help and exit 0.  A value attached to --help
        is an error; one attached to -h must be more h's (-hh is -h -h)."""
        if attached is not None:
            left = attached.lstrip("h") if name == "-h" else attached
            if name == "--help" or left or not attached:
                self.error(f"argument -h/--help: ignored explicit argument {left!r}")
        sys.stdout.write(self.help())
        sys.exit(0)

    def read(self, arg: str) -> tuple[str | None, str | None] | None:
        """One token before any ``--``: None for a value, else (option string,
        attached value), the option None when this grammar has no such option.
        Long options may be abbreviated to a unique prefix."""
        if arg in self.options:
            return arg, None
        if not arg.startswith("-") or len(arg) == 1:
            return None
        name, eq, attached = arg.partition("=")
        if eq and name in self.options:
            return name, attached
        if arg[1] == "-":
            found = [(option, attached if eq else None) for option in self.options if option.startswith(name)]
        else:
            found = [(option, arg[2:]) for option in self.options if option == arg[:2]]
        if len(found) > 1:
            self.error(f"ambiguous option: {arg} could match {', '.join(option for option, _ in found)}")
        if found:
            return found[0]
        # A negative number or a token with a space is a value (compiled on first use).
        return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)

    def convert(self, argument: _Arg, text: str) -> int | str:
        if argument.value is int:
            try:
                return int(text)
            except ValueError:
                self.error(f"argument {argument.name}: invalid int value: {text!r}")
        if isinstance(argument.value, tuple) and text not in argument.value:
            choices = ", ".join(map(repr, argument.value))
            self.error(f"argument {argument.name}: invalid choice: {text!r} (choose from {choices})")
        return text

    def parse(self, argv: list[str]) -> tuple[_Parser, dict, list[str]]:
        """The grammar that read the command, its values, and the tokens
        neither level takes; every token after the first ``--`` is a value."""
        cut = argv.index("--") if "--" in argv else len(argv)
        kinds = [self.read(arg) for arg in argv[:cut]]
        kinds += ["--"] * (cut < len(argv)) + [None] * (len(argv) - cut - 1)
        values = {_dest(argument): argument.default for argument in self.arguments}
        positional, extras = self.positional, []
        i = 0
        while i < len(argv):
            kind = kinds[i]
            if kind is None or kind == "--":
                # The positional takes one value, with the '--' just before or after it.
                start = i + (kind == "--")
                if positional is None or start == len(argv):
                    extras.append(argv[i])
                    i += 1
                    continue
                if self.command is None:
                    # The command's grammar reads every token after it, even a leading '--' as its name.
                    parser, values, more = _Parser(self.convert(positional, argv[i])).parse(argv[i + 1:])
                    return parser, values, extras + more
                values[positional.name] = self.convert(positional, argv[start])
                positional = None
                i = start + 1 + (start + 1 < len(argv) and kinds[start + 1] == "--")
                continue
            name, attached = kind
            if name is None:
                extras.append(argv[i])
            elif self.options[name] is None:
                self.show_help(name, attached)
            else:
                if attached is None:
                    if i + 1 == len(argv) or kinds[i + 1] is not None:
                        self.error(f"argument {name}: expected one argument")
                    i += 1
                    attached = argv[i]
                values[_dest(self.options[name])] = self.convert(self.options[name], attached)
            i += 1
        # A given value is never None, so None marks an argument not given.
        missing = [a.name for a in self.arguments if a.required and values[_dest(a)] is None]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}")
        return self, values, extras


def _parse(argv: list[str]) -> tuple[SimpleNamespace, _Parser]:
    """The arguments of a command line, read as argparse did, and the
    grammar of its command, whose ``error`` reports a usage error."""
    top = _Parser()
    parser, values, extras = top.parse(argv)
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=parser.command, **values), parser


def _run_verify(args, parser: _Parser) -> int:
    target = _TARGETS[args.target]
    single = args.n is not None
    ks, check = target.single if single and target.single else (target.ks, target.check)
    if single and args.n_max is not None:
        parser.error("--n-max cannot be combined with --n")
    if args.k is not None and not single:
        parser.error("--k requires --n")
    if args.k is not None and ks is None:
        parser.error(f"--k does not apply to verify {args.target}")
    n_max = target.default if args.n_max is None else args.n_max
    n = args.n if single else n_max
    ns = [m for m in ([n] if single or target.text else range(target.first, n + 1))
          if m >= target.first]
    points = [(m,) for m in ns] if ks is None else [(m, k) for m in ns for k in ks(m)]
    if not points:
        parser.error(f"verify {args.target} has no check at {'--n' if single else '--n-max'} {n}")
    if args.k is not None:
        if (n, args.k) not in points:
            parser.error(f"need {ks(n).start} <= --k <= {ks(n).stop - 1} at --n {n}")
        points = [(n, args.k)]
    checks = (check(*p) for p in points)
    return _emit_checks(args.target, checks, args.format, target.text)


def _run_bijection(args, parser: _Parser) -> int:
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
    except (ValueError, RecursionError) as exc:
        parser.error(f"--input is not an invertible triple for (n={args.n}, k={args.k}): {exc}")
    if args.format == "json":
        print(_dump({"rows": list(tiling.rows)}))
    else:
        print(tiling.to_text())
    return 0


def _dispatch(args, parser: _Parser) -> int:
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
    args, parser = _parse(sys.argv[1:] if argv is None else list(argv))
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
