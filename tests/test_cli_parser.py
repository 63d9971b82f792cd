"""The CLI's table-driven parser against argparse, its reference grammar.

``build_parser`` below is the argparse parser the CLI was built on.  Over
every argument list written in tests/test_cli.py, every command of the
benchmark bands and a Hypothesis corpus, the table parser accepts exactly the
lists argparse accepts, with the same values; prints help wherever argparse
prints help; and rejects every other list with exit 2, empty stdout and
argparse's error line, which names the offending token.
"""

import argparse
import ast
import importlib.util
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucanomials
from lucanomials import cli

ROOT = Path(__file__).resolve().parents[1]

# The grammar is pinned to argparse as Python 3.10 and 3.11 read it; later
# versions changed how argparse reads '--' and abbreviations.
AGAINST_ARGPARSE = pytest.mark.skipif(sys.version_info >= (3, 12),
                                      reason="the reference grammar is argparse of Python 3.10-3.11")


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

    for name, value in cli._VALUES.items():
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
    p.add_argument("target", choices=tuple(cli._TARGETS))
    p.add_argument("--n-max", type=int, default=None,
                   help="sweep bound (defaults per target)")
    p.add_argument("--n", type=int, default=None, help="check a single n")
    p.add_argument("--k", type=int, default=None, help="check a single k")
    return parser


REFERENCE = build_parser()


def outcome(parse, argv: list[str]) -> tuple:
    """("args", vars), ("help", command or None) or ("error", error line), and
    the exit code and stdout of the parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
        else:
            return ("args", vars(args)), (0, out.getvalue())
    if code == 0:
        # "usage: lucanomials [<command>] [-h] ...": whose help this is.
        prog = out.getvalue().split("[-h]")[0].split()[1:]
        return ("help", prog[1] if len(prog) > 1 else None), (0, out.getvalue())
    return ("error", err.getvalue().splitlines()[-1]), (code, out.getvalue())


def assert_same(argv: list[str]) -> None:
    expected, _ = outcome(REFERENCE.parse_args, argv)
    got, (code, out) = outcome(lambda a: cli._parse(a)[0], argv)
    assert got == expected, argv
    if got[0] == "error":
        assert (code, out) == (2, ""), argv
    if got[0] == "help":
        assert out == cli._Parser(got[1]).help(), argv


def written_argvs() -> list[list[str]]:
    """Every argument list spelled out in tests/test_cli.py: each tuple, list
    or run(capsys, ...) call that starts with a command name, with 4 in
    place of every element that is not a string literal and without its
    starred elements; a tuple that starts with a verify target is run after
    ``verify``."""
    found = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text())):
        if isinstance(node, (ast.Tuple, ast.List)):
            items = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            items = node.args[1:]
        else:
            continue
        argv = [item.value if isinstance(item, ast.Constant) and isinstance(item.value, str) else "4"
                for item in items if not isinstance(item, ast.Starred)]
        if argv and argv[0] in cli._TARGETS:
            argv.insert(0, "verify")
        if argv and argv[0] in cli._COMMANDS:
            found.append(tuple(argv))
    return [list(argv) for argv in dict.fromkeys(found)]


def benchmark_argvs() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.all_commands()


def test_written_corpus_is_large():
    assert len(written_argvs()) > 90
    assert len(benchmark_argvs()) > 20


@AGAINST_ARGPARSE
@pytest.mark.parametrize("argv", written_argvs() + benchmark_argvs(), ids=" ".join)
def test_written_argument_lists(argv):
    assert_same(argv)


@AGAINST_ARGPARSE
@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h", "lucas"],
        ["--format", "json", "lucas", "--n", "4"],
        ["lucas", "--n", "-1"],
        ["lucas", "--n", "1" * 5000],
        ["lucas", "--n=4", "--fo=json"],
        ["lucas", "--n", "3", "--n", "5"],
        ["verify", "--n", "3", "theorem2", "--k", "1"],
        ["verify", "theorem1", "--"],
        ["verify", "--", "theorem1"],
        ["verify", "--", "--"],
        ["--", "lucas", "--n", "4"],
        ["lucas", "--", "--n", "4"],
        ["lucas", "--n", "--", "4"],
        ["lucas", "--n=", "4"],
        ["lucas", "-hh"],
        ["lucas", "-hx"],
        ["lucas", "--he=x"],
        ["lucas", "--=4"],
        ["-x", "lucas", "--n", "4"],
        ["lucas", "--n", "4", "-x", "-5x", "- 5", "-.5"],
        ["lucas", "--n", "-5 "],
        ["tilings", "count", "list", "--n", "4", "--k", "2"],
        ["narayana", "--mode"],
        ["", "lucas"],
        ["-"],
        ["--"],
        ["--", "--"],
        ["-x"],
        ["-x", "lucas", "--n", "4", "-y"],
        ["-h", "-x"],
    ],
    ids=lambda argv: repr(argv)[:60],
)
def test_corner_cases(argv):
    # Among them: a leading --format is a usage error, a negative --n
    # reaches the range check, the 5000-digit --n is an int() error, the
    # last of a repeated flag wins, a leading '--' is the command's name, and
    # the top level's unrecognized tokens come before the command's.
    assert_same(argv)


COMMANDS = list(cli._COMMANDS)
TOKENS = (
    COMMANDS
    + ["count", "list", "forward", "inverse", *cli._TARGETS]
    + ["--n", "--k", "--n-max", "--mode", "--format", "--input", "--help", "-h"]
    + ["--n=3", "--n=-2", "--k=1", "--k=x", "--n-max=4", "--mode=general", "--mode=",
       "--format=json", "--format=xml", "--input=f", "--help=1"]
    + ["--n-", "--n-m", "--m", "--mo=fibo", "--f", "--form", "--i", "--in=f", "--h", "--hel"]
    + ["--", "0", "1", "3", "-1", "-4", "word", "json", "general", "classical"]
)


@AGAINST_ARGPARSE
@settings(max_examples=1500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=8),
                 st.builds(lambda command, rest: [command, *rest],
                           st.sampled_from(COMMANDS), st.lists(st.sampled_from(TOKENS), max_size=8))))
def test_token_corpus(argv):
    assert_same(argv)


def fresh(*args: str, columns: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(Path(lucanomials.__file__).resolve().parent.parent), COLUMNS=columns)
    return subprocess.run([sys.executable, "-S", "-m", "lucanomials.cli", *args], env=env,
                          capture_output=True, timeout=60)


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_is_fixed_text(command):
    argv = ["--help"] if command is None else [command, "--help"]
    narrow, wide = fresh(*argv, columns="40"), fresh(*argv, columns="200")
    assert (narrow.returncode, wide.returncode) == (0, 0)
    assert narrow.stdout == wide.stdout == cli._Parser(command).help().encode()
    assert narrow.stderr == wide.stderr == b""


def test_help_names_every_command_flag_and_choice():
    top = cli._Parser().help()
    assert all(name in top for name in COMMANDS)
    for name, command in cli._COMMANDS.items():
        text = cli._Parser(name).help()
        words = ["-h", "--help", "--format", "text", "json"]
        for argument in command.arguments:
            words += [argument.name] if argument.name[0] == "-" else []
            words += argument.value if isinstance(argument.value, tuple) else []
        assert all(word in text for word in words), name


def test_error_writes_usage_and_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli._Parser("tilings").error("need 0 <= --k <= --n")
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "usage: lucanomials tilings [-h] [--format {text,json}] --n N --k K\n"
        "                           {count,list}\n"
        "lucanomials tilings: error: need 0 <= --k <= --n\n"
    )
