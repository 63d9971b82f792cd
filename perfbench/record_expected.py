"""Record the expected exit code and stdout digest of every workload command.

Usage, from the repository root:

    python3 perfbench/record_expected.py

Runs every command any seed can choose (see ``workloads.BANDS``) through the
CLI and writes ``expected.json``.  Before a digest is recorded the output is
checked by routes that do not use the library: integer outputs against
F_n!/(F_k! F_{n-k}!) computed here, polynomial outputs by evaluating the
rendered text at (s, t) = (1, 1) and (2, -1), where lucanomials become
fibonomials and binomials, tiling lists by counting distinct lines, and
verifiers by their exit code and verdict line.  Re-record only when a change
is meant to alter CLI output, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from math import comb

import run
import workloads

_TERM = re.compile(r"^(?:(\d+))?\*?(?:s(?:\^(\d+))?)?\*?(?:t(?:\^(\d+))?)?$")


def evaluate(text: str, s: int, t: int) -> int:
    """Value of a rendered polynomial (``3*s^2*t - t^4``) at (s, t)."""
    total = 0
    for sign, body in re.findall(r"(^-?|[+-] )([^ ]+)", text.strip()):
        match = _TERM.match(body)
        if match is None:
            raise ValueError(f"unparsable term {body!r}")
        coeff, s_exp, t_exp = match.groups()
        s_power = int(s_exp) if s_exp else int("s" in body)
        t_power = int(t_exp) if t_exp else int("t" in body)
        value = int(coeff or 1) * s**s_power * t**t_power
        total += -value if sign.strip() == "-" else value
    return total


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def check(argv: list[str], exit_code: int, stdout: str) -> None:
    """Raise unless the output is right by an independent route."""
    opts = {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    n = int(opts.get("n", 0))
    k = int(opts.get("k", 0))
    _require(exit_code == 0, f"exit code {exit_code}")
    command = argv[0]
    if command == "fibonomial" or argv[:2] == ["tilings", "count"]:
        _require(stdout == f"{workloads.fibonomial_value(n, k)}\n", "value")
    elif command == "lucanomial":
        _require(evaluate(stdout, 1, 1) == workloads.fibonomial_value(n, k), "at s=t=1")
        _require(evaluate(stdout, 2, -1) == comb(n, k), "at s=2, t=-1")
    elif command == "catalan":
        _require(evaluate(stdout, 1, 1) * workloads.fibonacci(n + 1) == workloads.fibonomial_value(2 * n, n),
                 "at s=t=1")
        _require(evaluate(stdout, 2, -1) == comb(2 * n, n) // (n + 1), "at s=2, t=-1")
    elif command == "narayana":
        fib_product = workloads.fibonomial_value(n, k) * workloads.fibonomial_value(n, k - 1)
        _require(evaluate(stdout, 1, 1) * workloads.fibonacci(n) == fib_product, "at s=t=1")
        _require(evaluate(stdout, 2, -1) * n == comb(n, k) * comb(n, k - 1), "at s=2, t=-1")
    elif argv[:2] == ["tilings", "list"]:
        lines = stdout.splitlines()
        _require(len(set(lines)) == len(lines) == workloads.fibonomial_value(n, k),
                 "distinct tilings")
        _require(all("lambda" in json.loads(line) for line in lines), "tiling JSON")
    elif command == "verify":
        last = stdout.splitlines()[-1]
        _require(last.endswith(" checks passed") or last.endswith(" ok"), last)
    else:
        raise AssertionError(f"no independent check for {argv}")


def main() -> int:
    env = run.child_env()
    expected = {}
    for argv in workloads.all_commands():
        result = run.run_child([sys.executable, "-m", "lucanomials.cli", *argv], env,
                               time.perf_counter() + run.RUN_LIMIT_S)
        check(argv, result["exit"], result["stdout"].decode())
        expected[" ".join(argv)] = {
            "exit": result["exit"],
            "sha256": hashlib.sha256(result["stdout"]).hexdigest(),
            "stdout_bytes": len(result["stdout"]),
        }
        print(f"{' '.join(argv)}: {len(result['stdout'])} bytes, {result['wall_s']:.2f} s",
              flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
