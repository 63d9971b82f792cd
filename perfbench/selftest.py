"""Fast self-test of the benchmark harness on tiny inputs (about 10 s).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that a plain run prints every end-to-end metric of BENCHMARK.json
and a traced run every per-layer metric, each with its unit; that correct
outputs count as passes and traced outputs match untraced ones; that a
corrupted expected digest is counted as a failure; and that a wrong probe
answer is reported without counting as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads
from record_expected import evaluate

COMMANDS = {
    ("lucanomial", "--n", "6", "--k", "3"): "s^9 + 8*s^7*t + 22*s^5*t^2 + 23*s^3*t^3 + 6*s*t^4\n",
    ("fibonomial", "--n", "6", "--k", "3"): "60\n",
    ("catalan", "--n", "3", "--mode", "general"): None,  # checked at (s, t) = (2, -1)
    ("tilings", "count", "--n", "5", "--k", "2"): "15\n",
    ("verify", "bijection", "--n", "4", "--k", "2"): "bijection n=4 k=2 ok\nbijection: 1 checks passed\n",
    ("verify", "theorem1", "--n-max", "3"): None,
}


def expected_table() -> dict:
    table = {}
    for argv, stdout in COMMANDS.items():
        if stdout is None:  # derive from the CLI, then check independently
            result = run.run_child([sys.executable, "-m", "lucanomials.cli", *argv],
                                   run.child_env(), time.perf_counter() + run.RUN_LIMIT_S)
            stdout = result["stdout"].decode()
            if argv[0] == "catalan":
                require(evaluate(stdout, 2, -1) == 5, "catalan 3 at (2, -1) is 5")
            else:
                require(stdout.endswith("theorem1: 10 checks passed\n"), "theorem1 verdict")
        table[" ".join(argv)] = {"exit": 0, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return table


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def check_metrics(result: dict, declared: list[dict]) -> None:
    wanted = {m["name"]: m["unit"] for m in declared}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    require(got == wanted, f"metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}")
    for name, metric in result["metrics"].items():
        require(isinstance(metric["value"], (int, float)), f"{name} is not a number")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    commands = [list(argv) for argv in COMMANDS]
    expected = expected_table()
    probe = [["fibonomial", "--n", "30", "--k", "1"]]  # F_30 = 832040, answered correctly

    result, _ = run.benchmark(commands, expected, 0, False, [])
    require(result["correct"] and result["failed"] == 0, f"plain run failed: {result}")
    require(result["attempted"] == len(commands), "one pass attempted")
    check_metrics(result, declared["end_to_end"])
    require(set(run.END_TO_END) == {m["name"] for m in declared["end_to_end"]}, "end_to_end")

    result, report = run.benchmark(commands, expected, 0, True, probe)
    require(result["correct"] and result["failed"] == 0, f"traced run failed: {report}")
    check_metrics(result, declared["per_layer"])
    require(result["metrics"]["probes.failed"]["value"] == 0, "probe answered correctly")
    require(result["metrics"]["polys.mul.calls"]["value"] > 0, "polys.mul traced")
    require(result["metrics"]["bijection.forward.calls"]["value"] > 0, "forward traced")
    require(result["metrics"]["tilings.oracle.calls"]["value"] > 0, "oracle traced")

    corrupted = dict(expected)
    key = " ".join(commands[1])
    corrupted[key] = {"exit": 0, "sha256": hashlib.sha256(b"61\n").hexdigest()}
    result, report = run.benchmark(commands, corrupted, 0, False, [])
    require(not result["correct"] and result["failed"] == 1, f"corruption not caught: {result}")
    require(any(key in line for line in report), "mismatch reported")

    require(workloads.probe_expected_stdout(probe[0]) == b"832040\n", "F_30 by iteration")
    require(workloads.probe_expected_stdout(["fibonomial", "--n", "6", "--k", "3"]) == b"60\n",
            "fibonomial(6, 3) with ints")
    correct_answer = workloads.probe_expected_stdout
    workloads.probe_expected_stdout = lambda argv: b"832041\n"
    try:
        result, report = run.benchmark(commands[:1], expected, 0, True, probe)
    finally:
        workloads.probe_expected_stdout = correct_answer
    require(result["correct"] and result["failed"] == 0, "a wrong probe answer is not a failure")
    require(result["metrics"]["probes.failed"]["value"] == 1, "a wrong probe answer is counted")
    require(any(line.startswith("probe ") and "FAIL" in line for line in report), "probe reported")

    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
