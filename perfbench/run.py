"""Closed-loop benchmark of the lucanomials command-line interface.

Usage, from the repository root:

    python3 perfbench/run.py --workload big_query --seed 0 --seconds 30 --trace 0

One client runs one child process at a time.  A pass runs each command of
the workload once, each in a fresh interpreter with cold memo caches, as a
CLI user pays it; passes repeat until ``--seconds`` have elapsed and the
end-to-end metrics are medians over passes.  Times are scaled to a fixed
machine speed (see ``speed_reference``).  Every command's exit code and
stdout digest are checked against ``expected.json``.

With ``--trace 1`` the run alternates untraced passes with traced ones, in
which ``trace_child.py`` wraps the library's entry points, and reports the
per-layer metrics instead.  The traced commands must reproduce the untraced
exit codes and digests.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines above it are a
human-readable report.  See DESIGN.md for the reasons behind each choice.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_CHILD = HERE / "trace_child.py"

# Set-up samples taken before each plain pass, so that they spread over the
# run like the passes do instead of landing in one burst of machine speed.
SETUP_PER_PASS = 3
# Time of speed_reference() on an idle core of the reference machine (2-core
# x86-64 VM, Python 3.11); command times are scaled to this speed.
REFERENCE_S = 0.025
# Every run must end within 180 s; no child may run past this point.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_cmd_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, key in the flattened trace of one pass).  A span
# ``x`` yields ``x.calls``, ``x.self_s`` and ``x.s`` (inclusive time).
PER_LAYER = {
    "polys.mul.calls": ("count", "polys.mul.calls"),
    "polys.mul.self_s": ("s", "polys.mul.self_s"),
    "polys.mul.term_pairs": ("count", "polys.mul.term_pairs"),
    "polys.add.calls": ("count", "polys.add.calls"),
    "polys.add.self_s": ("s", "polys.add.self_s"),
    "polys.divide_exact.calls": ("count", "polys.divide_exact.calls"),
    "polys.divide_exact.self_s": ("s", "polys.divide_exact.self_s"),
    "polys.render.calls": ("count", "polys.render.calls"),
    "polys.render.self_s": ("s", "polys.render.self_s"),
    "lucas.lucanomial.calls": ("count", "lucas.lucanomial.calls"),
    "lucas.lucanomial.distinct": ("count", "lucas.lucanomial.distinct"),
    "lucas.lucanomial.reuse": ("ratio", "lucas.lucanomial.reuse"),
    "lucas.lucanomial.self_s": ("s", "lucas.lucanomial.self_s"),
    "lucas.fibonomial.calls": ("count", "lucas.fibonomial.calls"),
    "lucas.fibonomial.self_s": ("s", "lucas.fibonomial.self_s"),
    "lucas.lucas.calls": ("count", "lucas.lucas.calls"),
    "tilings.oracle.calls": ("count", "tilings.oracle.calls"),
    "tilings.oracle.self_s": ("s", "tilings.oracle.self_s"),
    "tilings.partitions.items": ("count", "tilings.partitions.items"),
    "tilings.star.calls": ("count", "tilings.star.calls"),
    "tilings.star.self_s": ("s", "tilings.star.self_s"),
    "tilings.enumerate_rect.items": ("count", "tilings.enumerate_rect.items"),
    "tilings.enumerate_rect.s": ("s", "tilings.enumerate_rect.s"),
    "tilings.rect_tiling.inits": ("count", "tilings.rect_tiling.calls"),
    "tilings.covered_length.calls": ("count", "tilings.covered_length.calls"),
    "tilings.covered_length.self_s": ("s", "tilings.covered_length.self_s"),
    "tilings.split_after.calls": ("count", "tilings.split_after.calls"),
    "bijection.forward.calls": ("count", "bijection.forward.calls"),
    "bijection.forward.self_s": ("s", "bijection.forward.self_s"),
    "bijection.stairstep.items": ("count", "bijection.stairstep.items"),
    "bijection.stairstep_tiling.inits": ("count", "bijection.stairstep_tiling.calls"),
    "bijection.decompose_pair.self_s": ("s", "bijection.decompose_pair.self_s"),
    "bijection.verify_cardinality.self_s": ("s", "bijection.verify_cardinality.self_s"),
    "bijection.verify_pair_decomposition.self_s": (
        "s", "bijection.verify_pair_decomposition.self_s"),
    "narayana.generalized_narayana.self_s": ("s", "narayana.generalized_narayana.self_s"),
    "narayana.gn_oracle.self_s": ("s", "narayana.gn_oracle.self_s"),
    "narayana.generalized_catalan.self_s": ("s", "narayana.generalized_catalan.self_s"),
    "narayana.classical_report.self_s": ("s", "narayana.classical_report.self_s"),
    "cli.main.s": ("s", "cli.main.s"),
    "cli.self_s": ("s", "cli.main.self_s"),
    "cli.stdout_bytes": ("bytes", "cli.stdout_bytes"),
    "trace.overhead_frac": ("ratio", "trace.overhead_frac"),
    "probes.failed": ("count", "probes.failed"),
}


def child_env() -> dict[str, str]:
    """Identical settings for every child: fixed hash seed, nothing inherited
    that changes the interpreter (no PYTHON* variables, so no -X options)."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
    }


def speed_reference() -> float:
    """Time a fixed kernel of big-int dict products and string scans.

    The machine's speed swings by up to 1.7x within seconds when other
    tenants load the host, which swamps a 25 % regression in raw wall time.
    The harness times this kernel, which no change to the program can
    affect, on the same core right before and after each command, and scales
    the command's times by REFERENCE_S over the mean of the two.
    """
    start = time.perf_counter()
    terms = {(i, j): (i + 1) * 10**30 + j for i in range(32) for j in range(8)}
    product: dict[tuple[int, int], int] = {}
    for (sa, ta), ca in terms.items():
        for (sb, tb), cb in terms.items():
            key = (sa + sb, ta + tb)
            product[key] = product.get(key, 0) + ca * cb
    cells = 0
    for i in range(6000):
        for ch in "SD" * 5 + "S" * (i % 7):
            cells += 1 if ch == "S" else 2
    return time.perf_counter() - start


def pin_to_one_core() -> None:
    """Run the harness, the reference kernel and every child on one core, so
    the reference sees the same contention as the command it scales."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run one child to completion; CPU and RSS come from its own wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out: list[bytes] = []
    err: list[bytes] = []
    timed_out = False
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ, out)
        selector.register(proc.stderr, selectors.EVENT_READ, err)
        while selector.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    key.data.append(chunk)
                else:
                    selector.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": None if timed_out else proc.returncode,
        "stdout": b"".join(out),
        "stderr": b"".join(err),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def run_command(cli_args: list[str], env: dict[str, str], traced: bool, deadline: float) -> dict:
    """One CLI command, plain or traced, reduced to exit code and digest."""
    if traced:
        child = run_child([sys.executable, str(TRACE_CHILD), *cli_args], env, deadline)
        try:
            trace = json.loads(child["stdout"].splitlines()[-1]) if child["exit"] == 0 else None
        except (IndexError, ValueError):
            trace = None
        if trace is None:  # the tracer itself failed; counted as a failure
            trace = {"exit": None, "sha256": None, "stdout_bytes": 0, "edges": [], "counts": {}}
        exit_code, digest = trace["exit"], trace["sha256"]
    else:
        child = run_child([sys.executable, "-m", "lucanomials.cli", *cli_args], env, deadline)
        trace = None
        exit_code, digest = child["exit"], hashlib.sha256(child["stdout"]).hexdigest()
    stderr_lines = child["stderr"].decode(errors="replace").strip().splitlines()
    return {
        "argv": cli_args,
        "exit": exit_code,
        "sha256": digest,
        "wall_s": child["wall_s"],
        "cpu_s": child["cpu_s"],
        "rss_kb": child["rss_kb"],
        "stderr_tail": stderr_lines[-1] if stderr_lines else "",
        "trace": trace,
    }


def run_pass(commands: list[list[str]], env: dict[str, str], traced: bool, deadline: float) -> dict:
    """Run each command once; each result gets the ``scale`` of its times."""
    results = []
    before = speed_reference()
    for argv in commands:
        result = run_command(argv, env, traced, deadline)
        after = speed_reference()
        result["scale"] = 2 * REFERENCE_S / (before + after)
        results.append(result)
        before = after
    return {
        "wall_s": sum(r["wall_s"] * r["scale"] for r in results),
        "cpu_s": sum(r["cpu_s"] * r["scale"] for r in results),
        "raw_wall_s": sum(r["wall_s"] for r in results),
        "results": results,
    }


def setup_samples(env: dict[str, str], deadline: float, count: int) -> list[float]:
    """Scaled wall times of ``count`` fresh interpreters importing the CLI."""
    argv = [sys.executable, "-c", "import lucanomials.cli"]
    samples = []
    before = speed_reference()
    for _ in range(count):
        child = run_child(argv, env, deadline)
        if child["exit"] != 0:
            raise RuntimeError(f"importing lucanomials.cli failed: {child['stderr'].decode()}")
        after = speed_reference()
        samples.append(child["wall_s"] * 2 * REFERENCE_S / (before + after))
        before = after
    return samples


def matches(result: dict, expected: dict | None) -> bool:
    return (expected is not None and result["exit"] == expected["exit"]
            and result["sha256"] == expected["sha256"])


def flatten_trace(pass_: dict) -> dict[str, float]:
    """Sum the span aggregates of one traced pass into flat per-layer keys.

    Span times are scaled like the command that contains them.
    """
    flat: Counter = Counter()
    for result in pass_["results"]:
        trace, scale = result["trace"], result["scale"]
        for parent, name, calls, total, self_time in trace["edges"]:
            flat[f"{name}.calls"] += calls
            flat[f"{name}.self_s"] += self_time * scale
            if parent != name:  # inclusive time of the outermost recursive call only
                flat[f"{name}.s"] += total * scale
        flat.update(trace["counts"])
        flat["cli.stdout_bytes"] += trace["stdout_bytes"]
    calls = flat["lucas.lucanomial.calls"]
    flat["lucas.lucanomial.reuse"] = 1 - flat["lucas.lucanomial.distinct"] / calls if calls else 0.0
    return flat


def top_edges(pass_: dict, limit: int = 12) -> list[str]:
    edges: Counter = Counter()
    calls: Counter = Counter()
    for result in pass_["results"]:
        for parent, name, n_calls, _, self_time in result["trace"]["edges"]:
            edges[(parent, name)] += self_time * result["scale"]
            calls[(parent, name)] += n_calls
    return [f"  {parent} -> {name}: {calls[(parent, name)]} calls, self {self_time:.3f} s"
            for (parent, name), self_time in edges.most_common(limit)]


def run_probes(probes: list[list[str]], env: dict[str, str], trace: bool,
               deadline: float, report: list[str]) -> tuple[int, int]:
    """Run each probe once (and traced too when tracing).

    Returns (probes that give a wrong answer, traced runs that disagree with
    the untraced run).  Only the second is a benchmark failure.
    """
    wrong = disagree = 0
    for argv in probes:
        expected = {"exit": 0, "sha256": hashlib.sha256(workloads.probe_expected_stdout(argv)).hexdigest()}
        plain = run_command(argv, env, False, deadline)
        ok = matches(plain, expected)
        wrong += not ok
        detail = "ok" if ok else f"FAIL exit {plain['exit']}: {plain['stderr_tail'][:120]}"
        report.append(f"probe {' '.join(argv)}: {detail}")
        if trace:
            traced = run_command(argv, env, True, deadline)
            if (traced["exit"], traced["sha256"]) != (plain["exit"], plain["sha256"]):
                disagree += 1
                report.append(f"probe {' '.join(argv)}: traced run disagrees with the untraced run")
    return wrong, disagree


def benchmark(commands: list[list[str]], expected: dict, seconds: float, trace: bool,
              probes: list[list[str]]) -> tuple[dict, list[str]]:
    """Measure ``commands`` for ``seconds``; return the result object and a report."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    pin_to_one_core()
    env = child_env()
    report: list[str] = []
    values: dict[str, float] = {}
    setup: list[float] = []
    if not trace:
        setup_samples(env, deadline, 1)  # compiles bytecode in a fresh checkout; not timed

    modes = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {mode: [] for mode in modes}
    stop = time.perf_counter() + seconds
    while True:
        if not trace:
            setup.extend(setup_samples(env, deadline, SETUP_PER_PASS))
        for traced in modes:
            passes[traced].append(run_pass(commands, env, traced, deadline))
        if time.perf_counter() >= stop:
            break

    attempted = failed = 0
    for traced in modes:
        for pass_ in passes[traced]:
            for result in pass_["results"]:
                attempted += 1
                if not matches(result, expected.get(" ".join(result["argv"]))):
                    failed += 1
                    report.append(f"MISMATCH ({'traced' if traced else 'plain'}) "
                                  f"{' '.join(result['argv'])}: exit {result['exit']} "
                                  f"{result['stderr_tail'][:120]}")
    if trace:
        # Tracing must not change behaviour: compare with the untraced run.
        for plain, traced in zip(passes[False][0]["results"], passes[True][0]["results"]):
            if (plain["exit"], plain["sha256"]) != (traced["exit"], traced["sha256"]):
                failed += 1
                report.append(f"traced run disagrees: {' '.join(plain['argv'])}")

    wrong, disagree = run_probes(probes, env, trace, deadline, report)
    failed += disagree

    plain = passes[False]
    if trace:
        flats = [flatten_trace(pass_) for pass_ in passes[True]]
        traced_wall = statistics.median(pass_["wall_s"] for pass_ in passes[True])
        plain_wall = statistics.median(pass_["wall_s"] for pass_ in plain)
        for flat in flats:
            flat["trace.overhead_frac"] = traced_wall / plain_wall - 1
            flat["probes.failed"] = wrong
        for name, (unit, key) in PER_LAYER.items():
            values[name] = statistics.median_low(flat.get(key, 0) for flat in flats)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        report.append("largest self times of the last traced pass (parent -> span):")
        report.extend(top_edges(passes[True][-1]))
    else:
        values["setup_s"] = statistics.median(setup)
        values["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        values["cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        # The median of each command over passes is steadier than the median
        # of each pass's maximum, which picks up whichever command was unlucky.
        values["slowest_cmd_s"] = max(
            statistics.median(p["results"][i]["wall_s"] * p["results"][i]["scale"] for p in plain)
            for i in range(len(commands)))
        values["peak_rss_mb"] = statistics.median(
            max(r["rss_kb"] for r in p["results"]) for p in plain) / 1024
        units = END_TO_END

    for index, argv in enumerate(commands):
        results = [p["results"][index] for p in plain]
        scaled = statistics.median(r["wall_s"] * r["scale"] for r in results)
        raw = statistics.median(r["wall_s"] for r in results)
        rss = max(r["rss_kb"] for r in results) / 1024
        report.append(f"  {' '.join(argv)}: median {scaled:.3f} s scaled, {raw:.3f} s raw, "
                      f"max rss {rss:.1f} MB")
    report.append(f"  raw pass wall: median {statistics.median(p['raw_wall_s'] for p in plain):.3f} s")
    report.insert(0, f"{len(plain)} plain and {len(passes.get(True, []))} traced passes "
                     f"of {len(commands)} commands in {time.perf_counter() - started:.1f} s")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BANDS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lucanomials" / "cli.py").is_file():
        print(f"error: no lucanomials sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Only this process lifts the int-to-str digit limit (Python 3.11+), to
    # print probe values.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    expected = json.loads(EXPECTED.read_text())
    commands = workloads.commands(args.workload, args.seed)
    probes = workloads.PROBES if args.workload == "big_query" else []
    result, report = benchmark(commands, expected, args.seconds, bool(args.trace), probes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(report))
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
