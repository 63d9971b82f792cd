"""What a fresh CLI process loads, and that it prints what the in-process CLI prints.

Each command runs in a new interpreter, so every module the CLI imports is
paid on every run.  ``-S`` leaves out site-packages and their .pth hooks,
which may import typing or pathlib on their own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lucanomials
from lucanomials.cli import main

SRC = str(Path(lucanomials.__file__).resolve().parent.parent)
NEVER_LOADED = ("dataclasses", "inspect", "json", "typing", "pathlib", "decimal", "_decimal",
                "argparse", "gettext", "locale", "shutil")


def fresh(*args: str) -> str:
    """Stdout of ``python -S *args`` with only the package's sources on the path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def in_process(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_import_loads_no_heavy_module():
    code = f"import sys, lucanomials.cli; print([m for m in {NEVER_LOADED!r} if m in sys.modules])"
    assert fresh("-c", code) == "[]\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["lucas", "--n", "4"], 0),
        (["lucas", "--n", "3", "--k", "1"], 2),  # a usage error: the usage line is rendered
        (["verify", "theorem1", "--n", "x"], 2),
    ],
)
def test_command_run_loads_no_heavy_module(argv, code):
    # The whole run, parse and dispatch included, not only the import.
    script = (
        "import contextlib, io, sys\n"
        "from lucanomials.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"print(code, [m for m in {NEVER_LOADED!r} if m in sys.modules])\n"
    )
    assert fresh("-c", script) == f"{code} []\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("lucanomial", "--n", "4", "--k", "2", "--format", "json"),
        ("tilings", "list", "--n", "3", "--k", "1"),
    ],
)
def test_fresh_process_prints_the_same(capsys, argv):
    assert fresh("-m", "lucanomials.cli", *argv) == in_process(capsys, *argv)


def test_fresh_bijection_round_trip(capsys, tmp_path):
    stair = tmp_path / "stair.txt"
    stair.write_text("SDSS\nDD\nDS\nD\nS\n", encoding="utf-8")
    forward = ("bijection", "forward", "--n", "6", "--k", "3", "--input", str(stair), "--format", "json")
    triple = fresh("-m", "lucanomials.cli", *forward)
    assert triple == in_process(capsys, *forward)
    (tmp_path / "triple.json").write_text(triple, encoding="utf-8")
    inverse = ("bijection", "inverse", "--n", "6", "--k", "3", "--input", str(tmp_path / "triple.json"))
    back = fresh("-m", "lucanomials.cli", *inverse)
    assert back == in_process(capsys, *inverse) == stair.read_text(encoding="utf-8")
