"""Which ``src/`` functions a run reaches: an opt-in pytest plugin.

Standard library only (``coverage`` is not a dependency)::

    PYTHONPATH=src python -m pytest -p tests.reach --reach-out tier1.json
    PYTHONPATH=src python -m tests.reach cli cli.json < commands.txt
    PYTHONPATH=src python -m tests.reach report tier1.json cli.json

The plugin records every Python ``call`` event through ``sys.setprofile``
and ``threading.setprofile`` and writes the reached functions to
``--reach-out``.  It re-arms the hook before every test: cProfile (the
``profile`` command and its tests) installs its own profile function and
leaves none behind, and without the re-arm everything after the first
profiled test would read as unreached.  ``cli`` runs one ``repro``
command per input line in process, under the same hook.  ``report``
lists each function or method defined under ``src/`` that none of the
given recordings reached, with its length in lines.

What the hook cannot see reads as unreached: code that runs only in a
child process (a ``repro serve`` site, a ``--jobs N`` pool worker) and
code called while cProfile holds the hook.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import shlex
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_reached: set = set()


def _hook(frame, event, _arg):
    if event == "call":
        _reached.add(frame.f_code)


def arm() -> None:
    """Record calls from now on, in this thread and every new one."""
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def disarm() -> None:
    sys.setprofile(None)
    threading.setprofile(None)


def _key(code) -> str:
    path = Path(code.co_filename).resolve().relative_to(SRC)
    # ``co_qualname`` is new in Python 3.11; 3.10 names a method bare.
    name = getattr(code, "co_qualname", code.co_name)
    return f"{path}:{code.co_firstlineno}:{name}"


def reached_keys() -> list[str]:
    """The recorded functions defined under ``src/``."""
    root = str(SRC)
    return sorted(
        _key(code) for code in _reached
        if str(Path(code.co_filename).resolve()).startswith(root)
    )


def _last_line(code) -> int:
    lines = [line for _start, _end, line in code.co_lines() if line]
    lines += [
        _last_line(const) for const in code.co_consts
        if inspect.iscode(const)
    ]
    return max(lines, default=code.co_firstlineno)


def defined() -> dict[str, int]:
    """Every function and method under ``src/`` -> its length in lines
    (class bodies, lambdas and comprehensions are not functions here)."""
    found: dict[str, int] = {}

    def walk(code) -> None:
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS and not (
                const.co_name.startswith("<")
            ):
                found[_key(const)] = (
                    _last_line(const) - const.co_firstlineno + 1
                )
            walk(const)

    for path in sorted(SRC.rglob("*.py")):
        walk(compile(path.read_text(), str(path.resolve()), "exec"))
    return found


# ----------------------------------------------------------------------
# the pytest plugin (loaded with ``-p tests.reach``)
# ----------------------------------------------------------------------


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--reach-out", default="reach.json",
        help="where to write the src/ functions the session reached",
    )


def pytest_configure(config) -> None:
    arm()  # collection imports every test module


def pytest_runtest_setup(item) -> None:
    arm()


def pytest_sessionfinish(session) -> None:
    disarm()
    Path(session.config.getoption("reach_out")).write_text(
        json.dumps(reached_keys(), indent=0)
    )


# ----------------------------------------------------------------------
# the command-line side
# ----------------------------------------------------------------------


def _run_commands(out: str) -> None:
    from repro.cli import main

    commands = [shlex.split(line) for line in sys.stdin if line.strip()]
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)  # ``trace`` writes its JSONL to the cwd
        try:
            for argv in commands:
                arm()
                with contextlib.redirect_stdout(io.StringIO()), (
                    contextlib.suppress(SystemExit)  # ``--help``
                ):
                    main(argv)
                disarm()
        finally:
            os.chdir(cwd)
    Path(out).write_text(json.dumps(reached_keys(), indent=0))


def _report(paths: list[str]) -> None:
    reached: set[str] = set()
    for path in paths:
        reached.update(json.loads(Path(path).read_text()))
    functions = defined()
    missed = sorted(set(functions) - reached)
    for key in missed:
        file, line, name = key.split(":")
        print(f"{file}:{line} {name} ({functions[key]} lines)")
    print(
        f"{len(missed)} of {len(functions)} functions unreached, "
        f"{sum(functions[key] for key in missed)} lines"
    )


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    if command == "cli":
        _run_commands(rest[0])
    elif command == "report":
        _report(rest)
    else:
        raise SystemExit("usage: python -m tests.reach cli OUT | report A [B ...]")
