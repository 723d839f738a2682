"""Which ``src/`` functions production runs reach, and the gate on them.

Standard library only (``coverage`` is not a dependency)::

    PYTHONPATH=src python -m pytest -p tests.reach --reach-out benches.json \
        benchmarks --ignore=benchmarks/ledger --benchmark-disable
    PYTHONPATH=src python -m tests.reach cli cli.json < tests/reach_commands.txt
    PYTHONPATH=src python -m tests.reach run ex.json examples/quickstart.py
    PYTHONPATH=src python -m tests.reach report --kept tests/reach_kept.txt \
        benches.json cli.json ex.json

The plugin records every Python ``call`` event through ``sys.setprofile``
and ``threading.setprofile`` and writes the reached functions to
``--reach-out``.  It re-arms the hook before every test: cProfile (the
``profile`` command and its tests) installs its own profile function and
leaves none behind, and without the re-arm everything after the first
profiled test would read as unreached.  ``cli`` runs one ``repro``
command per input line in process, under the same hook; ``run`` runs one
script (an example, a ledger workload) in process as ``__main__``, with
its arguments.  ``report`` lists each function or method defined under
``src/`` that none of the given recordings reached, with its length in
lines.

With ``--kept FILE`` the report is a gate.  Each row of the file,
``path:qualname  category  reason``, keeps one unreached function on
purpose (no line number, so edits above it do not churn the file).  The
report then exits 1 on an unreached function with no row, and on a row
whose function is reached or gone: test-only code cannot come back
unnoticed, and a row cannot outlive its reason.

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
import runpy
import shlex
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Why an unreached function may stay (the second column of a kept row).
CATEGORIES = (
    "reference",    # the plain twin an optimised kernel is tested against
    "safety",       # error handling and validation no run trips
    "declaration",  # a Protocol / ABC method or a dunder
    "child",        # runs only in a ``repro serve`` or pool child
    "observation",  # an accessor tests read to check a behaviour
    "roadmap",      # the input of an open ROADMAP item
)

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


def _save(out: str) -> None:
    path = Path(out)
    reached = set(reached_keys())
    if path.exists():  # ``run`` appends: one file for several scripts
        reached.update(json.loads(path.read_text()))
    path.write_text(json.dumps(sorted(reached), indent=0))


@contextlib.contextmanager
def _scratch_cwd():
    """Run in a temp dir: ``trace`` and the ledger write to the cwd."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            yield
        finally:
            os.chdir(cwd)


def _run_commands(out: str) -> None:
    from repro.cli import main

    commands = [
        shlex.split(line) for line in sys.stdin
        if line.strip() and not line.startswith("#")
    ]
    with _scratch_cwd():
        for argv in commands:
            arm()
            with contextlib.redirect_stdout(io.StringIO()), (
                contextlib.suppress(SystemExit)  # ``--help``
            ):
                main(argv)
            disarm()
    _save(out)


def _run_script(out: str, script: str, args: list[str]) -> None:
    path = Path(script).resolve()
    sys.argv = [str(path), *args]
    sys.path.insert(0, str(path.parent))  # as ``python SCRIPT`` would
    code = 0
    with _scratch_cwd():
        arm()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            code = stop.code
        finally:
            disarm()
    _save(out)  # what a failing script reached, it reached
    if code not in (None, 0):
        raise SystemExit(code)


def _short(key: str) -> str:
    """``path:line:qualname`` -> ``path:qualname``, the kept-row key."""
    file, _line, name = key.split(":")
    return f"{file}:{name}"


def _read_kept(path: str) -> tuple[dict[str, str], list[str]]:
    kept: dict[str, str] = {}
    errors = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, category, *reason = line.split()
        if category not in CATEGORIES or not reason:
            errors.append(f"{path}:{number}: want 'path:qualname  category"
                          f"  reason' with a category of {CATEGORIES}")
        if key in kept:
            errors.append(f"{path}:{number}: {key} is kept twice")
        kept[key] = category
    return kept, errors


def _report(args: list[str]) -> int:
    kept_file = None
    if args[:1] == ["--kept"]:
        kept_file, args = args[1], args[2:]
    reached: set[str] = set()
    for path in args:
        reached.update(json.loads(Path(path).read_text()))
    functions = defined()
    missed = sorted(set(functions) - reached)
    if kept_file is None:
        for key in missed:
            file, line, name = key.split(":")
            print(f"{file}:{line} {name} ({functions[key]} lines)")
        print(
            f"{len(missed)} of {len(functions)} functions unreached, "
            f"{sum(functions[key] for key in missed)} lines"
        )
        return 0
    kept, errors = _read_kept(kept_file)
    unreached = {_short(key) for key in missed}
    for key in missed:
        if _short(key) not in kept:
            file, line, name = key.split(":")
            errors.append(
                f"{file}:{line} {name} ({functions[key]} lines) is reached "
                "by no run: delete it, or keep it with a row"
            )
    known = {_short(key) for key in functions}
    for key in sorted(set(kept) - unreached):
        why = "is reached" if key in known else "is gone"
        errors.append(f"{kept_file}: {key} {why}: delete its row")
    for error in errors:
        print(error)
    counts = {
        category: sum(1 for c in kept.values() if c == category)
        for category in CATEGORIES
    }
    print(
        f"{len(missed)} of {len(functions)} functions unreached, "
        f"{sum(functions[key] for key in missed)} lines; kept by category: "
        + ", ".join(f"{c} {n}" for c, n in counts.items())
    )
    return 1 if errors else 0


USAGE = (
    "usage: python -m tests.reach cli OUT < COMMANDS\n"
    "       python -m tests.reach run OUT SCRIPT [ARGS ...]\n"
    "       python -m tests.reach report [--kept FILE] A [B ...]"
)

if __name__ == "__main__":
    command, *rest = sys.argv[1:] or [""]
    if command == "cli":
        _run_commands(rest[0])
    elif command == "run":
        _run_script(rest[0], rest[1], rest[2:])
    elif command == "report":
        raise SystemExit(_report(rest))
    else:
        raise SystemExit(USAGE)
