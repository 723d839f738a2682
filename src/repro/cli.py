"""Command-line interface: ``python -m repro <command>``.

The table and nothing else: which commands exist and the module under
:mod:`repro.commands` that registers each (what a command does is that
module's docstring).  A process imports only the module of the command
it runs, and every ``repro serve`` child executes this file: no
module-level ``repro.*`` import here (DESIGN §2.6, §2.16).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

#: command -> the ``repro.commands`` module that registers it, in
#: ``--help`` order.
_COMMANDS = {
    "example": "paper",
    "fig2": "paper",
    "fig3": "paper",
    "fig4": "paper",
    "survey": "paper",
    "analyse": "analyse",
    "sweep": "sweep",
    "availability": "availability",
    "tune": "tune",
    "simulate": "simulate",
    "chaos": "chaos",
    "reconfigure": "reconfigure",
    "trace": "trace",
    "profile": "profile",
    "report": "trace",
    "serve": "serve",
    "cluster": "cluster",
    "all": "paper",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every subcommand, or just ``command``.

    ``main`` asks for the one it runs, so a ``repro serve`` child never
    imports another command's module, nor what other commands take their
    ``choices=`` from.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arbitrary tree-structured replica control protocol "
                    "(ICDCS 2008) — analysis and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, module in _COMMANDS.items():
        if command is None or name == command:
            # __import__, not importlib.import_module, which ``python -X
            # importtime`` (how the import contract is tested) does not see.
            __import__(
                f"repro.commands.{module}", fromlist=["register"]
            ).register(sub, name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command comes first (the top level's only option is --help);
    # anything else gets the full parser, for its help or usage error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return args.run(args) or 0
