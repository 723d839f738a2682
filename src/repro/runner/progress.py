"""Progress reporting for parallel runs.

The pool reports ``(done, total)`` after every completed task;
:class:`ProgressPrinter` renders that as an in-place tick line on stderr so
long sweeps stay observable without polluting stdout (whose tables are the
actual CLI output).
"""

from __future__ import annotations

import sys


class ProgressPrinter:
    """Render ``k/total`` completion ticks in place on stderr."""

    def __init__(self, label: str) -> None:
        self._label = label
        self._stream = sys.stderr
        self._finished = False

    def __call__(self, done: int, total: int) -> None:
        if self._finished:
            return
        self._stream.write(f"\r{self._label}: {done}/{total} tasks")
        if done >= total:
            self._stream.write("\n")
            self._finished = True
        self._stream.flush()
