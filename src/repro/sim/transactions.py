"""The monotonic id source behind lock tokens, request ids and 2PC txids.

Section 2.2: users interact with sites via transactions that execute
atomically (commit or abort at all participants); transactions containing
writes finish with two-phase commit, which :mod:`repro.sim.coordinator`
drives.  Every coordinator of a replica group draws from one shared
source, so ids never collide across clients.
"""

from __future__ import annotations

import itertools


class TransactionIdSource:
    """Monotonic transaction-id allocator shared by all clients."""

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)

    def next_id(self) -> int:
        """A fresh, unique transaction id."""
        return next(self._counter)
