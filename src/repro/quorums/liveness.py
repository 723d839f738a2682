"""Shared liveness-oracle utilities for failure-aware quorum selection.

Every quorum constructor in this library answers the same question while it
assembles a quorum: *is replica ``sid`` currently live?*  Callers express
liveness either as an explicit collection of live SIDs (convenient in tests
and analyses) or as a predicate (the simulator's failure detector).  This
module normalises between the two so the per-protocol selectors and the
:class:`~repro.quorums.system.QuorumSystem` layer share one implementation
instead of each carrying a private copy.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable

#: A perfect failure detector: ``oracle(sid)`` is True iff ``sid`` is live.
LivenessOracle = Callable[[int], bool]

#: What callers may pass wherever liveness is consulted.
Liveness = Collection[int] | LivenessOracle

#: The always-live oracle (used to sample quorums in the failure-free case).
ALL_LIVE: LivenessOracle = lambda sid: True  # noqa: E731


def as_oracle(live: Liveness) -> LivenessOracle:
    """Accept either a set of live SIDs or a predicate on SIDs."""
    if callable(live):
        return live
    live_set = frozenset(live)
    return lambda sid: sid in live_set


def live_members(members: Iterable[int], live: Liveness) -> list[int]:
    """The members reported live by the oracle, in iteration order."""
    oracle = as_oracle(live)
    return [sid for sid in members if oracle(sid)]
