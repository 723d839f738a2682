"""Memoised bitmask quorum selection: the simulator's hot path.

Every quorum attempt in the simulator asks the same question — *give me a
uniformly random quorum that is a subset of the current live set* — and the
pre-existing answers were all per-attempt work: the generic
:class:`~repro.quorums.system.QuorumSystem` scan re-enumerates the quorum
collection on every call, and the structural protocol selectors
rebuild their candidate lists from frozensets.  Live sets, however, change
only when a site crashes or recovers or a partition is installed/healed —
orders of magnitude less often than operations are issued.

:class:`SelectionIndex` exploits that: it packs each quorum of a system's
collections into a Python ``int`` bitmask *once* (element ``i`` of the
sorted universe is bit ``i``, the layout of :mod:`repro.quorums.bitset`),
memoises the viable rows per ``(op, live-mask)`` (one ``q & live == q``
pass over the masks when a live set is first seen), and serves every
subsequent selection with a single ``rng.randrange`` over the viable count —
O(live-set) to build the mask, O(1) to pick.  Plain ints rather than a
numpy matrix keep numpy out of every process that only selects quorums:
the coordinator, the simulator and their tests (DESIGN §2.16).

Distribution contract
---------------------
The index picks **uniformly among the viable quorums** (the quorums that
are subsets of the live set).  That is exactly the distribution of the
generic reservoir scan, and of every structural selector that declares
``uniform_selection = True`` (the paper's arbitrary protocol: independent
uniform per-level choices; majority: ``rng.sample`` over the live set;
ROWA: a uniform live singleton).  Protocols whose structural selectors
*prefer* primary quorums (tree-quorum's root path, HQC's top-level
recursion, the grid's column orientation) declare
``uniform_selection = False`` and are never dispatched here — substituting
a uniform pick would change their measured costs and loads.

:func:`select_uniform_reference` is the pure-Python frozenset twin used by
the agreement tests and benchmarks: filter the quorum list by the live set,
draw one ``randrange``.  Index and reference consume identical RNG streams,
so selections agree bit-for-bit under the same seed.

:class:`QuorumChooser` is the strategy layer on top: the one place that
decides *which* live quorum an operation uses, so the coordinator that
executes the operation only asks ``choose(op)``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection, Sequence
from typing import TYPE_CHECKING

from repro.quorums.liveness import Liveness, LivenessOracle, as_oracle

if TYPE_CHECKING:  # annotation-only: neither package is needed to select
    from repro.fault.detector import SuspectList
    from repro.runtime.interfaces import Clock

#: Materialisation guard: systems with more quorums than this keep their
#: structural selectors (enumeration would cost more than it saves).
DEFAULT_MAX_QUORUMS = 4096

#: Viable-row cache entries kept per index before a wholesale flush.  Long
#: Bernoulli-failure runs see a new live mask per resample epoch; the flush
#: bounds memory without tracking recency on the hot path.
DEFAULT_CACHE_LIMIT = 1024

_OPS = ("read", "write")


def select_uniform_reference(
    quorums: Sequence[frozenset[int]],
    live: Liveness,
    rng: random.Random | None = None,
) -> frozenset[int] | None:
    """Uniform-over-viable selection on plain frozensets (reference path).

    Builds the viable candidate list per call — the very cost the index
    memoises away — then draws one ``rng.randrange(len(viable))``.  With
    ``rng=None`` the first viable quorum (enumeration order) is returned.
    """
    oracle = as_oracle(live)
    viable = [
        quorum
        for quorum in quorums
        if all(oracle(sid) for sid in quorum)
    ]
    if not viable:
        return None
    if rng is None:
        return viable[0]
    return viable[rng.randrange(len(viable))]


class SelectionIndex:
    """Per-system cache turning quorum selection into an O(1) uniform pick.

    Parameters
    ----------
    system:
        Any :class:`~repro.quorums.system.QuorumSystem`-shaped object.  The
        index materialises and packs its quorum collections lazily, per
        operation, on first use; systems that cannot be packed (quorum
        count above ``max_quorums``, non-integer universe, or no
        ``materialise``/``universe`` at all) fall back to the system's own
        ``select_read_quorum`` / ``select_write_quorum`` transparently.
    max_quorums:
        Materialisation guard per operation.
    cache_limit:
        Viable-row cache entries kept before the cache is flushed.

    The ``packed_selects`` / ``fallback_selects`` / ``cache_hits`` /
    ``cache_misses`` counters make the dispatch observable to tests and
    benchmarks.
    """

    __slots__ = (
        "_system",
        "_max_quorums",
        "_cache_limit",
        "_masks",
        "_bits",
        "_quorums",
        "_viable",
        "packed_selects",
        "fallback_selects",
        "cache_hits",
        "cache_misses",
    )

    def __init__(
        self,
        system,
        max_quorums: int = DEFAULT_MAX_QUORUMS,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        if max_quorums < 1:
            raise ValueError("max_quorums must be positive")
        if cache_limit < 1:
            raise ValueError("cache_limit must be positive")
        self._system = system
        self._max_quorums = max_quorums
        self._cache_limit = cache_limit
        #: op -> one bitmask per quorum | None (None = tried, unpackable).
        self._masks: dict[str, tuple[int, ...] | None] = {}
        #: universe element -> its bit's value (the sorted universe's
        #: order, shared by both operations).
        self._bits: dict[int, int] = {}
        #: op -> materialised quorums, aligned with the mask order.
        self._quorums: dict[str, tuple[frozenset[int], ...]] = {}
        #: (op, live-mask) -> indices of viable rows, ascending.
        self._viable: dict[tuple[str, int], list[int]] = {}
        self.packed_selects = 0
        self.fallback_selects = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def system(self):
        """The system selections are served for."""
        return self._system

    def supported(self, op: str) -> bool:
        """Whether ``op`` selections run on the packed fast path."""
        return self._tables(op) is not None

    def _tables(self, op: str) -> tuple[int, ...] | None:
        if op not in _OPS:
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        if op in self._masks:
            return self._masks[op]
        masks: tuple[int, ...] | None = None
        materialise = getattr(self._system, "materialise", None)
        universe = getattr(self._system, "universe", None)
        if materialise is not None and universe is not None:
            try:
                quorums = materialise(op, self._max_quorums)
            except ValueError:
                quorums = None
            if quorums and all(isinstance(sid, int) for sid in universe):
                if not self._bits:
                    ordered = enumerate(sorted(universe))
                    self._bits = {sid: 1 << bit for bit, sid in ordered}
                value = self._bits.__getitem__
                masks = tuple(sum(map(value, quorum)) for quorum in quorums)
                self._quorums[op] = tuple(quorums)
        self._masks[op] = masks
        return masks

    def select(
        self,
        op: str,
        live: Collection[int],
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """A uniformly chosen viable quorum of ``op``, or ``None``.

        ``live`` must be an explicit collection of live SIDs (the caller
        owns liveness-epoch caching); callables are routed to the fallback.
        """
        masks = self._tables(op)
        if masks is None or callable(live):
            self.fallback_selects += 1
            if op == "read":
                return self._system.select_read_quorum(live, rng)
            return self._system.select_write_quorum(live, rng)
        return self._pick(op, masks, self._pack(live), rng)

    def _pack(self, live: Collection[int]) -> int:
        mask = 0
        bits = self._bits
        for sid in live:
            value = bits.get(sid)
            if value is not None:
                mask |= value
        return mask

    def live_mask(self, live: Collection[int]) -> int | None:
        """Pack live SIDs into the masks' bit positions, or ``None``.

        ``None`` means no operation of this system is packable and
        :meth:`select_masked` cannot be used.  Both operations' packed
        tables index the same sorted universe, so one mask serves read
        and write selections alike — callers caching the live set per
        liveness epoch (:class:`QuorumChooser`) can cache its mask right next
        to it and skip the per-selection packing loop entirely.
        """
        if self._tables("read") is None and self._tables("write") is None:
            return None
        return self._pack(live)

    def select_masked(
        self,
        op: str,
        mask: int,
        rng: random.Random | None = None,
    ) -> frozenset[int] | None:
        """Like :meth:`select` with a pre-packed live mask (same RNG draws).

        Only valid when :meth:`supported` is true for ``op`` (there is no
        live *collection* here to hand a structural fallback).
        """
        masks = self._tables(op)
        if masks is None:
            raise ValueError(
                f"{op!r} selections are not packed; check supported() "
                "before using select_masked()"
            )
        return self._pick(op, masks, mask, rng)

    def _pick(
        self,
        op: str,
        masks: tuple[int, ...],
        mask: int,
        rng: random.Random | None,
    ) -> frozenset[int] | None:
        self.packed_selects += 1
        key = (op, mask)
        rows = self._viable.get(key)
        if rows is None:
            self.cache_misses += 1
            if len(self._viable) >= self._cache_limit:
                self._viable.clear()
            rows = [
                row
                for row, quorum in enumerate(masks)
                if quorum & mask == quorum
            ]
            self._viable[key] = rows
        else:
            self.cache_hits += 1
        if not rows:
            return None
        quorums = self._quorums[op]
        if rng is None:
            return quorums[rows[0]]
        # One randrange over the viable rows in ascending order: the
        # draw the reference scan makes over its filtered list.
        return quorums[rows[rng.randrange(len(rows))]]

    def __repr__(self) -> str:
        name = getattr(self._system, "name", type(self._system).__name__)
        return (
            f"SelectionIndex({name!r}, packed={self.packed_selects}, "
            f"fallback={self.fallback_selects}, hits={self.cache_hits})"
        )


class QuorumChooser:
    """Which live quorum an operation uses: a coordinator's strategy layer.

    The coordinator executing an operation asks :meth:`choose` and knows
    nothing else.  Decided here:

    * **Index or structural selector.**  Only a system declaring
      ``uniform_selection`` is served from a :class:`SelectionIndex`: the
      index picks uniformly among viable quorums, so substituting it for a
      selector that prefers primary quorums (tree-quorum paths, HQC's
      recursion, ...) would change the measured distribution, not just its
      speed.  Any other system keeps its own ``select_read_quorum`` /
      ``select_write_quorum`` over the detector.
    * **The live view.**  With a ``liveness_epoch`` source (the network
      advances it on every crash, recovery, partition install and heal)
      the detector is probed over the universe once per epoch and the
      result packed into the index's bit mask, so between bumps the probe
      loop — the dominant cost for large ``n`` — is skipped.  Without one,
      every selection probes afresh.
    * **Suspicion.**  With ``suspects`` (a
      :class:`~repro.fault.detector.SuspectList`, consulted at
      ``clock.now``) a quorum avoiding the currently suspected sites is
      preferred and counted (``note_avoided``); when none stands the blind
      selection runs, so suspicion can only redirect load, never
      manufacture unavailability.

    ``index`` shares one :class:`SelectionIndex` of ``system`` across a
    replica group instead of building private packed tables and viable-row
    caches; selections are identical either way (the cache only memoises,
    ``rng`` still drives the pick).
    """

    def __init__(
        self,
        system,
        detector: LivenessOracle,
        rng: random.Random,
        clock: "Clock",
        liveness_epoch: Callable[[], int] | None = None,
        suspects: "SuspectList | None" = None,
        index: SelectionIndex | None = None,
    ) -> None:
        self._detector = detector
        self._rng = rng
        self._clock = clock
        self._liveness_epoch = liveness_epoch
        self._suspects = suspects
        self.set_system(system, index)

    @property
    def system(self):
        """The active quorum system."""
        return self._system

    @property
    def index(self) -> SelectionIndex | None:
        """The bitset selection index, if the active system qualifies."""
        return self._index

    def set_system(self, system, index: SelectionIndex | None = None) -> None:
        """Swap the active system, dropping the cached live view.

        ``index`` is adopted only if it indexes ``system``; otherwise a
        qualifying system gets a fresh one.
        """
        self._system = system
        self._index: SelectionIndex | None = None
        self._universe: tuple[int, ...] = ()
        self._live: tuple[int, ...] | None = None
        self._live_epoch: int | None = None
        self._mask: int | None = None
        if not getattr(system, "uniform_selection", False):
            return
        universe = getattr(system, "universe", None)
        if universe is None:
            return
        try:
            self._universe = tuple(sorted(universe))
        except TypeError:
            return
        if index is None or index.system is not system:
            index = SelectionIndex(system)
        self._index = index

    def choose(self, op: str) -> frozenset[int] | None:
        """A live ``op`` (``"read"`` / ``"write"``) quorum, or ``None``."""
        suspects = self._suspects
        avoid: frozenset[int] = (
            suspects.suspected(self._clock.now)
            if suspects is not None
            else frozenset()
        )
        index = self._index
        if index is None:
            return self._choose_structural(op, avoid)
        live = self._live_view()
        if avoid:
            preferred = tuple(sid for sid in live if sid not in avoid)
            if len(preferred) != len(live):
                quorum = index.select(op, preferred, self._rng)
                if quorum is not None:
                    suspects.note_avoided()
                    return quorum
        mask = self._mask
        if mask is not None and index.supported(op):
            # Same rows, same single randrange as select() — only the
            # per-call packing loop is skipped.
            return index.select_masked(op, mask, self._rng)
        return index.select(op, live, self._rng)

    def _live_view(self) -> tuple[int, ...]:
        """The detector's view of the universe (and its mask), per epoch."""
        epoch_fn = self._liveness_epoch
        epoch = epoch_fn() if epoch_fn is not None else None
        if self._live is None or epoch is None or epoch != self._live_epoch:
            detector = self._detector
            self._live = tuple(sid for sid in self._universe if detector(sid))
            self._live_epoch = epoch
            # None when the active system has no packed tables.
            self._mask = self._index.live_mask(self._live)
        return self._live

    def _choose_structural(
        self, op: str, avoid: frozenset[int]
    ) -> frozenset[int] | None:
        """The system's own selector, over the detector as the oracle."""
        system, detector, rng = self._system, self._detector, self._rng
        if avoid and any(detector(sid) for sid in avoid):
            # Run it once over an oracle that also rules out suspected
            # sites; fall back to the plain liveness oracle when no
            # suspect-free quorum stands.
            def preferred(sid: int) -> bool:
                return sid not in avoid and detector(sid)

            if op == "read":
                quorum = system.select_read_quorum(preferred, rng)
            else:
                quorum = system.select_write_quorum(preferred, rng)
            if quorum is not None:
                self._suspects.note_avoided()
                return quorum
        if op == "read":
            return system.select_read_quorum(detector, rng)
        return system.select_write_quorum(detector, rng)
