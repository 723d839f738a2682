"""Suspicion-based failure detection from timeout evidence.

The simulator's liveness oracle is *perfect* about crashes (Section 2.2
makes failures detectable), but plenty of real trouble is invisible to
it: a site whose link is dropping messages, or a straggler whose replies
arrive after the quorum timeout, is "up" by the oracle and yet poisons
every quorum it joins.  The coordinator used to keep selecting quorums
through such sites at random, re-timing-out over and over.

:class:`SuspectList` is the adaptive layer in between — an eventually
accurate, evidence-driven detector in the Chandra–Toueg mould:

* **suspicion** — every quorum member that failed to answer before the
  attempt timed out earns one piece of evidence; at ``threshold`` pieces
  the site becomes *suspected* until ``now + probe_interval``;
* **rehabilitation** — suspicion expires after ``probe_interval`` (the
  site gets probed again by simply becoming selectable); a reply from a
  suspected site exonerates it immediately and clears its evidence;
* **selection preference** — :meth:`suspected` is the set quorum
  selection (:class:`~repro.quorums.selection.QuorumChooser`) steers
  around.  It *prefers* quorums outside that set and falls back to blind
  selection when none exists, so suspicion can only redirect load, never
  manufacture unavailability.

Every transition emits a span event on the recorder's ``failure_detector``
singleton trace, and the ``fault.suspect`` counters (``suspected`` /
``rehabilitated`` / ``exonerated`` / ``selection_avoided``) make the
detector's effect visible in ``repro report``.  The detector is driven
purely by simulated time passed in by its callers — no wall clock, no
RNG — so runs remain bit-for-bit reproducible.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.obs.recorder import NULL_RECORDER, NullRecorder

#: Counter group used for every detector statistic.
COUNTER_GROUP = "fault.suspect"


class SuspectList:
    """Evidence-driven suspicion with timed rehabilitation.

    Parameters
    ----------
    probe_interval:
        How long (simulated time) a suspicion lasts before the site is
        rehabilitated and probed again.
    threshold:
        Pieces of evidence (missed replies) required before a
        site becomes suspected.  1 = suspect on first miss.
    recorder:
        Trace recorder for transition events and counters (the no-op
        default keeps the detector free when tracing is off).
    """

    __slots__ = (
        "_probe_interval",
        "_threshold",
        "_recorder",
        "_trace",
        "_evidence",
        "_suspected_until",
        "suspicions_total",
        "rehabilitations_total",
        "exonerations_total",
        "selection_avoided",
    )

    def __init__(
        self,
        probe_interval: float = 30.0,
        threshold: int = 1,
        recorder: NullRecorder = NULL_RECORDER,
    ) -> None:
        if probe_interval <= 0:
            raise ValueError("probe interval must be positive")
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self._probe_interval = probe_interval
        self._threshold = threshold
        self._recorder = recorder
        self._trace = 0
        #: sid -> accumulated evidence (missed replies).
        self._evidence: dict[int, int] = {}
        #: sid -> simulated time the suspicion expires.
        self._suspected_until: dict[int, float] = {}
        self.suspicions_total = 0
        self.rehabilitations_total = 0
        self.exonerations_total = 0
        self.selection_avoided = 0

    @property
    def suspects_active(self) -> int:
        """Currently suspected site count (may include expired entries
        not yet swept; sweeps happen on every query with a ``now``)."""
        return len(self._suspected_until)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def _transition(self, name: str, sid: int, now: float) -> None:
        recorder = self._recorder
        if not recorder.enabled:
            return
        if not self._trace:
            self._trace = recorder.singleton_trace("failure_detector")
        recorder.event(
            self._trace, self._trace, name, now,
            sid=sid, active=len(self._suspected_until),
        )
        recorder.count(COUNTER_GROUP, name)

    def record_timeout(self, sids: Iterable[int], now: float) -> None:
        """Charge every silent quorum member one piece of evidence."""
        for sid in sids:
            count = self._evidence.get(sid, 0) + 1
            self._evidence[sid] = count
            if count < self._threshold:
                continue
            already = sid in self._suspected_until
            self._suspected_until[sid] = now + self._probe_interval
            if not already:
                self.suspicions_total += 1
                self._transition("suspected", sid, now)

    def exonerate(self, sid: int, now: float) -> None:
        """A reply arrived from ``sid``: clear its evidence and suspicion."""
        self._evidence.pop(sid, None)
        if self._suspected_until.pop(sid, None) is not None:
            self.exonerations_total += 1
            self._transition("exonerated", sid, now)

    def _sweep(self, now: float) -> None:
        expired = [
            sid for sid, until in self._suspected_until.items() if until <= now
        ]
        for sid in expired:
            del self._suspected_until[sid]
            # Expired suspicion also resets evidence: the probe starts
            # from a clean slate rather than re-suspecting on one miss
            # forever once threshold > 1 was crossed.
            self._evidence.pop(sid, None)
            self.rehabilitations_total += 1
            self._transition("rehabilitated", sid, now)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def is_suspected(self, sid: int, now: float) -> bool:
        """Whether ``sid`` is currently suspected (rehabilitating lazily)."""
        self._sweep(now)
        return sid in self._suspected_until

    def suspected(self, now: float) -> frozenset[int]:
        """The set of currently suspected sites."""
        self._sweep(now)
        return frozenset(self._suspected_until)

    def chronic(self, now: float, min_evidence: int = 1) -> frozenset[int]:
        """Currently suspected sites with at least ``min_evidence`` strikes.

        Reconfiguration planning consumes this: a site that is not just
        momentarily suspected but has accumulated repeat evidence is a
        candidate for demotion to a deep/wide tree level (where a single
        unavailable replica hurts the fewest quorums).
        """
        self._sweep(now)
        return frozenset(
            sid
            for sid in self._suspected_until
            if self._evidence.get(sid, 0) >= min_evidence
        )

    def note_avoided(self) -> None:
        """Count one selection that successfully avoided suspected sites."""
        self.selection_avoided += 1
        if self._recorder.enabled:
            self._recorder.count(COUNTER_GROUP, "selection_avoided")

    def counters(self) -> dict[str, int]:
        """The headline counters as a plain dict (for reports/tests)."""
        return {
            "suspects_active": self.suspects_active,
            "suspicions_total": self.suspicions_total,
            "rehabilitations_total": self.rehabilitations_total,
            "exonerations_total": self.exonerations_total,
            "selection_avoided": self.selection_avoided,
        }

    def __repr__(self) -> str:
        return (
            f"SuspectList(active={self.suspects_active}, "
            f"suspected={self.suspicions_total}, "
            f"avoided={self.selection_avoided})"
        )
