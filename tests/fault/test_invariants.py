"""Unit tests for the chaos safety invariant checker."""

import pytest

from repro.fault.invariants import InvariantChecker, InvariantViolation
from repro.sim.coordinator import OperationOutcome
from repro.sim.replica import Timestamp


def write(key, version, quorum, writer=0):
    return OperationOutcome(
        op_type="write", key=key, success=True, value=f"v{version}",
        timestamp=Timestamp(version=version, sid=writer),
        quorum=frozenset(quorum),
    )


def read(key, version, quorum, writer=0):
    return OperationOutcome(
        op_type="read", key=key, success=True, value=f"v{version}",
        timestamp=Timestamp(version=version, sid=writer),
        quorum=frozenset(quorum),
    )


def failure(key):
    return OperationOutcome(op_type="read", key=key, success=False)


class TestCleanStreams:
    def test_healthy_history_passes(self):
        checker = InvariantChecker()
        checker.check(write("k", 1, {0, 1, 2}))
        checker.check(read("k", 1, {2, 3}))
        checker.check(write("k", 2, {3, 4, 5}))
        checker.check(read("k", 2, {5, 6}))
        assert checker.ok
        assert checker.checked == 4

    def test_failures_are_ignored(self):
        checker = InvariantChecker()
        checker.check(failure("k"))
        assert checker.checked == 0
        assert checker.ok

    def test_write_quorums_need_not_intersect_each_other(self):
        # The arbitrary protocol's write quorums are whole levels and are
        # pairwise disjoint by design; only read/write intersection and
        # version monotonicity are protocol guarantees.
        checker = InvariantChecker()
        checker.check(write("k", 1, {0}))
        checker.check(write("k", 2, {4, 5, 6}))
        assert checker.ok

    def test_keys_are_independent(self):
        checker = InvariantChecker()
        checker.check(write("a", 5, {0, 1}))
        checker.check(write("b", 1, {2, 3}))
        assert checker.ok


class TestViolations:
    def test_read_quorum_must_intersect_latest_write_quorum(self):
        checker = InvariantChecker()
        checker.check(write("k", 1, {0, 1, 2}))
        with pytest.raises(InvariantViolation, match="does not intersect"):
            checker.check(read("k", 1, {7, 8}))

    def test_stale_read_version_caught(self):
        checker = InvariantChecker()
        checker.check(write("k", 3, {0, 1}))
        with pytest.raises(InvariantViolation, match="stale"):
            checker.check(read("k", 2, {1, 5}))

    def test_write_version_must_advance(self):
        checker = InvariantChecker()
        checker.check(write("k", 2, {0, 1}))
        with pytest.raises(InvariantViolation, match="does not advance"):
            checker.check(write("k", 2, {1, 2}))

    def test_reads_must_not_go_backwards(self):
        checker = InvariantChecker(strict=False)
        checker.check(write("k", 1, {0, 1}))
        checker.check(read("k", 5, {1, 2}, writer=3))
        checker.check(read("k", 1, {1, 2}))
        assert any("backwards" in v for v in checker.violations)

    def test_non_strict_collects_instead_of_raising(self):
        checker = InvariantChecker(strict=False)
        checker.check(write("k", 1, {0, 1, 2}))
        checker.check(read("k", 1, {7, 8}))
        assert not checker.ok
        assert len(checker.violations) == 1
        assert "does not intersect" in checker.violations[0]


class TestWrap:
    def test_wrap_audits_then_forwards(self):
        checker = InvariantChecker()
        seen = []
        audit = checker.wrap(seen.append)
        outcome = write("k", 1, {0, 1})
        audit(outcome)
        assert seen == [outcome]
        assert checker.checked == 1

    def test_wrap_raises_before_forwarding_on_violation(self):
        checker = InvariantChecker()
        seen = []
        audit = checker.wrap(seen.append)
        audit(write("k", 1, {0, 1}))
        with pytest.raises(InvariantViolation):
            audit(read("k", 1, {9}))
        assert len(seen) == 1  # the violating outcome never reached the sink


class _Site:
    def __init__(self, sid, prepared=()):
        self.sid = sid
        self._prepared = dict.fromkeys(prepared)


class _Coordinator:
    def __init__(self, decisions):
        self._decisions = decisions


class TestSettled:
    def test_nothing_in_doubt_and_nothing_logged_passes(self):
        checker = InvariantChecker()
        assert checker.check_settled([_Site(0), _Site(1)], []) == 0
        assert checker.ok

    def test_a_prepare_left_behind_is_caught(self):
        checker = InvariantChecker(strict=False)
        checker.check_settled([_Site(0), _Site(1, prepared=[7])], [])
        assert checker.violations == [
            "[epoch 0/stable] site 1 still holds the prepare of txid 7 "
            "after the run settled"
        ]
        with pytest.raises(InvariantViolation, match="txid 7"):
            InvariantChecker().check_settled([_Site(1, prepared=[7])], [])

    def test_a_logged_commit_its_member_never_learnt_is_caught(self):
        checker = InvariantChecker(strict=False)
        checker.check_settled(
            [_Site(2, prepared=[9])], [_Coordinator({9: {2, 3}})]
        )
        assert "site 2 never learnt the logged commit of txid 9" in (
            checker.violations[0]
        )

    def test_a_logged_commit_nobody_doubts_is_only_counted(self):
        """Its member applied it and lost every ack: nobody is in doubt."""
        checker = InvariantChecker()
        sites = [_Site(0), _Site(6)]
        assert checker.check_settled(sites, [_Coordinator({54: {6}})]) == 1
        assert checker.ok
