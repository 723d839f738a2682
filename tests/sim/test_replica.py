"""Unit tests for timestamps and versioned storage."""

import pickle

import pytest

from repro.sim.replica import (
    ZERO_TIMESTAMP,
    StoredValue,
    Timestamp,
    VersionedStore,
    dominant,
)


class TestTimestampOrder:
    def test_higher_version_dominates(self):
        assert Timestamp(2, 5).supersedes(Timestamp(1, 0))

    def test_equal_version_lower_sid_dominates(self):
        """Section 3.2.1: highest version number, lowest SID."""
        assert Timestamp(1, 2).supersedes(Timestamp(1, 5))
        assert not Timestamp(1, 5).supersedes(Timestamp(1, 2))

    def test_nothing_dominates_itself(self):
        ts = Timestamp(3, 1)
        assert not ts.supersedes(ts)

    def test_zero_timestamp_is_oldest(self):
        assert Timestamp(1, 99).supersedes(ZERO_TIMESTAMP)

    def test_sort_key_agrees_with_dominates(self):
        stamps = [Timestamp(1, 3), Timestamp(2, 9), Timestamp(2, 1), Timestamp(1, 0)]
        best = max(stamps, key=Timestamp.sort_key)
        assert all(best == other or best.supersedes(other) for other in stamps)
        assert best == Timestamp(2, 1)

    def test_next_version(self):
        ts = Timestamp(4, 7).next_version(writer_sid=2)
        assert ts == Timestamp(5, 2)

    def test_dominant_helper(self):
        assert dominant([Timestamp(1, 1), Timestamp(3, 4)]) == Timestamp(3, 4)
        with pytest.raises(ValueError):
            dominant([])

    def test_str(self):
        assert str(Timestamp(3, 1)) == "v3@1"


class TestVersionedStore:
    def test_unwritten_key_has_zero_timestamp(self):
        store = VersionedStore()
        entry = store.read("k")
        assert entry.value is None
        assert entry.timestamp == ZERO_TIMESTAMP

    def test_apply_and_read(self):
        store = VersionedStore()
        assert store.apply_write("k", "v", Timestamp(1, 0))
        entry = store.read("k")
        assert entry.value == "v"
        assert entry.timestamp == Timestamp(1, 0)

    def test_stale_write_ignored(self):
        store = VersionedStore()
        store.apply_write("k", "new", Timestamp(2, 0))
        assert not store.apply_write("k", "old", Timestamp(1, 0))
        assert store.read("k").value == "new"

    def test_equal_version_higher_sid_ignored(self):
        store = VersionedStore()
        store.apply_write("k", "a", Timestamp(1, 1))
        assert not store.apply_write("k", "b", Timestamp(1, 5))
        assert store.read("k").value == "a"

    def test_equal_version_lower_sid_wins(self):
        store = VersionedStore()
        store.apply_write("k", "a", Timestamp(1, 5))
        assert store.apply_write("k", "b", Timestamp(1, 1))
        assert store.read("k").value == "b"

    def test_replay_is_idempotent(self):
        store = VersionedStore()
        store.apply_write("k", "v", Timestamp(1, 0))
        assert not store.apply_write("k", "v", Timestamp(1, 0))

    def test_counters(self):
        store = VersionedStore()
        store.apply_write("k", "a", Timestamp(1, 0))
        store.apply_write("k", "b", Timestamp(2, 0))
        store.apply_write("k", "stale", Timestamp(1, 0))
        assert store.applied_writes == 2
        assert store.ignored_writes == 1

    def test_version_of(self):
        store = VersionedStore()
        store.apply_write("k", "v", Timestamp(7, 3))
        assert store.version_of("k") == Timestamp(7, 3)
        assert store.version_of("other") == ZERO_TIMESTAMP

    def test_keys_and_len(self):
        store = VersionedStore()
        store.apply_write("a", 1, Timestamp(1, 0))
        store.apply_write("b", 2, Timestamp(1, 0))
        assert sorted(store.keys()) == ["a", "b"]
        assert len(store) == 2


class TestValueSemantics:
    """What the frozen dataclasses gave, kept by the slotted classes."""

    def test_timestamp_equality_hash_repr_and_str(self):
        ts = Timestamp(3, 1)
        assert ts == Timestamp(version=3, sid=1)
        assert ts != Timestamp(3, 2) and ts != (3, 1)
        assert hash(ts) == hash((3, 1))
        assert {ts: "v"}[Timestamp(3, 1)] == "v"
        assert repr(ts) == "Timestamp(version=3, sid=1)"
        assert str(ts) == "v3@1"

    def test_timestamps_have_no_order(self):
        with pytest.raises(TypeError):
            Timestamp(1, 0) < Timestamp(2, 0)

    def test_stored_value_equality_repr_and_no_hash(self):
        entry = StoredValue("v", Timestamp(1, 0))
        assert entry == StoredValue(value="v", timestamp=Timestamp(1, 0))
        assert entry != StoredValue("w", Timestamp(1, 0))
        assert repr(entry) == (
            "StoredValue(value='v', timestamp=Timestamp(version=1, sid=0))"
        )
        with pytest.raises(TypeError):
            hash(entry)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickling_round_trips(self, protocol):
        for value in (Timestamp(2, 5), StoredValue([1], Timestamp(2, 5))):
            assert pickle.loads(pickle.dumps(value, protocol)) == value

    def test_a_miss_reads_as_never_written(self):
        store = VersionedStore()
        assert store.read("a") == StoredValue(None, ZERO_TIMESTAMP)
        assert store.read("a") is store.read("b")  # one shared entry
