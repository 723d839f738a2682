"""Unit tests for the transaction-id source."""

from repro.sim.transactions import TransactionIdSource


class TestTransactionIdSource:
    def test_ids_are_unique_and_increasing(self):
        source = TransactionIdSource()
        ids = [source.next_id() for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_custom_start(self):
        assert TransactionIdSource(start=100).next_id() == 100

    def test_sources_are_independent(self):
        a, b = TransactionIdSource(), TransactionIdSource()
        assert a.next_id() == b.next_id() == 1
