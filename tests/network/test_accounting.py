"""Unit tests for message/bit/round accounting."""

import pytest

from repro.network.accounting import (
    CostDelta,
    MessageAccountant,
    PhaseRecord,
)
from repro.network.errors import AccountingError


class TestRecording:
    def test_single_message(self):
        acct = MessageAccountant()
        acct.record_message(17, kind="test")
        assert acct.messages == 1
        assert acct.bits == 17
        assert acct.per_kind() == {"test": 1}

    def test_bulk_messages(self):
        acct = MessageAccountant()
        acct.record_messages(5, 8, kind="bulk")
        assert acct.messages == 5
        assert acct.bits == 40

    def test_zero_bulk_is_noop(self):
        acct = MessageAccountant()
        acct.record_messages(0, 8)
        assert acct.messages == 0 and acct.bits == 0

    def test_rejects_zero_bit_messages(self):
        acct = MessageAccountant()
        with pytest.raises(AccountingError):
            acct.record_message(0)
        with pytest.raises(AccountingError):
            acct.record_messages(3, 0)

    def test_rejects_negative_counts(self):
        acct = MessageAccountant()
        with pytest.raises(AccountingError):
            acct.record_messages(-1, 8)
        with pytest.raises(AccountingError):
            acct.record_rounds(-1)

    def test_rounds_and_broadcast_echoes(self):
        acct = MessageAccountant()
        acct.record_rounds(3)
        acct.record_broadcast_echo()
        acct.record_broadcast_echo()
        assert acct.rounds == 3
        assert acct.broadcast_echoes == 2

    @pytest.mark.parametrize(
        "count, bcast_bits, echo_bits, rounds",
        [(5, 8, 3, 6), (1, 1, 64, 2), (0, 8, 3, 0), (0, 0, 0, 0)],
        ids=["tree", "one-edge", "single-node", "single-node-zero-bits"],
    )
    def test_broadcast_echo_cost_equals_the_three_calls(
        self, count, bcast_bits, echo_bits, rounds
    ):
        # One call charges what record_broadcast_echo, two record_messages
        # and record_rounds charge, kinds in the same order; a single-node
        # tree (count 0) sends nothing, so its bit widths are never checked.
        one, three = MessageAccountant(), MessageAccountant()
        for acct in (one, three):
            acct.record_messages(2, 4, kind="testout:echo")
        one.record_broadcast_echo_cost(
            count, bcast_bits, echo_bits, ("testout:bcast", "testout:echo"), rounds
        )
        three.record_broadcast_echo()
        three.record_messages(count, bcast_bits, kind="testout:bcast")
        three.record_messages(count, echo_bits, kind="testout:echo")
        three.record_rounds(rounds)
        assert one.summary() == three.summary()
        assert list(one.per_kind().items()) == list(three.per_kind().items())

    def test_broadcast_echo_cost_keeps_the_checks(self):
        acct = MessageAccountant()
        labels = ("b&e:bcast", "b&e:echo")
        for args in ((-1, 8, 8, 0), (2, 0, 8, 0), (2, 8, 0, 0), (2, 8, 8, -1)):
            with pytest.raises(AccountingError):
                acct.record_broadcast_echo_cost(*args[:3], labels, args[3])

    def test_phase_records(self):
        acct = MessageAccountant()
        acct.record_phase(PhaseRecord("p0", messages=10, bits=100, rounds=4))
        assert len(acct.phases) == 1
        assert acct.phases[0].label == "p0"


class TestSnapshots:
    def test_since_measures_delta(self):
        acct = MessageAccountant()
        acct.record_message(8)
        snap = acct.snapshot()
        acct.record_messages(3, 4)
        acct.record_rounds(2)
        delta = acct.since(snap)
        assert delta.messages == 3
        assert delta.bits == 12
        assert delta.rounds == 2

    def test_foreign_snapshot_detected(self):
        a = MessageAccountant()
        b = MessageAccountant()
        b.record_messages(10, 8)
        snap = b.snapshot()
        with pytest.raises(AccountingError):
            a.since(snap)

    def test_reset(self):
        acct = MessageAccountant()
        acct.record_message(8)
        acct.record_rounds(1)
        acct.reset()
        assert acct.summary() == {
            "messages": 0,
            "bits": 0,
            "rounds": 0,
            "broadcast_echoes": 0,
        }


class TestCostDelta:
    def test_addition(self):
        a = CostDelta(1, 10, 2, 1)
        b = CostDelta(2, 20, 3, 0)
        total = a + b
        assert total == CostDelta(3, 30, 5, 1)

    def test_zero_identity(self):
        a = CostDelta(1, 10, 2, 1)
        assert a + CostDelta.zero() == a
