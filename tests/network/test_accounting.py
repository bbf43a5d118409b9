"""Unit tests for message/bit/round accounting."""

import re

import pytest

from repro.network.accounting import (
    CostDelta,
    CostSnapshot,
    MessageAccountant,
    PhaseRecord,
)
from repro.network.errors import AccountingError

FIELDS = ("messages", "bits", "rounds", "broadcast_echoes")


def _charged_both_ways(steps):
    """Two accountants charged the same ``steps``: B&Es by one call, and wave by wave.

    A step is ``("wave", count)``, ``count`` 4-bit ``testout:echo``
    messages charged to both, or ``(kind, count, bcast_bits, echo_bits,
    rounds)``, one B&E: the first accountant takes it as one
    ``record_broadcast_echo_cost``, the second as ``record_broadcast_echo``,
    two ``record_messages`` and ``record_rounds``.
    """
    one, three = MessageAccountant(), MessageAccountant()
    for step in steps:
        if step[0] == "wave":
            for acct in (one, three):
                acct.record_messages(step[1], 4, kind="testout:echo")
            continue
        kind, count, bcast_bits, echo_bits, rounds = step
        one.record_broadcast_echo_cost(count, bcast_bits, echo_bits, kind, rounds)
        three.record_broadcast_echo()
        three.record_messages(count, bcast_bits, kind=f"{kind}:bcast")
        three.record_messages(count, echo_bits, kind=f"{kind}:echo")
        three.record_rounds(rounds)
    return one, three


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
        one, three = _charged_both_ways(
            [("wave", 2), ("testout", count, bcast_bits, echo_bits, rounds)]
        )
        assert one.summary() == three.summary()
        assert list(one.per_kind().items()) == list(three.per_kind().items())

    @pytest.mark.parametrize(
        "steps",
        [
            [("wave", 2), ("testout", 5, 8, 3, 6), ("testout", 2, 8, 3, 4)],
            [("testout", 5, 8, 3, 6), ("wave", 2), ("testout", 2, 8, 3, 4)],
            [("testout", 5, 8, 3, 6), ("testout", 2, 8, 3, 4), ("wave", 2)],
            [("testout", 0, 0, 0, 0), ("stats", 3, 8, 9, 2), ("testout", 5, 8, 3, 6)],
            [("testout", 0, 8, 3, 0), ("wave", 1), ("testout", 4, 8, 3, 2)],
            [("testout", 5, 8, 3, 6), ("testout", 0, 0, 0, 0), ("wave", 3)],
            [
                ("stats", 3, 8, 9, 2),
                ("testout", 5, 8, 3, 6),
                ("wave", 1),
                ("stats", 0, 8, 9, 0),
                ("hp_testout", 1, 70, 60, 2),
                ("testout", 2, 8, 3, 4),
            ],
        ],
        ids=[
            "echo-before",
            "echo-between",
            "echo-after",
            "zero-count-first",
            "zero-count-then-echo",
            "zero-count-after",
            "three-kinds",
        ],
    )
    def test_broadcast_echo_cost_interleaved_with_waves(self, steps):
        # A ``testout:echo`` wave charged before, between or after the
        # B&Es, and B&Es that send nothing, leave per_kind() with the keys,
        # values and insertion order of the wave-by-wave charge.
        one, three = _charged_both_ways(steps)
        assert one.summary() == three.summary()
        assert one.snapshot() == three.snapshot()
        assert list(one.per_kind().items()) == list(three.per_kind().items())

    @pytest.mark.parametrize("charged_before", [False, True], ids=["new-kind", "known-kind"])
    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 8, 8, 0), "cannot charge a negative number of messages"),
            ((2, 0, 8, 0), "a message carries at least one bit"),
            ((2, 8, 0, 0), "a message carries at least one bit"),
            ((2, 8, 8, -1), "cannot advance time backwards"),
            ((-1, 8, 8, -1), "cannot charge a negative number of messages"),
        ],
        ids=["negative-count", "zero-bcast-bits", "zero-echo-bits", "negative-rounds", "both"],
    )
    def test_broadcast_echo_cost_keeps_the_checks(self, args, message, charged_before):
        # The same three messages whether or not the kind was charged before.
        acct = MessageAccountant()
        if charged_before:
            acct.record_broadcast_echo_cost(1, 8, 8, "b&e", 2)
        count, bcast_bits, echo_bits, rounds = args
        with pytest.raises(AccountingError, match=f"^{re.escape(message)}$"):
            acct.record_broadcast_echo_cost(count, bcast_bits, echo_bits, "b&e", rounds)

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
        with pytest.raises(
            AccountingError, match="^snapshot does not belong to this accountant$"
        ):
            a.since(snap)

    def test_snapshot_fields_in_order(self):
        acct = MessageAccountant()
        acct.record_broadcast_echo_cost(3, 8, 5, "stats", 4)
        snap = acct.snapshot()
        assert CostSnapshot._fields == FIELDS
        assert snap == CostSnapshot(6, 39, 4, 1)
        assert tuple(getattr(snap, name) for name in FIELDS) == (6, 39, 4, 1)
        acct.record_message(7)
        delta = acct.since(snap)
        assert type(delta) is CostDelta
        assert delta == CostDelta(messages=1, bits=7, rounds=0, broadcast_echoes=0)

    def test_reset(self):
        acct = MessageAccountant()
        acct.record_message(8)
        acct.record_rounds(1)
        acct.record_broadcast_echo_cost(2, 8, 8, "stats", 2)
        acct.reset()
        assert acct.summary() == {
            "messages": 0,
            "bits": 0,
            "rounds": 0,
            "broadcast_echoes": 0,
        }
        assert acct.per_kind() == {}
        acct.record_broadcast_echo_cost(1, 8, 8, "stats", 2)
        assert acct.per_kind() == {"stats:bcast": 1, "stats:echo": 1}


class TestCostDelta:
    def test_fields_in_order(self):
        assert CostDelta._fields == FIELDS
        delta = CostDelta(1, 10, 2, 3)
        assert tuple(getattr(delta, name) for name in FIELDS) == (1, 10, 2, 3)

    def test_addition(self):
        a = CostDelta(1, 10, 2, 1)
        b = CostDelta(2, 20, 3, 0)
        total = a + b
        assert type(total) is CostDelta
        assert total == CostDelta(3, 30, 5, 1)

    def test_zero_identity(self):
        a = CostDelta(1, 10, 2, 1)
        assert CostDelta.zero() == CostDelta(0, 0, 0, 0)
        assert a + CostDelta.zero() == a
        assert CostDelta.zero() + a == a
        assert sum([a, a], CostDelta.zero()) == CostDelta(2, 20, 4, 2)
