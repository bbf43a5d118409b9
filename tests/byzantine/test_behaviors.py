"""Unit tests for the Byzantine behaviours and their kernel-boundary injector."""

import pytest

from repro.byzantine import (
    BYZANTINE_PROGRAMS,
    ByzantineBehavior,
    ByzantineInjector,
    corrupt_value,
)
from repro.network.faults import DELIVER, DROP
from repro.network.errors import SimulationError
from repro.network.message import Message


def _message(sender=1, receiver=2, payload=None, kind="DATA"):
    return Message(sender=sender, receiver=receiver, kind=kind, payload=payload,
                   size_bits=8)


class TestCorruptValue:
    def test_booleans_flip(self):
        assert corrupt_value(True, 0) is False
        assert corrupt_value(False, 5) is True

    @pytest.mark.parametrize("value", [0, 1, 7, 255, 2 ** 40 + 3])
    @pytest.mark.parametrize("salt", [0, 1, 17])
    def test_integers_change_but_stay_nonnegative(self, value, salt):
        corrupted = corrupt_value(value, salt)
        assert corrupted != value
        assert corrupted >= 0
        # Deterministic: the same (value, salt) always lies the same way.
        assert corrupt_value(value, salt) == corrupted

    def test_negative_integers_flip_sign(self):
        assert corrupt_value(-3, 0) == 3

    def test_sequences_corrupt_their_first_corruptible_element(self):
        assert corrupt_value((None, 4, 5), 0) == (None, corrupt_value(4, 1), 5)
        assert corrupt_value([2, 3], 7) == [corrupt_value(2, 7), 3]

    @pytest.mark.parametrize("value", [None, "text", ("a", None), object()])
    def test_uncorruptible_values_return_none(self, value):
        assert corrupt_value(value, 0) is None


class TestByzantineBehavior:
    def test_rejects_unknown_program(self):
        with pytest.raises(SimulationError, match="known programs"):
            ByzantineBehavior({1}, "bribe")

    def test_none_seed_means_seed_zero(self):
        assert ByzantineBehavior({1}, "silent", seed=None).seed == 0

    def test_acts_on_gates_by_sender(self):
        behavior = ByzantineBehavior({1, 3}, "silent")
        assert behavior.acts_on(_message(sender=1))
        assert not behavior.acts_on(_message(sender=2))  # honest sender

    def test_lies_to_is_a_fixed_function_of_the_edge(self):
        behavior = ByzantineBehavior({1}, "equivocate", seed=4)
        first = [behavior.lies_to(1, receiver) for receiver in range(2, 40)]
        second = [behavior.lies_to(1, receiver) for receiver in range(2, 40)]
        assert first == second  # independent of call order / history
        assert any(first) and not all(first)  # a genuine split, not all/none

    def test_programs_tuple_is_the_public_contract(self):
        assert BYZANTINE_PROGRAMS == ("corrupt", "equivocate", "replay", "silent")


class TestSilentInjector:
    def test_suppresses_and_logs_compromised_sends(self):
        injector = ByzantineInjector(ByzantineBehavior({1}, "silent"))
        assert injector.verdict(_message(sender=1), 0) == DROP
        assert injector.verdict(_message(sender=3), 0) == DELIVER
        assert injector.event_log() == [[0, "byz-silent", 1, 2]]


class TestCorruptInjector:
    def test_mutates_payload_in_place_and_logs(self):
        injector = ByzantineInjector(ByzantineBehavior({1}, "corrupt", seed=2))
        message = _message(payload=40)
        assert injector.on_deliver(message, 3) is None
        assert message.payload == corrupt_value(40, salt=3)  # seed + 1
        assert injector.event_log() == [[3, "byz-corrupt", 1, 2]]

    def test_uncorruptible_payload_passes_unlogged(self):
        injector = ByzantineInjector(ByzantineBehavior({1}, "corrupt"))
        message = _message(payload="hello")
        assert injector.on_deliver(message, 0) is None
        assert message.payload == "hello"
        assert injector.event_log() == []


class TestEquivocateInjector:
    def test_split_is_stable_per_receiver(self):
        behavior = ByzantineBehavior({1}, "equivocate", seed=6)
        injector = ByzantineInjector(behavior)
        for receiver in range(2, 30):
            outcomes = set()
            for _ in range(3):
                message = _message(receiver=receiver, payload=32)
                injector.on_deliver(message, 0)
                outcomes.add(message.payload)
            # The same edge always sees the same (true or false) value.
            assert len(outcomes) == 1
            assert (outcomes == {32}) != behavior.lies_to(1, receiver)

    def test_some_receivers_are_lied_to_and_some_are_not(self):
        injector = ByzantineInjector(ByzantineBehavior({1}, "equivocate", seed=6))
        payloads = set()
        for receiver in range(2, 30):
            message = _message(receiver=receiver, payload=32)
            injector.on_deliver(message, 0)
            payloads.add(message.payload)
        assert len(payloads) == 2  # the truth and one consistent lie


class TestReplayInjector:
    def test_first_message_becomes_the_stale_template(self):
        injector = ByzantineInjector(ByzantineBehavior({1}, "replay"))
        first = _message(payload=5, kind="A")
        assert injector.on_deliver(first, 0) is None  # observed, not replayed
        second = _message(payload=6, kind="B")
        replay = injector.on_deliver(second, 1)
        assert replay is not None
        assert (replay.kind, replay.payload) == ("A", 5)  # the stale content
        assert replay.sequence != first.sequence  # a fresh wire send
        assert injector.event_log() == [[1, "byz-replay", 1, 2]]

    def test_replayed_clones_are_never_re_tampered(self):
        injector = ByzantineInjector(ByzantineBehavior({1}, "replay"))
        injector.on_deliver(_message(payload=5), 0)
        replay = injector.on_deliver(_message(payload=6), 1)
        # When the kernel later delivers the clone, the injector must not
        # spawn a replay of the replay (bounded chains).
        assert injector.on_deliver(replay, 2) is None
        assert len(injector.event_log()) == 1


class TestInertAdversary:
    def test_empty_node_set_is_bit_identical_to_the_base_injector(self):
        injector = ByzantineInjector(ByzantineBehavior((), "equivocate"))
        message = _message(payload=7)
        assert injector.verdict(message, 0) == DELIVER
        assert injector.on_deliver(message, 0) is None
        assert message.payload == 7
        assert injector.event_log() == []
        assert injector.byzantine_nodes == []

    def test_injector_inherits_the_behavior_seed(self):
        injector = ByzantineInjector(ByzantineBehavior({2}, "silent", seed=9))
        assert injector.byzantine_nodes == [2]
