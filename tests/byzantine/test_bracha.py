"""Unit tests for Bracha reliable broadcast: thresholds, runs, rejection."""

import math

import pytest

from repro.byzantine import (
    BYZANTINE_PROGRAMS,
    BrachaConfig,
    BrachaRun,
    ByzantineBehavior,
    ByzantineInjector,
    complete_graph,
    run_bracha_broadcast,
)
from repro.network.errors import AlgorithmError, SimulationError


class TestBrachaConfig:
    def test_textbook_thresholds_for_n4_t1(self):
        config = BrachaConfig(n=4, t=1)
        assert config.echo_threshold == 3  # ceil((4 + 1 + 1) / 2)
        assert config.ready_support == 2  # t + 1
        assert config.ready_threshold == 3  # 2t + 1

    @pytest.mark.parametrize("n", range(1, 20))
    def test_echo_threshold_is_the_paper_ceiling(self, n):
        for t in range((n - 1) // 3 + 1):
            config = BrachaConfig(n=n, t=t)
            assert config.echo_threshold == math.ceil((n + t + 1) / 2)

    @pytest.mark.parametrize(
        ("n", "t"), [(3, 1), (4, 2), (6, 2), (9, 3), (12, 4), (1, 1)]
    )
    def test_rejects_t_at_or_above_a_third(self, n, t):
        with pytest.raises(AlgorithmError, match="n > 3t"):
            BrachaConfig(n=n, t=t)

    def test_rejection_message_names_the_tolerated_bound(self):
        with pytest.raises(AlgorithmError, match="at most t=1"):
            BrachaConfig(n=4, t=2)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(AlgorithmError):
            BrachaConfig(n=0, t=0)
        with pytest.raises(AlgorithmError):
            BrachaConfig(n=4, t=-1)

    def test_message_bits_adds_the_wave_tag(self):
        assert BrachaConfig(n=4, t=1).message_bits(8) == 10


class TestCompleteGraph:
    def test_shape(self):
        graph = complete_graph(5)
        assert sorted(graph.nodes()) == [1, 2, 3, 4, 5]
        assert graph.num_edges == 10

    def test_rejects_empty_group(self):
        with pytest.raises(AlgorithmError):
            complete_graph(0)


class TestFaultFreeRuns:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    @pytest.mark.parametrize(("n", "t"), [(4, 1), (7, 2), (10, 3)])
    def test_every_node_delivers_the_senders_value(self, n, t, engine):
        run = run_bracha_broadcast(n, t, value=42, engine=engine)
        assert run.delivered == {node: 42 for node in range(1, n + 1)}
        assert run.fault_events == []

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_message_count_matches_the_closed_form(self, n):
        run = run_bracha_broadcast(n, (n - 1) // 3, value=9)
        # One INIT wave (n-1) plus full ECHO and READY waves (n(n-1) each).
        assert run.accountant.messages == (n - 1) * (2 * n + 1)
        assert run.accountant.bits == run.accountant.messages * (8 + 2)

    def test_single_node_group_delivers_to_itself(self):
        run = run_bracha_broadcast(1, 0, value=7)
        assert run.delivered == {1: 7}
        assert run.accountant.messages == 0

    def test_non_default_sender(self):
        run = run_bracha_broadcast(4, 1, value=3, sender=4)
        assert run.delivered == {node: 3 for node in range(1, 5)}

    def test_rejects_sender_outside_the_group(self):
        with pytest.raises(AlgorithmError, match="sender"):
            run_bracha_broadcast(4, 1, value=0, sender=5)

    def test_rejects_unknown_engine(self):
        with pytest.raises(SimulationError, match="engine"):
            run_bracha_broadcast(4, 1, value=0, engine="quantum")

    def test_runs_are_deterministic(self):
        first = run_bracha_broadcast(7, 2, value=11)
        second = run_bracha_broadcast(7, 2, value=11)
        assert first.delivered == second.delivered
        assert first.accountant.summary() == second.accountant.summary()


class TestUnderAttack:
    def test_silent_sender_delivers_nothing_anywhere(self):
        behavior = ByzantineBehavior({1}, "silent")
        run = run_bracha_broadcast(4, 1, value=5, faults=ByzantineInjector(behavior))
        assert run.honest_delivered({1}) == {2: None, 3: None, 4: None}
        assert all(event[1] == "byz-silent" for event in run.fault_events)
        assert run.fault_events  # the suppressed sends are on the record

    def test_honest_sender_survives_a_silent_minority(self):
        behavior = ByzantineBehavior({3}, "silent")
        run = run_bracha_broadcast(4, 1, value=5, faults=ByzantineInjector(behavior))
        assert run.honest_delivered({3}) == {1: 5, 2: 5, 4: 5}

    def test_equivocating_sender_cannot_split_the_honest_nodes(self):
        behavior = ByzantineBehavior({1}, "equivocate", seed=3)
        run = run_bracha_broadcast(7, 2, value=64, faults=ByzantineInjector(behavior))
        delivered = {
            value for value in run.honest_delivered({1}).values() if value is not None
        }
        assert len(delivered) <= 1  # agreement: at most one value group-wide

    @pytest.mark.parametrize("program", BYZANTINE_PROGRAMS)
    def test_attacked_runs_are_deterministic(self, program):
        def attacked():
            behavior = ByzantineBehavior({1, 5}, program, seed=2)
            return run_bracha_broadcast(7, 2, value=64, faults=ByzantineInjector(behavior))

        first, second = attacked(), attacked()
        assert first.fault_events == second.fault_events
        assert first.delivered == second.delivered
        assert first.accountant.summary() == second.accountant.summary()

    @pytest.mark.parametrize("program", BYZANTINE_PROGRAMS)
    def test_the_attack_history_names_only_compromised_senders(self, program):
        behavior = ByzantineBehavior({1, 5}, program, seed=2)
        run = run_bracha_broadcast(7, 2, value=64, faults=ByzantineInjector(behavior))
        assert run.fault_events  # every program lands at least one attack here
        assert {event[1] for event in run.fault_events} == {f"byz-{program}"}
        assert {event[2] for event in run.fault_events} <= {1, 5}
        assert all(event[3] not in (None, event[2]) for event in run.fault_events)

    def test_honest_delivered_filters_the_compromised_nodes(self):
        run = BrachaRun(
            config=BrachaConfig(n=4, t=1),
            sender=1,
            delivered={1: 9, 2: 9, 3: None, 4: 9},
            accountant=None,
        )
        assert run.honest_delivered({1, 3}) == {2: 9, 4: 9}
