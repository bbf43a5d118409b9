"""The Bracha delivery substrate: closed form == kernel run, same-tree runs."""

import sys
import threading

import pytest

from repro.api import ExperimentSpec, GraphSpec, get_runner
from repro.byzantine import (
    BrachaSubstrate,
    default_resilience,
    run_bracha_broadcast,
)
from repro.network.accounting import MessageAccountant
from repro.network.broadcast import (
    BroadcastEchoExecutor,
    active_substrate,
    delivery_substrate,
    list_substrates,
    make_substrate,
)
from repro.network.errors import AlgorithmError, ProtocolError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph


class TestRegistry:
    def test_builtin_substrates(self):
        assert list_substrates() == ["bracha", "plain"]

    def test_plain_builds_to_none(self):
        assert make_substrate("plain") is None
        assert make_substrate("plain", n=64) is None  # extra params ignored

    def test_bracha_defaults_to_the_maximum_resilience(self):
        substrate = make_substrate("bracha", n=10)
        assert isinstance(substrate, BrachaSubstrate)
        assert substrate.config.t == default_resilience(10) == 3
        assert make_substrate("bracha", n=10, t=1).config.t == 1

    def test_unsound_resilience_is_rejected_at_build_time(self):
        with pytest.raises(AlgorithmError, match="n > 3t"):
            make_substrate("bracha", n=6, t=2)

    def test_unknown_substrate_lists_the_registry(self):
        with pytest.raises(ProtocolError, match="registered substrates"):
            make_substrate("pigeon")



class TestClosedFormCrossValidation:
    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_hop_messages_equals_an_executed_bracha_instance(self, n):
        """The accounting model and the protocol are the same object."""
        substrate = make_substrate("bracha", n=n)
        run = run_bracha_broadcast(n, substrate.config.t, value=1)
        assert substrate.hop_messages == run.accountant.messages

    @pytest.mark.parametrize("n", [4, 9])
    def test_charge_messages_bills_all_three_waves(self, n):
        substrate = make_substrate("bracha", n=n)
        accountant = MessageAccountant()
        substrate.charge_messages(accountant, count=5, size_bits=8, kind="probe")
        assert accountant.messages == 5 * substrate.hop_messages
        # Every Bracha message carries the value plus the 2-bit wave tag.
        assert accountant.bits == accountant.messages * (8 + 2)

    def test_three_causal_waves_per_hop(self):
        assert make_substrate("bracha", n=4).rounds_per_hop == 3


class TestHardenedRuns:
    """`run --substrate bracha`: same tree, higher (quantified) cost."""

    @pytest.mark.parametrize("algorithm", ["kkt-mst", "kkt-st"])
    def test_zero_byzantine_bracha_run_builds_the_same_tree(self, algorithm):
        spec = ExperimentSpec(graph=GraphSpec(nodes=24, density="sparse", seed=3))
        runner = get_runner(algorithm)
        plain = runner.run(spec, record_state=True)
        hardened = runner.run(spec, record_state=True, substrate="bracha")
        assert plain.checks == hardened.checks and all(plain.checks.values())
        assert sorted(map(tuple, plain.extra["tree_edges"])) == sorted(
            map(tuple, hardened.extra["tree_edges"])
        )
        assert hardened.extra["substrate"] == "bracha"
        assert "substrate" not in plain.extra  # the plain path is unmarked
        assert hardened.messages > plain.messages
        # Every executor hop takes three waves instead of one; rounds charged
        # outside the broadcast executor are unaffected, so the total sits
        # strictly between the plain cost and a uniform tripling.
        assert plain.rounds < hardened.rounds <= 3 * plain.rounds

    @pytest.mark.parametrize(
        "algorithm, counters",
        [
            ("kkt-mst", {"messages": 5541505, "bits": 274303014, "rounds": 1509}),
            ("kkt-st", {"messages": 1278259, "bits": 35364197, "rounds": 630}),
        ],
    )
    def test_bracha_counters_are_pinned(self, algorithm, counters):
        # A hardened run charges through the substrate, not the plain
        # one-call charge, and its counters stay at these values.
        spec = ExperimentSpec(graph=GraphSpec(nodes=24, density="sparse", seed=3))
        hardened = get_runner(algorithm).run(spec, substrate="bracha")
        assert {key: hardened.counters()[key] for key in counters} == counters

    def test_plain_substrate_is_bit_identical_to_the_default(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=24, density="sparse", seed=3))
        runner = get_runner("kkt-mst")
        default = runner.run(spec)
        plain = runner.run(spec, substrate="plain")
        assert default.counters() == plain.counters()
        assert default.checks == plain.checks

    def test_repair_runner_supports_the_substrate_too(self):
        spec = ExperimentSpec(graph=GraphSpec(nodes=20, density="sparse", seed=6))
        runner = get_runner("kkt-repair")
        plain = runner.run(spec, updates=4)
        hardened = runner.run(spec, updates=4, substrate="bracha")
        assert plain.checks == hardened.checks
        assert hardened.messages > plain.messages
        assert hardened.extra["substrate"] == "bracha"

    def test_delivery_substrate_context_restores_the_previous_default(self):
        substrate = make_substrate("bracha", n=4)
        assert active_substrate() is None
        with delivery_substrate(substrate):
            assert active_substrate() is substrate
            with delivery_substrate(None):
                assert active_substrate() is None
            assert active_substrate() is substrate
        assert active_substrate() is None


def _plain_stats_charge() -> MessageAccountant:
    """One statistics B&E from node 1 over a 5-node path, on the executor's default."""
    graph = Graph(id_bits=4)
    for u in range(1, 5):
        graph.add_edge(u, u + 1, u)
    forest = SpanningForest(graph, marked=[(u, u + 1) for u in range(1, 5)])
    accountant = MessageAccountant()
    BroadcastEchoExecutor(graph, forest, accountant).broadcast_and_echo(
        1, broadcast_bits=8, echo_bits=12, kind="stats", aggregate=(5, 0, 0, 8)
    )
    return accountant


class TestPerThreadDefault:
    def test_a_block_open_in_another_thread_leaves_this_thread_plain(self):
        # Thread A holds a Bracha block open while thread B builds an
        # executor and charges one B&E: B's charge is the plain one.
        expected = _plain_stats_charge()
        assert expected.messages == 2 * 4 and expected.rounds == 2 * 4
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        def hold_block() -> None:
            with delivery_substrate(make_substrate("bracha", n=5)):
                seen["a"] = active_substrate()
                barrier.wait()  # the block is open
                barrier.wait()  # B has charged

        def charge() -> None:
            barrier.wait()
            try:
                seen["b"] = active_substrate()
                seen["charged"] = _plain_stats_charge()
            finally:
                barrier.wait()

        threads = [threading.Thread(target=hold_block), threading.Thread(target=charge)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        charged = seen["charged"]
        assert charged.summary() == expected.summary()
        assert charged.per_kind() == expected.per_kind() == {"stats:bcast": 4, "stats:echo": 4}
        assert isinstance(seen["a"], BrachaSubstrate)
        assert seen["b"] is None

    def test_concurrent_plain_and_bracha_runs_keep_their_own_counters(self):
        # Four threads run kkt-mst plain and over Bracha side by side,
        # switching every 10 µs: each run's counters must equal the same
        # run made alone.
        spec = ExperimentSpec(graph=GraphSpec(nodes=16, density="sparse", seed=3))
        runner = get_runner("kkt-mst")
        substrates = ["plain", "bracha"] * 2
        alone = {name: runner.run(spec, substrate=name).counters() for name in substrates}
        assert alone["plain"] != alone["bracha"]
        results = {index: [] for index in range(len(substrates))}

        def runs(index: int) -> None:
            for _ in range(3):
                results[index].append(runner.run(spec, substrate=substrates[index]).counters())

        threads = [threading.Thread(target=runs, args=(i,)) for i in range(len(substrates))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, name in enumerate(substrates):
            assert results[index] == [alone[name]] * 3, name
