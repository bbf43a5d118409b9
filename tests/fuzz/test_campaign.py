"""Tests for FuzzCampaign: clean runs, planted bugs, shrinking, replay."""

import pytest

from repro.fuzz import (
    ORACLE_REGISTRY,
    FuzzCampaign,
    SpecSpace,
    Violation,
    replay_entry,
    report_to_json,
)
from repro.network.errors import AlgorithmError

SMALL_SPACE = SpecSpace(min_nodes=4, max_nodes=12, max_updates=4)


class PlantedBugOracle:
    """A deliberately planted oracle bug: flooding 'must' send no messages.

    Every real flooding run sends messages, so this fails on (almost) every
    spec — standing in for a systematic correctness bug the campaign must
    detect, shrink and persist.
    """

    name = "planted"

    def examine(self, spec, context):
        result = context.result("flooding")
        if result.messages > 0:
            return [
                Violation(self.name, f"flooding sent {result.messages} messages", "flooding")
            ]
        return []


class TestCleanCampaign:
    def test_zero_violations_on_main(self):
        campaign = FuzzCampaign(budget=8, seed=1, space=SMALL_SPACE, parallel_every=0)
        report = campaign.run()
        assert report["violation_count"] == 0
        assert report["violations"] == []
        assert len(campaign.corpus) == 0
        assert report["cases"] == 8
        assert set(report["oracle_checks"]) == set(ORACLE_REGISTRY.names())
        assert all(count == 8 for count in report["oracle_checks"].values())

    def test_report_deterministic_across_runs(self):
        make = lambda: FuzzCampaign(
            budget=6, seed=3, space=SMALL_SPACE, parallel_every=0
        ).run()
        assert report_to_json(make()) == report_to_json(make())

    def test_progress_lines_emitted(self):
        lines = []
        FuzzCampaign(
            budget=2, seed=0, space=SMALL_SPACE, parallel_every=0,
            progress=lines.append,
        ).run()
        assert any("2/2 cases" in line for line in lines)

    def test_bad_budget_rejected(self):
        with pytest.raises(AlgorithmError, match="budget"):
            FuzzCampaign(budget=0)

    def test_unknown_algorithm_rejected_up_front(self):
        with pytest.raises(AlgorithmError, match="registered algorithms"):
            FuzzCampaign(budget=1, algorithms=["dijkstra"])

    def test_shrink_predicate_restores_oracle_stats(self):
        """Shrink re-examinations must not inflate the published stats."""
        from repro.api import ExperimentSpec, GraphSpec

        campaign = FuzzCampaign(
            budget=1, seed=0, algorithms=["kkt-mst"],
            oracles=["differential"], space=SMALL_SPACE, parallel_every=0,
        )
        differential = campaign.oracles[0]
        predicate = campaign._still_fails(
            Violation("differential", "suspect", "kkt-mst")
        )
        # This spec makes kkt-mst blip for its own seed, so examining it
        # bumps the Monte Carlo counters — the predicate must restore them.
        blip_spec = ExperimentSpec(
            graph=GraphSpec(
                nodes=4, density="sparse", weight_model="adversarial", seed=493882
            )
        )
        assert predicate(blip_spec) is False  # blip absorbed: not failing
        assert differential.stats == {
            "monte_carlo_suspects": 0,
            "monte_carlo_blips": 0,
            "byzantine_flagged": 0,
            "batched_compared": 0,
            "batched_blips": 0,
        }


class TestPlantedBug:
    """The ISSUE's acceptance bar: a planted oracle bug is found, shrunk to
    <= 8 nodes with the failure preserved, and lands in a replayable corpus."""

    @pytest.fixture(scope="class")
    def campaign(self):
        campaign = FuzzCampaign(
            budget=3,
            seed=0,
            algorithms=["flooding"],
            oracles=[PlantedBugOracle()],
            space=SMALL_SPACE,
            parallel_every=0,
        )
        campaign.report = campaign.run()
        return campaign

    def test_violations_found(self, campaign):
        assert campaign.report["violation_count"] >= 1
        assert len(campaign.corpus) >= 1

    def test_shrunk_to_at_most_8_nodes(self, campaign):
        for entry in campaign.corpus:
            assert entry.minimized["graph"]["nodes"] <= 8
            assert entry.shrink_steps  # the shrinker actually did something

    def test_failure_preserved_by_minimized_spec(self, campaign):
        oracle = PlantedBugOracle()
        for entry in campaign.corpus:
            spec = entry.minimized_spec()
            from repro.fuzz import CaseContext

            violations = oracle.examine(spec, CaseContext(spec, ["flooding"]))
            assert violations, "the minimized spec no longer trips the planted bug"

    def test_minimized_spec_dropped_scenario_axes(self, campaign):
        for entry in campaign.corpus:
            assert entry.minimized["workload"] is None
            assert entry.minimized["schedule"] is None
            assert entry.minimized["faults"] is None

    def test_corpus_entries_carry_campaign_coordinates(self, campaign):
        for entry in campaign.corpus:
            assert entry.campaign_seed == 0
            assert entry.case_index is not None
            assert entry.oracle == "planted"

    def test_corpus_round_trips_byte_for_byte(self, campaign, tmp_path):
        path = tmp_path / "corpus.json"
        campaign.corpus.save(path)
        first = path.read_bytes()
        from repro.fuzz import Corpus

        Corpus.load(path).save(path)
        assert path.read_bytes() == first


class TestReplay:
    def test_replay_reproduces_and_detects_fixes(self, tmp_path):
        ORACLE_REGISTRY.register("planted")(PlantedBugOracle)
        try:
            campaign = FuzzCampaign(
                budget=1,
                seed=0,
                algorithms=["flooding"],
                oracles=[PlantedBugOracle()],
                space=SMALL_SPACE,
                parallel_every=0,
            )
            campaign.run()
            entries = list(campaign.corpus)
            assert entries
            assert replay_entry(entries[0])  # still fails: reproduced
        finally:
            ORACLE_REGISTRY.entries.pop("planted", None)

    def test_replay_unknown_oracle_is_actionable(self):
        from repro.fuzz import CorpusEntry
        from repro.api import ExperimentSpec, GraphSpec

        entry = CorpusEntry(
            oracle="haruspex",
            detail="x",
            spec=ExperimentSpec(graph=GraphSpec(nodes=4, seed=0)).to_dict(),
            minimized=ExperimentSpec(graph=GraphSpec(nodes=4, seed=0)).to_dict(),
        )
        with pytest.raises(AlgorithmError, match="registered oracles"):
            replay_entry(entry)


class TestOracleCrashHandling:
    def test_crashing_oracle_becomes_a_violation(self):
        class CrashingOracle:
            name = "crash"

            def examine(self, spec, context):
                raise RuntimeError("kaboom")

        campaign = FuzzCampaign(
            budget=1,
            seed=0,
            algorithms=["flooding"],
            oracles=[CrashingOracle()],
            space=SMALL_SPACE,
            parallel_every=0,
            shrink=False,
        )
        report = campaign.run()
        assert report["violation_count"] == 1
        assert "kaboom" in report["violations"][0]["detail"]
