"""Tests for the engine's failure paths (``on_error`` and error_result).

The experiment service keeps an engine alive across many batches, so a
single poisoned spec must become a per-job error record — never a crashed
worker pool.  These tests pin that contract and the determinism of suites
containing partial failures.
"""

import pytest

from repro.api import (
    ExperimentEngine,
    ExperimentJob,
    ExperimentSpec,
    GraphSpec,
    WorkloadSpec,
    error_result,
)
from repro.api.registry import ALGORITHM_REGISTRY, register
from repro.network.errors import AlgorithmError
from repro.service.store import canonical_result


@pytest.fixture
def failing_runner():
    """A temporarily-registered runner whose run() always raises."""

    @register("zz-always-fails")
    class AlwaysFails:
        """Raises on every run; exists only for failure-path tests."""

        def run(self, spec, **options):
            raise ValueError("injected failure")

    try:
        yield "zz-always-fails"
    finally:
        ALGORITHM_REGISTRY.entries.pop("zz-always-fails", None)


class TestOnErrorModes:
    def test_default_is_raise(self):
        assert ExperimentEngine().on_error == "raise"

    def test_invalid_mode_rejected(self):
        with pytest.raises(AlgorithmError, match="on_error"):
            ExperimentEngine(on_error="ignore")

    def test_raise_mode_propagates_runner_exception(self, failing_runner):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(ValueError, match="injected failure"):
            engine.run([ExperimentJob(failing_runner, GraphSpec(nodes=8, seed=1))])

    def test_record_mode_yields_error_result_not_crash(self, failing_runner):
        engine = ExperimentEngine(jobs=1, on_error="record")
        good = ExperimentJob("kkt-mst", GraphSpec(nodes=12, density="sparse", seed=2))
        bad = ExperimentJob(failing_runner, GraphSpec(nodes=8, seed=1))
        results = engine.run([bad, good])
        assert len(results) == 2
        failed, succeeded = results
        assert not failed.ok
        assert failed.checks == {"completed": False}
        assert failed.extra["error"] == "injected failure"
        assert failed.extra["error_type"] == "ValueError"
        assert failed.messages == 0 and failed.rounds == 0
        assert succeeded.ok  # the rest of the batch still completed

    def test_record_mode_absorbs_unknown_algorithm(self):
        engine = ExperimentEngine(jobs=1, on_error="record")
        results = engine.run([ExperimentJob("no-such-algo", GraphSpec(nodes=8, seed=1))])
        assert not results[0].ok
        assert results[0].extra["error_type"] == "AlgorithmError"

    def test_raise_mode_fails_fast_on_unknown_algorithm(self):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(AlgorithmError):
            engine.seeded([ExperimentJob("no-such-algo", GraphSpec(nodes=8, seed=1))])


class TestErrorResultShape:
    def test_preserves_scenario_provenance(self):
        scenario = ExperimentSpec(
            graph=GraphSpec(nodes=10, density="sparse", seed=3),
            workload=WorkloadSpec(name="churn", updates=4),
        )
        result = error_result("kkt-repair", scenario, RuntimeError("boom"))
        assert result.algorithm == "kkt-repair"
        assert result.n == 10
        assert result.workload is not None and result.workload.name == "churn"
        assert result.wall_time_s == 0.0
        assert result.extra["error"] == "boom"

    def test_round_trips_through_dict(self):
        result = error_result("ghs", GraphSpec(nodes=6, seed=1), ValueError("x"))
        from repro.api import RunResult

        assert RunResult.from_dict(result.to_dict()) == result


class TestPartialFailureDeterminism:
    def test_parallel_equals_serial_with_partial_failures(self):
        # A bad option fails identically in-process and in a worker
        # subprocess (unlike a test-local runner class, which a subprocess
        # cannot see), so it is the right poison for this comparison.
        jobs = [
            ExperimentJob("kkt-mst", GraphSpec(nodes=16, density="sparse", seed=4)),
            ExperimentJob(
                "kkt-mst",
                GraphSpec(nodes=16, density="sparse", seed=4),
                {"phase_policy": "whenever"},
            ),
            ExperimentJob("ghs", GraphSpec(nodes=12, density="dense", seed=5)),
        ]
        serial = ExperimentEngine(jobs=1, on_error="record").run(jobs)
        parallel = ExperimentEngine(jobs=2, on_error="record").run(jobs)
        assert [canonical_result(r.to_dict()) for r in serial] == [
            canonical_result(r.to_dict()) for r in parallel
        ]
        assert [r.ok for r in serial] == [True, False, True]

    def test_repeated_runs_identical(self, failing_runner):
        engine = ExperimentEngine(jobs=1, on_error="record")
        job = ExperimentJob(failing_runner, GraphSpec(nodes=8, seed=9))
        first = engine.run([job])[0]
        second = engine.run([job])[0]
        assert canonical_result(first.to_dict()) == canonical_result(second.to_dict())
