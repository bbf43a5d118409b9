"""Tests for the experiment-running utilities."""

import pytest

from repro.analysis.experiments import run_construction_measurement
from repro.network.errors import AlgorithmError


class TestConstructionMeasurement:
    def test_mst_measurement_fields(self):
        measurement = run_construction_measurement(24, kind="mst", density="dense", seed=3)
        assert measurement.n == 24
        assert measurement.m == 24 * 23 // 4
        assert measurement.kkt_messages > 0
        assert measurement.baseline_name == "ghs"
        assert measurement.kkt_over_m > 0
        assert measurement.kkt_over_bound("n_log2_n_over_loglog_n") > 0

    def test_st_measurement_uses_flooding(self):
        measurement = run_construction_measurement(24, kind="st", density="sparse", seed=3)
        assert measurement.baseline_name == "flooding"
        m = measurement.m
        assert m <= measurement.baseline_messages <= 2 * m

    def test_kind_validation(self):
        with pytest.raises(AlgorithmError):
            run_construction_measurement(16, kind="bogus")

    def test_density_validation(self):
        with pytest.raises(AlgorithmError):
            run_construction_measurement(16, density="ultra")
