"""Coverage for small surfaces: stats, cost model, pool images, dtypes."""

import numpy as np
import pytest

from repro.graph.dtypes import DataType
from repro.mvx.scheduler import InferenceOptions, run
from repro.observability import MetricsRegistry, Sinks
from repro.simulation import CostModel
from repro.simulation.pipeline import StagePlan, VariantSim


class TestCostModelUnits:
    COST = CostModel()

    def test_compute_time_linear_in_flops(self):
        assert self.COST.compute_time(2e9) == pytest.approx(2 * self.COST.compute_time(1e9))

    def test_runtime_factor_speeds_up(self):
        assert self.COST.compute_time(1e9, 2.0) == pytest.approx(
            self.COST.compute_time(1e9) / 2
        )

    def test_transfer_encrypted_costs_more(self):
        plain = self.COST.transfer_time(10**6, encrypted=False)
        enc = self.COST.transfer_time(10**6, encrypted=True)
        assert enc > plain

    def test_verify_time_scales_with_pairs(self):
        one = self.COST.verify_time(10**6, 1)
        four = self.COST.verify_time(10**6, 4)
        assert four > one

    def test_stage_plan_requires_variants(self):
        with pytest.raises(ValueError, match="no variants"):
            StagePlan(index=0, flops=1.0, output_bytes=1, variants=[], slow_path=False)

    def test_variant_sim_defaults(self):
        assert VariantSim("v").runtime_factor == 1.0


class TestDataTypes:
    def test_numpy_mapping(self):
        assert DataType.FLOAT32.numpy == np.dtype("float32")
        assert DataType.INT64.itemsize == 8

    def test_from_numpy_roundtrip(self):
        for dt in DataType:
            assert DataType.from_numpy(dt.numpy) is dt

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError, match="unsupported"):
            DataType.from_numpy(np.dtype("complex64"))


class TestRunStatsTimings:
    def test_stage_timings_recorded(self, deployed_system, small_input):
        registry = MetricsRegistry()
        run(
            deployed_system.monitor,
            [{"input": small_input}],
            InferenceOptions(sinks=Sinks(metrics=registry)),
        )
        hist = registry.histogram("mvtee_stage_seconds")
        timings = {index: hist.sum(partition=index) for index in range(3)}
        assert all(hist.count(partition=index) == 1 for index in timings)
        assert all(t > 0 for t in timings.values())
        # The 3-variant MVX stage costs more wall time than fast-path stages.
        assert timings[1] > timings[2]


class TestPoolHygiene:
    def test_distinct_variant_keys(self, deployed_system):
        keys = {
            artifact.key_record.key
            for artifacts in deployed_system.pool.artifacts.values()
            for artifact in artifacts
        }
        assert len(keys) == deployed_system.pool.total_variants()

    def test_artifact_models_match_partition_boundaries(self, deployed_system):
        ps = deployed_system.partition_set
        for index, artifacts in deployed_system.pool.artifacts.items():
            expected_out = {s.name for s in ps.subgraph(index).outputs}
            for artifact in artifacts:
                assert {s.name for s in artifact.model.outputs} == expected_out

    def test_variant_ids_unique(self, deployed_system):
        ids = [
            a.variant_id
            for artifacts in deployed_system.pool.artifacts.values()
            for a in artifacts
        ]
        assert len(set(ids)) == len(ids)
