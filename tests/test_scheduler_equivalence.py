"""Functional equivalence of sequential and pipelined serving.

One request at a time through ``infer()`` is the reference.  The
serving engine pipelines requests -- micro-batches, with
``num_workers`` of them in flight at once -- and the contract is that
the overlap is *invisible* functionally: same outputs on clean runs,
and on a mid-stream divergence the same request set fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mvx import (
    InferenceService,
    MvteeSystem,
    RequestState,
    ResponseAction,
)
from repro.runtime.faults import FaultInjector
from repro.serving import ServingPolicy

NUM_BATCHES = 6


def deploy(small_resnet, *, response=ResponseAction.HALT):
    system = MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={1: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )
    system.monitor.response_action = response
    return system


def batch_stream(count=NUM_BATCHES):
    return [
        {
            "input": np.random.default_rng(seed)
            .normal(size=(1, 3, 16, 16))
            .astype(np.float32)
        }
        for seed in range(count)
    ]


def arm_divergence(system):
    """Corrupt one replica of the middle (MVX) partition."""
    victim = system.monitor.stage_connections(1)[0]
    FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)


def one_at_a_time(system, batches):
    """The reference: a loop of single-request ``infer()`` calls."""
    return [system.infer(feeds) for feeds in batches]


def through_engine(system, batches):
    """Micro-batches of two, two of them in flight at once."""
    policy = ServingPolicy(max_batch_size=2, num_workers=2)
    with system.serving_engine(policy=policy) as engine:
        tickets = [engine.submit(feeds) for feeds in batches]
        return [ticket.result(timeout=60.0) for ticket in tickets]


class TestCleanEquivalence:
    def test_multi_batch_outputs_identical(self, small_resnet):
        system = deploy(small_resnet)
        batches = batch_stream()
        reference = one_at_a_time(system, batches)
        for outputs in (system.infer_batches(batches), through_engine(system, batches)):
            assert len(outputs) == NUM_BATCHES
            for ref_out, out in zip(reference, outputs):
                assert ref_out.keys() == out.keys()
                for name in ref_out:
                    np.testing.assert_array_equal(ref_out[name], out[name])

    def test_stats_agree_on_work_done(self, small_resnet):
        system = deploy(small_resnet)
        batches = batch_stream()
        loop_stats = []
        for feeds in batches:
            system.infer(feeds)
            loop_stats.append(system.last_stats)
        system.infer_batches(batches)
        stream_stats = system.last_stats
        assert stream_stats.batches == sum(s.batches for s in loop_stats) == NUM_BATCHES
        assert stream_stats.stage_executions == sum(s.stage_executions for s in loop_stats)
        assert stream_stats.checkpoints_evaluated == sum(
            s.checkpoints_evaluated for s in loop_stats
        )


class TestDivergenceEquivalence:
    @pytest.mark.parametrize("pipelined", [False, True], ids=["sequential", "pipelined"])
    def test_divergence_detected_mid_pipeline(self, small_resnet, pipelined):
        system = deploy(small_resnet, response=ResponseAction.DROP_VARIANT)
        arm_divergence(system)
        serve = through_engine if pipelined else one_at_a_time
        results = serve(system, batch_stream())
        # Detection fired at the partition-1 checkpoint, mid-pipeline,
        # and the surviving replicas carried every batch to completion.
        assert len(system.monitor.divergence_events()) >= 1
        assert all(e.partition_index == 1 for e in system.monitor.divergence_events())
        assert len(results) == NUM_BATCHES
        assert len(system.monitor.stage_connections(1)) == 2

    def test_both_paths_fail_the_same_request_set(self, small_resnet):
        failed_sets = {}
        result_sets = {}
        for pipelined in (False, True):
            system = deploy(small_resnet, response=ResponseAction.HALT)
            arm_divergence(system)
            service = InferenceService(system)
            if pipelined:
                with service.serve(max_batch_size=2):
                    ids = [service.submit(feeds) for feeds in batch_stream()]
                    for rid in ids:
                        service.wait(rid, timeout=60.0)
            else:
                ids = [service.submit(feeds) for feeds in batch_stream()]
                # HALT aborts the whole in-flight drain at the first checkpoint.
                assert service.drain() == NUM_BATCHES
            states = {rid: service.status(rid) for rid in ids}
            failed_sets[pipelined] = {
                rid for rid, state in states.items() if state is RequestState.FAILED
            }
            result_sets[pipelined] = {
                rid for rid, state in states.items() if state is RequestState.DONE
            }
            assert len(system.monitor.divergence_events()) >= 1
        assert failed_sets[False] == failed_sets[True]
        assert result_sets[False] == result_sets[True] == set()
