"""Endurance run: a long batch stream with attacks landing mid-stream.

The system-level guarantee under test: across the whole stream, with
faults injected at arbitrary points, NO wrong output is ever silently
accepted -- every served result matches the clean reference model, and
every injected fault produces a detection event.
"""

import numpy as np
import pytest

from repro.mvx import (
    AdaptiveController,
    InferenceService,
    MvteeSystem,
    ResponseAction,
)
from repro.runtime import RuntimeConfig
from repro.runtime.interpreter import InterpreterRuntime
from repro.runtime.faults import FaultInjector
from repro.zoo import build_model

NUM_BATCHES = 60
FAULT_AT = (15, 35)  # stream positions where an attack lands


@pytest.fixture(scope="module")
def model():
    return build_model("small-resnet", input_size=16, blocks_per_stage=1)


@pytest.fixture(scope="module")
def reference_runtime(model):
    runtime = InterpreterRuntime(RuntimeConfig(optimization_level=0))
    runtime.prepare(model)
    return runtime


def test_endurance_no_silent_corruption(model, reference_runtime):
    system = MvteeSystem.deploy(
        model,
        num_partitions=3,
        mvx_partitions={0: 3, 1: 3, 2: 3},
        pool_variants_per_partition=5,  # spare variants for the controller
        seed=3,
        verify_partitions=False,
        verify_variants=False,
    )
    system.monitor.response_action = ResponseAction.DROP_VARIANT
    controller = AdaptiveController(system, scale_down_threshold=-1.0)
    service = InferenceService(system, controller=controller)
    rng = np.random.default_rng(42)

    faults_injected = 0
    wrong_outputs = 0
    request_ids = []
    inputs = {}
    for position in range(NUM_BATCHES):
        if position in FAULT_AT:
            # Corrupt a currently-live variant on a rotating partition.
            partition = (position // 10) % 3
            connections = system.monitor.stage_connections(partition)
            victim = connections[position % len(connections)]
            FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
            faults_injected += 1
        x = rng.normal(size=(1, 3, 16, 16)).astype(np.float32)
        rid = service.submit({"input": x})
        request_ids.append(rid)
        inputs[rid] = x
        if position % 5 == 4:
            service.drain()
    service.drain()

    for rid in request_ids:
        served = next(iter(service.result(rid).values()))
        expected = next(
            iter(reference_runtime.run({"input": inputs[rid]}).values())
        )
        if not np.allclose(served, expected, atol=1e-2):
            wrong_outputs += 1

    metrics = service.metrics()
    assert wrong_outputs == 0, f"{wrong_outputs} silently wrong outputs served"
    assert metrics.requests_served == NUM_BATCHES
    assert metrics.requests_failed == 0
    assert metrics.divergences_detected >= faults_injected
    # Every partition still has a live panel at the end.
    assert all(count >= 1 for count in metrics.live_variants.values())
    # The controller reacted to the threat signal.
    assert metrics.scaling_actions >= 1


def test_prometheus_export(model):
    system = MvteeSystem.deploy(
        model, num_partitions=2, mvx_partitions={},
        seed=0, verify_partitions=False, verify_variants=False,
    )
    service = InferenceService(system)
    service.submit({"input": np.zeros((1, 3, 16, 16), dtype=np.float32)})
    service.drain()
    text = service.metrics().to_prometheus()
    assert "mvtee_requests_served_total 1" in text
    assert 'mvtee_live_variants{partition="0"} 1' in text
    assert "# TYPE mvtee_bytes_protected_total counter" in text
