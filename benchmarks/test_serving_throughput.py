"""Serving-engine throughput/latency benchmark.

Not a paper figure: this benchmarks the `repro.serving` subsystem that
grows the reproduction toward the ROADMAP north star (heavy traffic,
hardware-limited speed).  Three measurements on a live 3-partition
deployment with MVX(3) on the middle partition, whose replicas model
heavy diversified variants (20 ms of GIL-releasing latency each):

1. *Parallel variant execution* -- the same request stream through the
   serial dispatch path and through the ParallelStageExecutor; the
   checkpoint waits for the slowest replica instead of the sum, so
   wall-clock throughput must improve while outputs stay identical.
2. *Closed-loop serving* -- N clients hammering the engine; p50/p95/p99
   latency and achieved throughput.
3. *Open-loop burst* -- an over-capacity burst; admission control must
   shed with `Overloaded` and keep the queue bounded.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import print_table, record_result

from repro.mvx import InferenceOptions, MvteeSystem, ResponseAction
from repro.serving import (
    ClosedLoopLoadGenerator,
    ParallelStageExecutor,
    ServingPolicy,
    open_loop_burst,
    settle_burst,
)
from repro.zoo import build_model

NUM_REQUESTS = 10
REPLICA_LATENCY_S = 0.02
BURST_SIZE = 60
BURST_CAPACITY = 8


def deploy() -> MvteeSystem:
    model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
    system = MvteeSystem.deploy(
        model,
        num_partitions=3,
        mvx_partitions={1: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )
    system.monitor.response_action = ResponseAction.DROP_VARIANT
    for connection in system.monitor.stage_connections(1):
        connection.host.simulated_latency = REPLICA_LATENCY_S
        connection.host.realtime_latency = True
    return system


def feeds_for(seed: int) -> dict[str, np.ndarray]:
    return {
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


def compute() -> dict:
    system = deploy()
    stream = [feeds_for(seed) for seed in range(NUM_REQUESTS)]

    # 1. Serial vs parallel replica dispatch, identical work.
    start = time.monotonic()
    serial_results = system.infer_batches(stream)
    serial_wall = time.monotonic() - start
    with ParallelStageExecutor(max_workers=4) as executor:
        options = InferenceOptions(dispatcher=executor)
        start = time.monotonic()
        parallel_results = system.infer_batches(stream, options)
        parallel_wall = time.monotonic() - start
    name = next(iter(serial_results[0]))
    outputs_equal = all(
        np.allclose(serial[name], parallel[name])
        for serial, parallel in zip(serial_results, parallel_results)
    )

    # 2. Closed-loop latency/throughput through the full engine.
    engine = system.serving_engine(
        policy=ServingPolicy(capacity=64, max_batch_size=8, max_wait_s=0.002)
    )
    with engine:
        closed = ClosedLoopLoadGenerator(
            engine,
            lambda client, index: feeds_for(client * 100 + index),
            clients=4,
            requests_per_client=5,
        ).run()

    # 3. Over-capacity burst against a fresh small-queue engine.
    burst_engine = system.serving_engine(
        policy=ServingPolicy(capacity=BURST_CAPACITY, max_batch_size=8)
    )
    with burst_engine:
        tickets, burst = open_loop_burst(
            burst_engine, [feeds_for(seed) for seed in range(BURST_SIZE)]
        )
        peak_depth = burst_engine.queue_depth
        settle_burst(tickets, burst, timeout=60.0)

    return {
        "parallel_execution": {
            "requests": NUM_REQUESTS,
            "replica_latency_ms": REPLICA_LATENCY_S * 1e3,
            "serial_wall_s": serial_wall,
            "parallel_wall_s": parallel_wall,
            "serial_rps": NUM_REQUESTS / serial_wall,
            "parallel_rps": NUM_REQUESTS / parallel_wall,
            "speedup": serial_wall / parallel_wall,
            "outputs_equal": outputs_equal,
        },
        "closed_loop": closed.to_json(),
        "burst": {**burst.to_json(), "capacity": BURST_CAPACITY, "peak_depth": peak_depth},
    }


def test_serving_throughput(benchmark):
    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    par = results["parallel_execution"]
    closed = results["closed_loop"]
    burst = results["burst"]
    print_table(
        "Serving: parallel variant execution (3 replicas on partition 1)",
        ["path", "wall_s", "rps"],
        [
            ["serial", f"{par['serial_wall_s']:.3f}", f"{par['serial_rps']:.1f}"],
            ["parallel", f"{par['parallel_wall_s']:.3f}", f"{par['parallel_rps']:.1f}"],
        ],
    )
    print_table(
        "Serving: closed loop (4 clients) and over-capacity burst",
        ["metric", "value"],
        [
            ["p50_ms", f"{closed['p50_ms']:.1f}"],
            ["p95_ms", f"{closed['p95_ms']:.1f}"],
            ["p99_ms", f"{closed['p99_ms']:.1f}"],
            ["throughput_rps", f"{closed['throughput_rps']:.1f}"],
            ["burst_submitted", burst["submitted"]],
            ["burst_shed", burst["shed"]],
            ["burst_shed_rate", f"{burst['shed_rate']:.2f}"],
            ["burst_peak_depth", burst["peak_depth"]],
        ],
    )
    record_result("serving_throughput", results)

    # Shape criteria: true parallelism (same outputs, more throughput) …
    assert par["outputs_equal"], "parallel dispatch changed the outputs"
    assert par["parallel_rps"] > par["serial_rps"], (
        f"parallel executor did not beat serial dispatch: "
        f"{par['parallel_rps']:.1f} <= {par['serial_rps']:.1f} rps"
    )
    # … a served closed loop with a real latency distribution …
    assert closed["completed"] == closed["submitted"] == 20
    assert closed["p99_ms"] >= closed["p95_ms"] >= closed["p50_ms"] > 0
    # … and bounded-queue shedding under the burst.
    assert burst["shed"] > 0, "over-capacity burst was not shed"
    assert burst["peak_depth"] <= BURST_CAPACITY
    assert burst["completed"] + burst["timed_out"] + burst["failed"] == (
        burst["submitted"] - burst["shed"]
    )
