"""Serving-engine throughput/latency benchmark.

Not a paper figure: this benchmarks the `repro.serving` subsystem that
grows the reproduction toward the ROADMAP north star (heavy traffic,
hardware-limited speed).  Four measurements on a live 3-partition
deployment with MVX(3) on the middle partition.  In the first three its
replicas model heavy diversified variants (20 ms of GIL-releasing
latency each):

1. *Parallel variant execution* -- the same request stream through the
   serial dispatch path and through the ParallelStageExecutor; the
   checkpoint waits for the slowest replica instead of the sum, so
   wall-clock throughput must improve while outputs stay identical.
2. *Closed-loop serving* -- N clients hammering the engine; p50/p95/p99
   latency and achieved throughput.
3. *Open-loop burst* -- an over-capacity burst; admission control must
   shed with `Overloaded` and keep the queue bounded.
4. *Sleep-free burst* -- no simulated latency: a burst through the
   engine with the default policy must serve at no less than
   ``MIN_ENGINE_TO_LOOP`` of the rate of a plain loop of ``infer()``
   calls on the same deployment (in-process replicas run on the
   dispatching thread, not on pool threads trading the GIL).
"""

from __future__ import annotations

import statistics
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
#: Sleep-free row: requests per burst and per loop, alternating rounds.
SLEEP_FREE_REQUESTS = 20
SLEEP_FREE_ROUNDS = 5
MIN_ENGINE_TO_LOOP = 0.7


def deploy(replica_latency_s: float = REPLICA_LATENCY_S) -> MvteeSystem:
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
    if replica_latency_s > 0:
        for connection in system.monitor.stage_connections(1):
            connection.host.simulated_latency = replica_latency_s
            connection.host.realtime_latency = True
    return system


def feeds_for(seed: int) -> dict[str, np.ndarray]:
    return {
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


def sleep_free_burst() -> dict:
    """Engine burst vs ``infer()`` loop, median rate over alternating rounds.

    The host's speed drifts over seconds, so the two sides alternate
    which runs first and each side's median rate is compared.
    """
    system = deploy(replica_latency_s=0.0)
    stream = [feeds_for(seed) for seed in range(SLEEP_FREE_REQUESTS)]
    system.infer_batches(stream[:2])  # warm

    def loop_rps() -> float:
        start = time.monotonic()
        for feeds in stream:
            system.infer(feeds)
        return len(stream) / (time.monotonic() - start)

    def engine_rps() -> float:
        with system.serving_engine() as engine:
            start = time.monotonic()
            tickets, burst = open_loop_burst(engine, stream)
            settle_burst(tickets, burst, timeout=120.0)
            elapsed = time.monotonic() - start
        assert burst.completed == len(stream)
        return len(stream) / elapsed

    rates: dict[str, list[float]] = {"loop": [], "engine": []}
    for round_ in range(SLEEP_FREE_ROUNDS):
        sides = [("loop", loop_rps), ("engine", engine_rps)]
        for name, measure in sides if round_ % 2 == 0 else sides[::-1]:
            rates[name].append(measure())
    loop, engine = (statistics.median(rates[k]) for k in ("loop", "engine"))
    return {
        "requests": SLEEP_FREE_REQUESTS,
        "rounds": SLEEP_FREE_ROUNDS,
        "loop_rps": loop,
        "engine_rps": engine,
        "engine_to_loop": engine / loop,
        "loop_rps_rounds": rates["loop"],
        "engine_rps_rounds": rates["engine"],
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
        "sleep_free_burst": sleep_free_burst(),
    }


def test_serving_throughput(benchmark):
    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    par = results["parallel_execution"]
    closed = results["closed_loop"]
    burst = results["burst"]
    free = results["sleep_free_burst"]
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
    print_table(
        "Serving: sleep-free 20-request burst vs infer() loop (median of rounds)",
        ["path", "rps"],
        [
            ["infer() loop", f"{free['loop_rps']:.1f}"],
            ["engine burst", f"{free['engine_rps']:.1f}"],
            ["engine/loop", f"{free['engine_to_loop']:.2f}"],
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
    # … and, with nothing to wait on, the engine keeps up with a loop.
    assert free["engine_to_loop"] >= MIN_ENGINE_TO_LOOP, (
        f"engine served a sleep-free burst at {free['engine_rps']:.1f} rps, "
        f"under {MIN_ENGINE_TO_LOOP} of the infer() loop's {free['loop_rps']:.1f} rps"
    )
