"""In-process vs process-cluster throughput on a replicated CNN.

Not a paper figure: this benchmarks the `repro.cluster` subsystem.  The
same request stream runs through two deployments of a CNN zoo model
with MVX(3) on the middle partition, whose replicas model heavy
diversified variants (20 ms of GIL-releasing latency each):

1. *in-process* -- the default execution, serial replica dispatch: the
   checkpoint waits for the sum of the three replica latencies;
2. *process cluster* -- each variant host forked into its own worker
   process, replicas dispatched concurrently by a
   :class:`ParallelStageExecutor` that ticks the supervisor after every
   stage: the checkpoint waits only for the slowest replica.

Outputs must be identical; the cluster must match or beat in-process
throughput (the replica sleeps release the GIL, so the overlap wins
even on a single core -- `cpu_count` is recorded with the results).
Writes ``benchmarks/results/BENCH_cluster.json`` (requests/s, p95).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import print_table, record_result

from repro.mvx import InferenceOptions, MvteeSystem, ResponseAction
from repro.serving import ParallelStageExecutor
from repro.zoo import build_model

NUM_REQUESTS = 10
NUM_VARIANTS = 3
REPLICA_LATENCY_S = 0.02


def build_cnn():
    return build_model("small-resnet", input_size=16, blocks_per_stage=1)


def feeds_for(seed: int) -> dict[str, np.ndarray]:
    return {
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


def deploy(execution: str) -> MvteeSystem:
    system = MvteeSystem.deploy(
        build_cnn(),
        num_partitions=3,
        mvx_partitions={1: NUM_VARIANTS},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
        execution=execution,
    )
    system.monitor.response_action = ResponseAction.DROP_VARIANT
    if system.cluster is not None:
        for connection in system.monitor.stage_connections(1):
            system.cluster.worker(connection.variant_id).configure(
                simulated_latency=REPLICA_LATENCY_S, realtime_latency=True
            )
    else:
        for connection in system.monitor.stage_connections(1):
            connection.host.simulated_latency = REPLICA_LATENCY_S
            connection.host.realtime_latency = True
    return system


def timed_stream(system, options) -> tuple[list[dict], list[float]]:
    """Run the request stream one at a time, timing each request."""
    outputs, latencies = [], []
    for seed in range(NUM_REQUESTS):
        start = time.monotonic()
        outputs.append(system.infer(feeds_for(seed), options))
        latencies.append(time.monotonic() - start)
    return outputs, latencies


def summarize(latencies: list[float]) -> dict:
    return {
        "requests": len(latencies),
        "wall_s": sum(latencies),
        "rps": len(latencies) / sum(latencies),
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p95_ms": float(np.percentile(latencies, 95)) * 1e3,
    }


def compute() -> dict:
    inprocess = deploy("inprocess")
    serial_outputs, serial_latencies = timed_stream(inprocess, InferenceOptions())

    cluster_system = deploy("process")
    try:
        dispatcher = ParallelStageExecutor(
            NUM_VARIANTS + 1, after_stage=cluster_system.cluster.poll
        )
        with dispatcher:
            cluster_outputs, cluster_latencies = timed_stream(
                cluster_system, InferenceOptions(dispatcher=dispatcher)
            )
        live_workers = cluster_system.cluster.live_worker_count()
    finally:
        cluster_system.shutdown()

    name = next(iter(serial_outputs[0]))
    outputs_equal = all(
        np.allclose(serial[name], clustered[name])
        for serial, clustered in zip(serial_outputs, cluster_outputs)
    )
    return {
        "model": "small-resnet",
        "num_variants": NUM_VARIANTS,
        "replica_latency_ms": REPLICA_LATENCY_S * 1e3,
        "cpu_count": os.cpu_count(),
        "outputs_equal": outputs_equal,
        "live_workers_after_run": live_workers,
        "inprocess": summarize(serial_latencies),
        "process_cluster": summarize(cluster_latencies),
    }


def test_cluster_scaling(benchmark):
    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    serial, clustered = results["inprocess"], results["process_cluster"]
    print_table(
        f"Cluster scaling: {NUM_VARIANTS} replicas, "
        f"{results['replica_latency_ms']:.0f} ms each, "
        f"{results['cpu_count']} core(s)",
        ["execution", "rps", "p50_ms", "p95_ms"],
        [
            ["in-process", f"{serial['rps']:.1f}", f"{serial['p50_ms']:.1f}",
             f"{serial['p95_ms']:.1f}"],
            ["process-cluster", f"{clustered['rps']:.1f}",
             f"{clustered['p50_ms']:.1f}", f"{clustered['p95_ms']:.1f}"],
        ],
    )
    record_result("BENCH_cluster", results)

    assert results["outputs_equal"], "process-cluster execution changed outputs"
    assert results["live_workers_after_run"] == NUM_VARIANTS + 2, (
        "workers did not survive the benchmark run"
    )
    # Concurrent worker dispatch must at least match serial in-process
    # dispatch; with overlapping replica latencies it should win outright.
    assert clustered["rps"] >= serial["rps"], (
        f"process cluster slower than in-process: "
        f"{clustered['rps']:.1f} < {serial['rps']:.1f} rps"
    )
    assert clustered["p95_ms"] <= serial["p95_ms"], (
        f"process cluster p95 regressed: "
        f"{clustered['p95_ms']:.1f} > {serial['p95_ms']:.1f} ms"
    )
