"""Execution scheduling: one entry point, one loop.

The execution model of §4.3: variant TEEs form a DAG mirroring the
partition topology and process private user data "in a pipelined
manner".  This module drives the *functional* execution through the
monitor (correctness, detection): every batch of a run passes every
stage in order.  Overlap across batches comes from the serving engine,
which keeps ``ServingPolicy.num_workers`` runs in flight at once;
wall-clock performance of the paper's pipelined mode is reproduced by
:mod:`repro.simulation`.

The single entry point is :func:`run` with an :class:`InferenceOptions`
bundle (observability :class:`~repro.observability.sinks.Sinks`, replica
dispatcher, batch-id base).  The run resolves its options once and
hands them to every :meth:`Monitor.execute_stage`; nothing on the
shared monitor changes, so overlapping runs keep their sinks apart.
Every run produces an ``infer -> batch -> stage`` span tree through its
tracer (the monitor adds ``variant`` and ``checkpoint`` leaves) and
stage latency histograms in its metrics registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.mvx.monitor import Monitor
from repro.observability.sinks import Sinks

__all__ = ["InferenceOptions", "RunStats", "run", "validate_feeds"]


@dataclass(frozen=True)
class InferenceOptions:
    """Everything one inference run needs beyond the batches themselves.

    ``sinks`` bundles the run's observability output (tracer, metrics
    registry, flight recorder); unset fields fall back to the
    deployment's sinks (:attr:`Monitor.sinks`).

    ``dispatcher`` sends the variant requests of each stage -- an object
    with ``dispatch(monitor, connections, batch_id, feeds, sinks)`` such
    as :class:`repro.serving.executor.ParallelStageExecutor`, which runs
    the replicas of a stage concurrently.  ``None`` dispatches serially.

    ``batch_id_base`` offsets the monitor-facing batch ids of the run:
    batch ``i`` of the stream is identified as ``batch_id_base + i`` in
    spans, recorder entries and detection events.  Concurrent runs over
    one deployment (the serving engine overlaps
    ``ServingPolicy.num_workers`` of them) must use disjoint bases so
    their batch ids never collide.

    The checkpoint discipline (execution mode, path mode, voting) is not
    a run option: it is the :class:`~repro.mvx.config.MvxConfig` the
    model owner provisioned, and no run can change it.
    """

    sinks: Sinks | None = None
    dispatcher: object | None = None
    batch_id_base: int = 0


@dataclass
class RunStats:
    """Counters of one run."""

    batches: int = 0
    stage_executions: int = 0
    checkpoints_evaluated: int = 0
    divergences: int = 0
    crashes: int = 0


def validate_feeds(monitor: Monitor, feeds: dict[str, np.ndarray]) -> None:
    """Reject malformed user inputs before they reach any variant TEE.

    The monitor "is also hardened against any untrusted inputs" (§6.5):
    missing tensors, wrong shapes and wrong dtypes are rejected at the
    trust boundary instead of propagating into variant kernels.
    """
    expected = {spec.name: spec for spec in monitor.partition_set.model.inputs}
    missing = set(expected) - set(feeds)
    if missing:
        raise ValueError(f"missing input tensors: {sorted(missing)}")
    unexpected = set(feeds) - set(expected)
    if unexpected:
        raise ValueError(f"unexpected input tensors: {sorted(unexpected)}")
    for name, spec in expected.items():
        value = feeds[name]
        if not isinstance(value, np.ndarray):
            raise ValueError(f"input {name!r} is not an ndarray")
        if tuple(value.shape) != spec.shape:
            raise ValueError(
                f"input {name!r} has shape {tuple(value.shape)}, expected {spec.shape}"
            )
        if value.dtype != spec.dtype.numpy:
            raise ValueError(
                f"input {name!r} has dtype {value.dtype}, expected {spec.dtype.value}"
            )


def run(
    monitor: Monitor,
    batches: list[dict[str, np.ndarray]],
    options: InferenceOptions | None = None,
) -> tuple[list[dict[str, np.ndarray]], RunStats]:
    """Process a batch stream through the deployment.

    The unified entry point behind :meth:`MvteeSystem.infer_batches`:
    validates every batch at the trust boundary, runs each batch through
    every stage in order, and emits the full span tree and stage
    metrics into the run's sinks.

    Safe to call concurrently from several threads against one monitor
    (the serving engine overlaps batches this way): each run carries its
    own resolved options down the call chain, and
    ``options.batch_id_base`` keeps monitor-facing batch ids disjoint
    across overlapping runs.
    """
    options = options or InferenceOptions()
    for feeds in batches:
        validate_feeds(monitor, feeds)
    # Resolved once: the frozen value every stage of the run receives.
    resolved = replace(options, sinks=(options.sinks or Sinks()).merged_over(monitor.sinks))
    tracer, registry = resolved.sinks.tracer, resolved.sinks.metrics
    stage_seconds = registry.histogram(
        "mvtee_stage_seconds", "Wall-clock seconds per stage execution"
    )
    stage_count = registry.counter("mvtee_stage_executions_total", "Stage executions")
    batch_count = registry.counter("mvtee_batches_total", "Batches completed")
    partition_set = monitor.partition_set
    config = monitor.config
    stats = RunStats()
    results = []
    with tracer.span(
        "infer",
        execution_mode=config.execution_mode if config else None,
        path_mode=config.path_mode if config else None,
        num_batches=len(batches),
    ):
        for local_id, feeds in enumerate(batches):
            batch_id = options.batch_id_base + local_id
            env = dict(feeds)
            with tracer.span("batch", batch=batch_id):
                for index in range(len(partition_set)):
                    stage_feeds = partition_set.stage_feeds(index, env)
                    with tracer.span("stage", partition=index, batch=batch_id) as span:
                        start = time.perf_counter()
                        env.update(
                            monitor.execute_stage(batch_id, index, stage_feeds, resolved)
                        )
                        elapsed = time.perf_counter() - start
                    stats.stage_executions += 1
                    stage_seconds.observe(elapsed, partition=index)
                    stage_count.inc(partition=index)
                    if config is not None and config.uses_slow_path(index):
                        stats.checkpoints_evaluated += 1
                        span.set_attribute("slow_path", True)
            results.append({spec.name: env[spec.name] for spec in partition_set.model.outputs})
            stats.batches += 1
            batch_count.inc()
    stats.divergences = len(monitor.divergence_events())
    stats.crashes = len(monitor.crash_events())
    return results, stats
