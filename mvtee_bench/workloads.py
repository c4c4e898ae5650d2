"""The two workloads: what they deploy and how they drive it.

Every deployment uses the fixed deployment seed 0, so the partition
and the variants are the same in every run; the run's ``--seed`` only
draws the inputs and the callers' pauses.  Every variant host keeps ``simulated_latency == 0``
and ``realtime_latency`` off: all time measured is real work.
"""

from __future__ import annotations

import heapq
import queue
import time
from dataclasses import dataclass, field

import numpy as np

import checks

__all__ = ["WORKLOADS", "Deployment", "Workload", "drive"]

#: Partitions of every deployment.
NUM_PARTITIONS = 3
#: Untimed requests served before the measured window.
WARMUP_REQUESTS = 2
#: Longest wait for one outstanding request before the run fails.
RESULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    input_size: int
    #: partition index -> variant count; others run one variant.
    mvx_partitions: dict = field(hash=False)
    execution: str
    #: Callers of ``serving_engine()``, each with at most one request in
    #: flight.
    clients: int
    #: Mean of the seeded exponential pause a caller takes between a
    #: result and its next request (0: none).
    think_s: float = 0.0

    @property
    def num_partitions(self) -> int:
        return NUM_PARTITIONS

    @property
    def total_replicas(self) -> int:
        """Variant round trips per request: the sum of replicas over partitions."""
        return sum(self.mvx_partitions.get(i, 1) for i in range(NUM_PARTITIONS))

    @property
    def mvx_partition_count(self) -> int:
        """Partitions that vote (more than one variant)."""
        return sum(1 for count in self.mvx_partitions.values() if count > 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mvx-bulk-process", 48, {0: 3, 1: 3, 2: 3}, "process", clients=1),
        # Three full micro-batches of the default ServingPolicy
        # (max_batch_size 8, num_workers 2): two run while the rest wait,
        # so a queue forms, and 24 stays below the admission capacity of
        # 64, so nothing is shed.  Without the pause, the callers whose
        # requests finished in one batch resubmit together and share
        # every later batch too, and each run locked into its own
        # latency pattern (p50 5.1-6.4 s over five seeds at the same
        # throughput).
        Workload(
            "serve-selective-inproc", 16, {1: 3}, "inprocess", clients=24, think_s=1.0
        ),
    )
}


class Deployment:
    """One deployed system (and engine) plus the counts taken before use."""

    def __init__(self, workload: Workload):
        from repro.mvx import MvteeSystem
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.recorder import FlightRecorder
        from repro.observability.sinks import Sinks
        from repro.zoo import build_model

        self.workload = workload
        self.model = build_model(
            "small-resnet", input_size=workload.input_size, blocks_per_stage=1
        )
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder()
        sinks = Sinks(metrics=self.registry, recorder=self.recorder)
        self.system = MvteeSystem.deploy(
            self.model,
            num_partitions=NUM_PARTITIONS,
            mvx_partitions=dict(workload.mvx_partitions),
            seed=0,
            execution=workload.execution,
            sinks=sinks,
        )
        self.engine = self.system.serving_engine(sinks=sinks).start()
        self.ok_before = checks.ok_round_trips(self.registry, NUM_PARTITIONS)
        self.checkpoints_before = len(self.recorder.events("checkpoint"))

    def sleep_free(self) -> bool:
        """Whether no host adds simulated latency."""
        return all(
            host.simulated_latency == 0 and not host.realtime_latency
            for host in self.system.hosts.values()
        )

    def close(self) -> None:
        self.engine.stop()
        self.system.shutdown()


@dataclass
class Outcome:
    """What one drive measured and served."""

    latencies: list[float] = field(default_factory=list)
    #: Generator lateness: each submission minus the instant it was due
    #: (the caller's previous result plus its pause).
    lags: list[float] = field(default_factory=list)
    throughput_rps: float = 0.0
    #: (feeds, outputs) of every request that returned outputs.
    served: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Requests inside the measured window (warm-up excluded).
    measured: int = 0

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _input(rng: np.random.Generator, size: int) -> dict[str, np.ndarray]:
    return {"input": rng.standard_normal((1, 3, size, size), dtype=np.float32)}


def warm_up(deployment: Deployment, rng: np.random.Generator, outcome: Outcome) -> None:
    """Serve a few untimed requests through the measured path."""
    for _ in range(WARMUP_REQUESTS):
        feeds = _input(rng, deployment.workload.input_size)
        outcome.attempted += 1
        try:
            outcome.served.append(
                (feeds, deployment.engine.submit(feeds).result(timeout=RESULT_TIMEOUT_S))
            )
        except Exception as exc:
            outcome.fail(exc)


def _engine_loop(deployment, rng, think_rng, seconds, outcome) -> None:
    """The workload's callers use the engine for ``seconds``.

    The main thread submits every caller's request when it is due and
    then waits for completions; no caller submits after the window
    ends, and the requests still in flight drain.  Completion times are
    taken in the tickets' done callbacks, which run after a ticket's
    result is published.
    """
    workload = deployment.workload
    completions: queue.SimpleQueue = queue.SimpleQueue()
    pending: dict[int, tuple] = {}

    def submit(due: float) -> None:
        index = outcome.measured
        feeds = _input(rng, workload.input_size)
        outcome.attempted += 1
        outcome.measured += 1
        submitted = time.perf_counter()
        outcome.lags.append(submitted - due)
        try:
            ticket = deployment.engine.submit(feeds)
        except Exception as exc:
            outcome.fail(exc)
            return
        pending[index] = (feeds, ticket, submitted)
        ticket.add_done_callback(
            lambda _ticket, index=index: completions.put((index, time.perf_counter()))
        )

    start = last = time.perf_counter()
    due = [start] * workload.clients
    while pending or due:
        now = time.perf_counter()
        while due and due[0] <= now:
            submit(heapq.heappop(due))
        try:
            index, finished = completions.get(
                timeout=due[0] - now if due else RESULT_TIMEOUT_S
            )
        except queue.Empty:
            if due:
                continue
            for _ in pending:
                outcome.fail(TimeoutError(f"no result within {RESULT_TIMEOUT_S} s"))
            break
        feeds, ticket, submitted = pending.pop(index)
        last = max(last, finished)
        outcome.latencies.append(finished - submitted)
        try:
            outcome.served.append((feeds, ticket.result(timeout=0)))
        except Exception as exc:
            outcome.fail(exc)
        next_at = finished + (think_rng.exponential(workload.think_s) if workload.think_s else 0.0)
        if next_at - start < seconds:
            heapq.heappush(due, next_at)
    outcome.throughput_rps = (outcome.measured - outcome.failed) / (last - start)


def drive(deployment: Deployment, seed: int, seconds: float, before_measure=None) -> Outcome:
    """Warm up, then run the workload's measured window."""
    rng = np.random.default_rng(seed)
    outcome = Outcome()
    warm_up(deployment, rng, outcome)
    if before_measure is not None:
        before_measure()
    _engine_loop(deployment, rng, np.random.default_rng([seed, 1]), seconds, outcome)
    return outcome


def end_to_end(outcome: Outcome, setup_s: float, peak_rss_mib: float) -> dict[str, float]:
    """The five end-to-end figures of one run."""
    return {
        "setup_s": setup_s,
        "latency_p50_s": float(np.percentile(outcome.latencies, 50)),
        "latency_p90_s": float(np.percentile(outcome.latencies, 90)),
        "throughput_rps": outcome.throughput_rps,
        "peak_rss_mib": peak_rss_mib,
    }
