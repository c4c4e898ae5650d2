"""Concurrent serving: admission control, micro-batching, parallel variants.

The paper motivates streaming/pipelined serving for "real-time scenarios
and continuous large-volume data analysis" (§6.4); this package is the
serving layer that makes that real under load.  A request travels

    admit -> batch -> execute -> respond

- :mod:`repro.serving.admission` -- a bounded queue with backpressure:
  over-capacity submissions are *shed* with a typed
  :class:`~repro.serving.errors.Overloaded` instead of growing the queue
  without bound.
- :mod:`repro.serving.batching` -- a dynamic micro-batcher that coalesces
  queued requests under a ``max_batch_size`` / ``max_wait_s`` policy
  before handing them to :meth:`MvteeSystem.infer_batches`.  This
  amortizes nothing per request: the scheduler takes a micro-batch's
  requests through the stages one at a time, and every ticket of a
  micro-batch completes only when the whole micro-batch does.
- :mod:`repro.serving.executor` -- :class:`ParallelStageExecutor`, the
  stage dispatcher: replica round trips that wait outside the
  interpreter (a worker process's pipe, a host's ``realtime_latency``
  sleep) overlap on a persistent thread pool; in-process round trips
  run on the dispatching thread under one interpreter-wide lock, so the
  engine's overlapping batches take turns per round trip instead of
  trading the GIL.  Per-batch deadlines are carried by
  :class:`BoundDispatcher` views (so the executor is re-entrant), and a
  transient variant fault is retried once.
- :mod:`repro.serving.engine` -- :class:`ServingEngine` tying the three
  together behind ``submit() -> Ticket`` with a pool of
  ``ServingPolicy.num_workers`` worker threads overlapping that many
  micro-batches in flight.
- :mod:`repro.serving.loadgen` -- closed-loop and bursty open-loop load
  generators producing p50/p95/p99 latency, throughput and shed-rate
  reports for the serving benchmarks.

Everything reports through :mod:`repro.observability`: the
``mvtee_queue_depth`` gauge, ``mvtee_queue_wait_seconds`` and
``mvtee_batch_size`` histograms, and the ``mvtee_requests_shed_total`` /
``mvtee_requests_timeout_total`` counters.
"""

from repro.serving.admission import AdmissionQueue
from repro.serving.batching import BatchPolicy, MicroBatcher
from repro.serving.engine import ServingEngine, ServingPolicy, Ticket, TicketState
from repro.serving.errors import (
    DeadlineExceeded,
    EngineStopped,
    Overloaded,
    ServingError,
)
from repro.serving.executor import BoundDispatcher, ParallelStageExecutor
from repro.serving.loadgen import (
    ClosedLoopLoadGenerator,
    LoadReport,
    OpenLoopLoadGenerator,
    TrafficSample,
    open_loop_burst,
    percentile,
    settle_burst,
)

__all__ = [
    "AdmissionQueue",
    "BatchPolicy",
    "BoundDispatcher",
    "ClosedLoopLoadGenerator",
    "DeadlineExceeded",
    "EngineStopped",
    "LoadReport",
    "MicroBatcher",
    "OpenLoopLoadGenerator",
    "Overloaded",
    "ParallelStageExecutor",
    "ServingEngine",
    "ServingError",
    "ServingPolicy",
    "Ticket",
    "TicketState",
    "TrafficSample",
    "open_loop_burst",
    "percentile",
    "settle_burst",
]
