"""The serving engine: admit -> batch -> execute -> respond.

:class:`ServingEngine` is the concurrent serving surface over a
deployed :class:`~repro.mvx.system.MvteeSystem`.  Producers call
:meth:`submit` from any thread and get a :class:`Ticket` (a future); a
pool of ``ServingPolicy.num_workers`` engine worker threads coalesces
admitted requests into micro-batches and drives them through
:meth:`MvteeSystem.infer_batches` with up to ``num_workers`` batches in
flight at once -- a slow batch no longer serializes the queue behind it
(the paper's §4.3 pipelined execution model, applied across batches
instead of within one).  The variant replicas of each stage are
dispatched in parallel by a shared
:class:`~repro.serving.executor.ParallelStageExecutor`; each in-flight
batch carries its own deadline via a per-batch
:class:`~repro.serving.executor.BoundDispatcher` view and its own
disjoint monitor-facing batch-id range via
``InferenceOptions.batch_id_base``.

Failure semantics per batch:

- a detection that halts the pipeline (``MonitorError``) fails every
  request of the batch -- the requests shared the halted run;
- a missed deadline (``DeadlineExceeded``) times the batch's requests
  out; requests whose deadline already passed while queued are timed
  out without ever executing;
- any other exception escaping the run fails the batch's requests with
  that error, is counted in ``mvtee_requests_failed_total`` and
  recorded in the flight recorder, and the worker keeps serving -- an
  unexpected fault must never silently kill a worker and strand every
  later ticket;
- admission rejections (``Overloaded``) raise at ``submit`` and never
  produce a ticket;
- :meth:`stop` drains admitted requests, then fails anything still
  unserved with :class:`EngineStopped` so no caller blocks forever.
"""

from __future__ import annotations

import enum
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.clock import Clock, as_clock
from repro.mvx.monitor import MonitorError
from repro.mvx.scheduler import InferenceOptions, SchedulingMode, validate_feeds
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import (
    KIND_ENGINE_ERROR,
    KIND_REQUEST_SHED,
    KIND_REQUEST_TIMEOUT,
    FlightRecorder,
)
from repro.observability.sinks import Sinks, coerce_sinks
from repro.observability.tracing import Tracer
from repro.serving.admission import AdmissionQueue
from repro.serving.batching import BatchPolicy, MicroBatcher
from repro.serving.errors import DeadlineExceeded, EngineStopped, Overloaded
from repro.serving.executor import ParallelStageExecutor

__all__ = ["ServingEngine", "ServingPolicy", "Ticket", "TicketState"]


@dataclass(frozen=True)
class ServingPolicy:
    """Everything tunable about one engine, in one bundle."""

    #: Admission queue bound; submissions past it are shed.
    capacity: int = 64
    #: Micro-batch coalescing knobs (see :class:`BatchPolicy`).
    max_batch_size: int = 8
    max_wait_s: float = 0.002
    #: Deadline applied to requests that do not carry their own (None =
    #: unbounded).
    default_deadline_s: float | None = None
    #: Dispatch variant replicas concurrently (ParallelStageExecutor).
    parallel_variants: bool = True
    max_workers: int = 8
    #: Retry one variant round trip once on a transient fault.
    retry_transient: bool = True
    #: Scheduling of the micro-batch through the pipeline stages.
    scheduling: SchedulingMode = SchedulingMode.PIPELINED
    #: Engine worker threads, i.e. micro-batches in flight at once.
    #: Each worker pulls its own batch and drives it through the
    #: pipeline independently, so a slow batch does not serialize the
    #: queue behind it.  1 restores strictly serial batch execution.
    #: This is the *initial* pool size; :meth:`ServingEngine.resize`
    #: adjusts a live engine.
    num_workers: int = 2

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")


class TicketState(enum.Enum):
    """Lifecycle of one admitted request."""

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


class Ticket:
    """Future handle for one admitted request."""

    def __init__(
        self,
        ticket_id: int,
        feeds: dict[str, np.ndarray],
        *,
        deadline: float | None,
        enqueued_at: float,
        clock: Clock | None = None,
    ):
        self.ticket_id = ticket_id
        self.feeds = feeds
        #: Deadline on the engine's clock (None = unbounded).
        self.deadline = deadline
        #: Admission timestamp on the engine's clock (drives
        #: mvtee_queue_wait_seconds).
        self.enqueued_at = enqueued_at
        self._state = TicketState.PENDING
        self._result: dict[str, np.ndarray] | None = None
        self._error: Exception | None = None
        #: Set on completion; ``result(timeout)`` waits on ``clock``.
        self._event = as_clock(clock).event()
        self._lock = threading.Lock()
        self._callbacks: list[Callable[["Ticket"], None]] = []

    @property
    def state(self) -> TicketState:
        """Current lifecycle state."""
        return self._state

    def done(self) -> bool:
        """Whether a result or error has been recorded."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> dict[str, np.ndarray]:
        """Block for the outcome; raises the request's failure if any."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"ticket {self.ticket_id} not finished")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> Exception | None:
        """Block for the outcome; returns the failure instead of raising."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"ticket {self.ticket_id} not finished")
        return self._error

    def add_done_callback(self, fn: Callable[["Ticket"], None]) -> None:
        """Run ``fn(ticket)`` on completion (immediately if already done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def _finish(self, state: TicketState, result=None, error=None) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._state = state
            self._result = result
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            fn(self)


class ServingEngine:
    """Background-threaded serving over one deployed system.

    ``clock`` (a :class:`repro.clock.Clock` or a bare ``() -> float``;
    real monotonic time by default) runs every deadline and wait of the
    engine: admission queue, batcher, worker pool, tickets and the
    stage executor.
    """

    def __init__(
        self,
        system,
        *,
        policy: ServingPolicy | None = None,
        sinks: Sinks | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        clock: Clock | Callable[[], float] | None = None,
    ):
        sinks = coerce_sinks(
            sinks,
            owner="ServingEngine",
            tracer=tracer,
            metrics=registry,
            recorder=recorder,
        )
        self.system = system
        self.policy = policy if policy is not None else ServingPolicy()
        self.registry = (
            sinks.metrics if sinks.metrics is not None else MetricsRegistry()
        )
        self.tracer = sinks.tracer
        #: Flight recorder for shed/timeout audit events; defaults to
        #: the deployment's recorder so serving-layer rejections land in
        #: the same hash chain as the monitor's detections.
        self.recorder = (
            sinks.recorder
            if sinks.recorder is not None
            else system.monitor.recorder
        )
        self._clock = as_clock(clock)
        # Pre-register the engine's counters/histograms so the full
        # serving metric surface is visible (and documented inventories
        # verifiable) before the first request ever sheds or times out.
        self.registry.counter(
            "mvtee_requests_served_total", "Requests served to completion"
        )
        self.registry.counter(
            "mvtee_requests_failed_total", "Requests failed by a detection"
        )
        self.registry.counter(
            "mvtee_requests_timeout_total", "Requests that missed their deadline"
        )
        self.registry.counter(
            "mvtee_requests_shed_total", "Requests rejected by admission control"
        )
        self.registry.counter(
            "mvtee_dispatch_retries_total",
            "Variant round trips retried after a transient fault",
        )
        self.registry.gauge(
            "mvtee_queue_depth", "Requests waiting in the admission queue"
        )
        self.registry.gauge(
            "mvtee_inflight_batches", "Micro-batches currently executing"
        )
        self.registry.histogram(
            "mvtee_batch_queue_stall_seconds",
            "Seconds a formed batch waited past max_wait_s for a free worker",
        )
        self.registry.gauge(
            "mvtee_engine_workers", "Engine worker threads in the pool"
        ).set(self.policy.num_workers)
        self._queue = AdmissionQueue(
            self.policy.capacity, registry=self.registry, clock=self._clock
        )
        self._batcher = MicroBatcher(
            self._queue,
            BatchPolicy(
                max_batch_size=self.policy.max_batch_size,
                max_wait_s=self.policy.max_wait_s,
            ),
            registry=self.registry,
            clock=self._clock,
        )
        # Process-mode deployments get the cluster-aware dispatcher so a
        # worker lost mid-batch is restarted promptly; same contract,
        # same retry/deadline semantics.
        cluster = getattr(system, "cluster", None)
        if not self.policy.parallel_variants:
            self._executor = None
        elif cluster is not None:
            self._executor = cluster.dispatcher(
                max_workers=self.policy.max_workers,
                retry_transient=self.policy.retry_transient,
                clock=self._clock,
            )
        else:
            self._executor = ParallelStageExecutor(
                self.policy.max_workers,
                retry_transient=self.policy.retry_transient,
                clock=self._clock,
            )
        self._ids = itertools.count()
        #: Worker threads by pool index; indexes at or past
        #: ``_target_workers`` retire themselves (resize-down).
        self._workers: dict[int, threading.Thread] = {}
        self._target_workers = self.policy.num_workers
        #: Guards _target_workers/_busy/_paused; workers wait on it
        #: while paused, quiesce() waits on it for _busy == 0.
        self._pool_cond = self._clock.condition()
        self._busy = 0
        self._paused = False
        self._stopping = threading.Event()
        # Monotonic allocator of monitor-facing batch-id ranges: each
        # in-flight run gets a disjoint [base, base + n) so concurrent
        # batches never collide in spans, recorder entries or events.
        self._batch_id_lock = threading.Lock()
        self._next_batch_id = 0

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(
        self, feeds: dict[str, np.ndarray], *, deadline_s: float | None = None
    ) -> Ticket:
        """Validate, admit and ticket one request.

        Raises ``ValueError`` on malformed feeds (trust-boundary
        validation before the request occupies a queue slot),
        :class:`Overloaded` when the queue is full, and
        :class:`EngineStopped` after :meth:`stop`.
        """
        validate_feeds(self.system.monitor, feeds)
        now = self._clock()
        if deadline_s is None:
            deadline_s = self.policy.default_deadline_s
        ticket = Ticket(
            next(self._ids),
            dict(feeds),
            deadline=None if deadline_s is None else now + deadline_s,
            enqueued_at=now,
            clock=self._clock,
        )
        try:
            self._queue.offer(ticket)
        except Overloaded:
            if self.recorder is not None:
                self.recorder.record(
                    KIND_REQUEST_SHED,
                    ticket=ticket.ticket_id,
                    queue_depth=len(self._queue),
                    capacity=self.policy.capacity,
                )
            raise
        return ticket

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ServingEngine":
        """Spawn the worker pool; idempotent while running."""
        if any(worker.is_alive() for worker in self._workers.values()):
            return self
        if self._stopping.is_set():
            raise EngineStopped("engine cannot be restarted after stop()")
        self._spawn_missing()
        return self

    def _spawn_missing(self) -> None:
        """Start a thread for every pool index below the target."""
        with self._pool_cond:
            target = self._target_workers
        for index in range(target):
            worker = self._workers.get(index)
            if worker is not None and worker.is_alive():
                continue
            self._workers[index] = self._clock.spawn(
                self._run, index, name=f"mvtee-serving-{index}"
            )

    @property
    def num_workers(self) -> int:
        """The current worker-pool target (micro-batches in flight)."""
        with self._pool_cond:
            return self._target_workers

    def resize(self, num_workers: int) -> int:
        """Adjust the worker pool of a live engine; returns the target.

        Growing spawns fresh worker threads immediately (when the
        engine is running); shrinking retires the highest-indexed
        workers as soon as they finish their current batch.  The fleet
        autoscaler drives this from queue-depth and health signals.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        with self._pool_cond:
            if self._stopping.is_set():
                raise EngineStopped("cannot resize a stopped engine")
            self._target_workers = num_workers
            self._pool_cond.notify_all()
        self.registry.gauge(
            "mvtee_engine_workers", "Engine worker threads in the pool"
        ).set(num_workers)
        if any(worker.is_alive() for worker in self._workers.values()):
            self._spawn_missing()
        return num_workers

    @contextmanager
    def quiesce(self, *, timeout: float | None = 30.0):
        """Pause batch pickup and wait until no batch is in flight.

        Admission stays open -- requests keep queueing up to
        ``capacity`` -- but no worker starts a new batch until the
        context exits.  This is the drain step of a rolling variant
        update: once quiesced, the variant group can be replaced with
        zero in-flight tickets to drop.  Raises ``TimeoutError`` if the
        in-flight batches do not finish within ``timeout``.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._pool_cond:
            self._paused = True
            try:
                while self._busy > 0:
                    remaining = (
                        None if deadline is None else deadline - self._clock()
                    )
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(
                            f"engine did not quiesce within {timeout}s "
                            f"({self._busy} workers still busy)"
                        )
                    self._pool_cond.wait(
                        0.1 if remaining is None else min(0.1, remaining)
                    )
            except BaseException:
                self._paused = False
                self._pool_cond.notify_all()
                raise
        try:
            yield self
        finally:
            with self._pool_cond:
                self._paused = False
                self._pool_cond.notify_all()

    def stop(self, *, timeout: float | None = 30.0) -> None:
        """Refuse new requests, drain admitted ones, join the workers.

        Any ticket the workers did not serve -- because the engine was
        never started, a worker is wedged past ``timeout``, or the
        worker died -- is failed with :class:`EngineStopped` so callers
        blocked in :meth:`Ticket.result` always get an outcome.  A
        worker that outlives ``timeout`` keeps its thread handle (a
        later :meth:`stop` can re-join it); the shared executor is only
        torn down once every worker has exited.
        """
        self._stopping.set()
        self._queue.close()
        with self._pool_cond:
            # Stop overrides a pause: paused workers must wake up to
            # drain the queue, and quiesce() waiters must not deadlock.
            self._pool_cond.notify_all()
        join_deadline = None if timeout is None else self._clock.now() + timeout
        still_alive = {}
        for index, worker in self._workers.items():
            remaining = (
                None
                if join_deadline is None
                else max(0.0, join_deadline - self._clock.now())
            )
            self._clock.join(worker, remaining)
            if worker.is_alive():
                still_alive[index] = worker
        self._workers = still_alive
        self._fail_pending()
        if not still_alive and self._executor is not None:
            self._executor.shutdown()

    def _fail_pending(self) -> None:
        """Fail every ticket still sitting in the closed queue."""
        failed = self.registry.counter(
            "mvtee_requests_failed_total", "Requests failed by a detection"
        )
        while True:
            ticket = self._queue.take(timeout=0)
            if ticket is None:
                return
            failed.inc()
            ticket._finish(
                TicketState.FAILED,
                error=EngineStopped(
                    f"engine stopped before serving ticket {ticket.ticket_id}"
                ),
            )

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    def _run(self, index: int) -> None:
        """One engine worker: pull a batch, execute, repeat until drained.

        ``num_workers`` of these run concurrently; the admission queue
        and batcher are shared, so each formed batch goes to exactly
        one worker and up to ``num_workers`` batches overlap.  The
        worker gates every pickup on the pool condition: while
        :meth:`quiesce` holds the engine paused it waits instead of
        pulling, and once its ``index`` falls at or past the resize
        target it retires.  ``_busy`` is raised *before* touching the
        batcher so a quiescer never observes zero in-flight workers
        while a batch is being formed.
        """
        while True:
            with self._pool_cond:
                if not self._stopping.is_set():
                    if index >= self._target_workers:
                        return
                    if self._paused:
                        self._pool_cond.wait(0.05)
                        continue
                self._busy += 1
            batch = None
            try:
                batch = self._batcher.next_batch(poll_s=0.02)
                if batch:
                    self._execute(batch)
            finally:
                with self._pool_cond:
                    self._busy -= 1
                    self._pool_cond.notify_all()
            if batch:
                continue
            if self._stopping.is_set() and len(self._queue) == 0:
                return

    def _allocate_batch_ids(self, count: int) -> int:
        with self._batch_id_lock:
            base = self._next_batch_id
            self._next_batch_id += count
            return base

    def _execute(self, tickets: list[Ticket]) -> None:
        now = self._clock()
        # How long the batch's oldest member waited past the coalescing
        # budget: >0 means every worker was busy when the batch was
        # ready -- the signal that in-flight capacity, not batching, is
        # the bottleneck.
        oldest = min(ticket.enqueued_at for ticket in tickets)
        self.registry.histogram(
            "mvtee_batch_queue_stall_seconds",
            "Seconds a formed batch waited past max_wait_s for a free worker",
        ).observe(max(0.0, now - (oldest + self.policy.max_wait_s)))
        live = []
        for ticket in tickets:
            if ticket.deadline is not None and now >= ticket.deadline:
                self._timeout(
                    ticket,
                    DeadlineExceeded(
                        f"ticket {ticket.ticket_id} expired after "
                        f"{now - ticket.enqueued_at:.4f}s in queue"
                    ),
                )
            else:
                live.append(ticket)
        if not live:
            return
        deadlines = [t.deadline for t in live if t.deadline is not None]
        deadline = min(deadlines) if deadlines else None
        options = InferenceOptions(
            scheduling=self.policy.scheduling,
            sinks=Sinks(
                tracer=self.tracer,
                metrics=self.registry,
                recorder=self.recorder,
            ),
            # A per-batch view of the shared executor: the deadline
            # travels with the dispatch calls, never through shared
            # executor state, so overlapping batches cannot race.
            dispatcher=(
                self._executor.bind(deadline) if self._executor is not None else None
            ),
            batch_id_base=self._allocate_batch_ids(len(live)),
        )
        inflight = self.registry.gauge(
            "mvtee_inflight_batches", "Micro-batches currently executing"
        )
        inflight.inc()
        try:
            results = self.system.infer_batches([t.feeds for t in live], options)
        except DeadlineExceeded as exc:
            # Deadlines are batch-atomic: the requests shared the run
            # that missed, and the tightest deadline set the budget.
            for ticket in live:
                self._timeout(ticket, exc)
            return
        except MonitorError as exc:
            self.registry.counter(
                "mvtee_requests_failed_total", "Requests failed by a detection"
            ).inc(len(live))
            for ticket in live:
                ticket._finish(TicketState.FAILED, error=exc)
            return
        except Exception as exc:
            # Anything else escaping the run (a crash outliving retry, a
            # shape bug, a broken dispatcher) must fail *this batch
            # only* -- letting it propagate would kill the worker thread
            # silently and strand every later ticket behind a dead loop.
            self.registry.counter(
                "mvtee_requests_failed_total", "Requests failed by a detection"
            ).inc(len(live))
            if self.recorder is not None:
                self.recorder.record(
                    KIND_ENGINE_ERROR,
                    error=type(exc).__name__,
                    detail=str(exc),
                    tickets=len(live),
                )
            for ticket in live:
                ticket._finish(TicketState.FAILED, error=exc)
            return
        finally:
            inflight.dec()
        self.registry.counter(
            "mvtee_requests_served_total", "Requests served to completion"
        ).inc(len(live))
        for ticket, result in zip(live, results):
            ticket._finish(TicketState.DONE, result=result)

    def _timeout(self, ticket: Ticket, error: DeadlineExceeded) -> None:
        self.registry.counter(
            "mvtee_requests_timeout_total", "Requests that missed their deadline"
        ).inc()
        if self.recorder is not None:
            self.recorder.record(
                KIND_REQUEST_TIMEOUT,
                ticket=ticket.ticket_id,
                waited_s=self._clock() - ticket.enqueued_at,
                reason=str(error),
            )
        ticket._finish(TicketState.TIMED_OUT, error=error)

    # ------------------------------------------------------------------
    # Operations surface
    # ------------------------------------------------------------------

    @property
    def clock(self) -> Clock:
        """The clock every deadline and wait of this engine runs on."""
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch slot."""
        return len(self._queue)

    def render_prometheus(self) -> str:
        """The engine registry's full text exposition."""
        return self.registry.render_prometheus()
