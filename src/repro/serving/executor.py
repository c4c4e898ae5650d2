"""Variant dispatch for replicated stages: overlap what waits, run the rest inline.

The monitor's default slow path queries the variant replicas of a stage
one after another; with three replicas the checkpoint waits for the sum
of three round trips.  :class:`ParallelStageExecutor` overlaps the
round trips that *wait outside the interpreter* -- a forked worker's
pipe, a host sleeping out its ``realtime_latency`` -- on one persistent
:class:`ThreadPoolExecutor`.  A round trip whose work runs in this
interpreter (an in-process host, not sleeping) would only trade the
GIL with its siblings there, so it runs on the dispatching thread, in
connection order, after the waiting ones have been submitted; such
round trips also take one interpreter-wide lock
(:data:`~repro.mvx.variant_host.INTERPRETER_LOCK`), so the engine's
overlapping batches take turns per round trip rather than per numpy
call.  A connection that cannot be classified goes to the pool.  On
16 px small-resnet with MVX on one partition (2 cores), a sleep-free
20-request burst through ``serving_engine()`` serves at 0.70-1.08 of
the rate of a loop of ``infer()`` (six runs, each the median of five
alternating rounds).

The executor plugs into a run as its *dispatcher* (via
:class:`~repro.mvx.scheduler.InferenceOptions`) and keeps the serial
dispatch contract: same feeds in, same
:class:`~repro.mvx.voting.VariantOutput` list out, same span/metric
emission into the run's sinks -- only the wall clock differs.  On top
of the parallelism it enforces a per-batch deadline (raising
:class:`~repro.serving.errors.DeadlineExceeded` when a replica cannot
answer in time, and cancelling the replica requests that have not
started) and retries one round trip once when a variant fails
transiently -- the host is still alive, so a transport glitch or torn
channel record should not cost the replica its vote.  An optional
``after_stage`` callable runs on the dispatching thread after every
stage; a process-mode deployment passes its supervisor's ``poll`` so a
worker lost mid-batch is restarted promptly.

The executor is *re-entrant*: any number of batches may be in flight
through one executor at once (the serving engine overlaps
``ServingPolicy.num_workers`` of them).  The deadline therefore travels
with each dispatch call -- either as the explicit ``deadline=``
parameter or baked into the lightweight per-batch view returned by
:meth:`ParallelStageExecutor.bind` -- never through shared mutable
state.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable

from repro.clock import Clock, as_clock
from repro.observability.recorder import KIND_ENGINE_ERROR
from repro.serving.errors import DeadlineExceeded

__all__ = ["BoundDispatcher", "ParallelStageExecutor"]


def _waits(connection) -> bool:
    """Whether a round trip waits outside the interpreter (pool-worthy).

    A connection that does not say (a duck-typed stand-in) is assumed to.
    """
    waits = getattr(connection, "waits", None)
    return True if waits is None else bool(waits)


class BoundDispatcher:
    """A per-batch view of one executor with a fixed deadline.

    The engine creates one per micro-batch and installs it as the run's
    dispatcher; all views share the underlying executor's thread pool,
    so concurrent batches overlap without racing on a shared deadline
    field.
    """

    __slots__ = ("executor", "deadline")

    def __init__(self, executor: "ParallelStageExecutor", deadline: float | None):
        self.executor = executor
        self.deadline = deadline

    def dispatch(self, monitor, connections, batch_id, feeds, sinks) -> list:
        return self.executor.dispatch(
            monitor, connections, batch_id, feeds, sinks, deadline=self.deadline
        )


class ParallelStageExecutor:
    """Monitor->variant dispatch with overlap, deadlines and one retry.

    One executor serves one serving engine (or one benchmark loop): the
    pool is persistent so per-batch thread startup never lands on the
    latency path, and it is shared by every in-flight batch.  Deadlines
    are per dispatch call (``dispatch(..., deadline=)`` or a
    :meth:`bind` view).
    """

    def __init__(
        self,
        max_workers: int = 8,
        *,
        retry_transient: bool = True,
        clock: Clock | Callable[[], float] | None = None,
        after_stage: Callable[[], None] | None = None,
    ):
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="mvtee-variant"
        )
        self.retry_transient = retry_transient
        #: Deadlines and the deadline wait run on this clock; a virtual
        #: one also times the monitor's round trips.
        self._clock = as_clock(clock)
        #: Called after every dispatch, on the dispatching thread.
        self.after_stage = after_stage

    def bind(self, deadline: float | None) -> BoundDispatcher:
        """A dispatcher view of this executor with ``deadline`` attached."""
        return BoundDispatcher(self, deadline)

    # ------------------------------------------------------------------
    # Dispatcher contract (InferenceOptions.dispatcher)
    # ------------------------------------------------------------------

    def dispatch(
        self,
        monitor,
        connections,
        batch_id,
        feeds,
        sinks,
        *,
        deadline: float | None = None,
    ) -> list:
        """Round-trip ``feeds`` to every connection.

        Waiting round trips run concurrently on the pool, the others
        inline (see the module docstring).  Results come back in
        connection order, exactly like the serial path, so voting sees
        an identical input either way; every round trip reports to the
        run's ``sinks``.  The deadline applies to every connection
        count: a pooled replica is awaited at most until the deadline,
        and a passed deadline stops the next inline replica from
        starting, so one slow variant cannot blow through the batch
        budget unbounded.
        """
        try:
            return self._dispatch(monitor, connections, batch_id, feeds, sinks, deadline)
        finally:
            if self.after_stage is not None:
                self._after_stage(sinks, batch_id, connections)

    def _dispatch(self, monitor, connections, batch_id, feeds, sinks, deadline) -> list:
        # Round trips that wait outside the interpreter overlap on the
        # pool; the others would only trade the GIL there, so they run
        # here, one after another, while the waiting ones proceed.
        futures = {
            index: self._clock.submit(
                self._pool, self._request, monitor, c, batch_id, feeds, sinks, deadline
            )
            for index, c in enumerate(connections)
            if _waits(c)
        }
        results = [None] * len(connections)
        try:
            for index, connection in enumerate(connections):
                if index not in futures:
                    if self._past_deadline(deadline):
                        raise self._missed(connection, batch_id)
                    results[index] = self._request(
                        monitor, connection, batch_id, feeds, sinks, deadline
                    )
            for index, future in futures.items():
                results[index] = self._await(future, connections[index], batch_id, deadline)
        except DeadlineExceeded:
            # Requests still queued behind the pool would only hold its
            # threads and the variants' channel locks for a batch that
            # has already failed.
            for future in futures.values():
                future.cancel()
            raise
        return results

    def _await(self, future, connection, batch_id, deadline):
        if deadline is None:
            return future.result()
        try:
            return future.result(timeout=max(0.0, deadline - self._clock()))
        except FutureTimeout:
            raise self._missed(connection, batch_id) from None

    @staticmethod
    def _missed(connection, batch_id) -> DeadlineExceeded:
        return DeadlineExceeded(
            f"variant {connection.variant_id} missed the batch deadline "
            f"at batch {batch_id}, partition {connection.partition_index}"
        )

    def _after_stage(self, sinks, batch_id, connections) -> None:
        """Run the after-stage hook; a failure is counted and audited."""
        try:
            self.after_stage()
        except Exception as exc:
            partition = connections[0].partition_index
            sinks.metrics.counter(
                "mvtee_after_stage_errors_total",
                "Supervision ticks after a stage that raised",
            ).inc(partition=partition)
            if sinks.recorder is not None:
                sinks.recorder.record(
                    KIND_ENGINE_ERROR,
                    error=type(exc).__name__,
                    detail=str(exc),
                    batch=batch_id,
                    partition=partition,
                )

    def _round_trip(self, monitor, connection, batch_id, feeds, sinks):
        if not self._clock.virtual:
            # Real waits (also under a bare callable clock): the monitor
            # times the round trip in real time by default.
            return monitor.request_inference(connection, batch_id, feeds, sinks)
        return monitor.request_inference(
            connection, batch_id, feeds, sinks, clock=self._clock
        )

    def _request(self, monitor, connection, batch_id, feeds, sinks, deadline=None):
        result = self._round_trip(monitor, connection, batch_id, feeds, sinks)
        if (
            result.outputs is None
            and self.retry_transient
            and not connection.host.crashed
            and not self._past_deadline(deadline)
        ):
            # Transient fault: the host is alive, so the failure came
            # from the path to it (transport glitch, torn record).  One
            # retry keeps the replica's vote without masking real
            # crashes -- a dead host short-circuits above.
            sinks.metrics.counter(
                "mvtee_dispatch_retries_total",
                "Variant round trips retried after a transient fault",
            ).inc(partition=connection.partition_index)
            result = self._round_trip(monitor, connection, batch_id, feeds, sinks)
        return result

    def _past_deadline(self, deadline: float | None) -> bool:
        return deadline is not None and self._clock() >= deadline

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelStageExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
