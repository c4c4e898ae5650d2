"""True parallel variant execution for replicated stages.

The monitor's default slow path queries the variant replicas of a stage
one after another; with three replicas the checkpoint waits for the sum
of three round trips.  :class:`ParallelStageExecutor` dispatches them
concurrently on one persistent :class:`ThreadPoolExecutor`.  Replicas
overlap only where their work releases the GIL (large numpy kernels,
sleeps, a worker process's pipe).  In-process, most of a round trip is
the record layer, whose small numpy calls and Python-int Poly1305 steps
hold it, so the replicas mostly take turns: a 20-request burst through
``serving_engine()`` on 16 px small-resnet served 15-16 req/s against
34-38 req/s for a loop of ``infer()`` with MVX on one partition, and
8.5-8.8 against 19-26 req/s with 3x3 MVX (2 cores).

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
    """Concurrent monitor->variant dispatch with deadlines and one retry.

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
        """Round-trip ``feeds`` to every connection concurrently.

        Results come back in connection order, exactly like the serial
        path, so voting sees an identical input either way; every round
        trip reports to the run's ``sinks``.  The deadline applies to
        every connection count -- a single-replica stage goes through
        the same future-with-timeout path, so one slow variant cannot
        blow through the batch budget unbounded.
        """
        try:
            return self._dispatch(monitor, connections, batch_id, feeds, sinks, deadline)
        finally:
            if self.after_stage is not None:
                self._after_stage(sinks, batch_id, connections)

    def _dispatch(self, monitor, connections, batch_id, feeds, sinks, deadline) -> list:
        if len(connections) == 1 and deadline is None:
            # Unbounded single replica: no timeout to enforce, so skip
            # the pool hop entirely.
            return [self._request(monitor, connections[0], batch_id, feeds, sinks, deadline)]
        futures = [
            self._clock.submit(
                self._pool, self._request, monitor, c, batch_id, feeds, sinks, deadline
            )
            for c in connections
        ]
        results = []
        for connection, future in zip(connections, futures):
            if deadline is None:
                results.append(future.result())
                continue
            remaining = deadline - self._clock()
            try:
                results.append(future.result(timeout=max(0.0, remaining)))
            except FutureTimeout:
                # Requests still queued behind the pool would only hold
                # its threads and the variants' channel locks for a batch
                # that has already failed.
                for pending in futures:
                    pending.cancel()
                raise DeadlineExceeded(
                    f"variant {connection.variant_id} missed the batch deadline "
                    f"at batch {batch_id}, partition {connection.partition_index}"
                ) from None
        return results

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
