"""True parallel variant execution for replicated stages.

The monitor's default slow path queries the variant replicas of a stage
one after another; with three replicas the checkpoint waits for the sum
of three round trips.  :class:`ParallelStageExecutor` dispatches them
concurrently on one persistent :class:`ThreadPoolExecutor` -- the numpy
kernels inside the variant runtimes release the GIL, so the replicas
genuinely overlap and the checkpoint waits only for the slowest.

The executor plugs into a run as its *dispatcher* (via
:class:`~repro.mvx.scheduler.InferenceOptions` or directly on the
monitor) and sits behind the scheduler's ``_stage_once`` contract: same
feeds in, same :class:`~repro.mvx.voting.VariantOutput` list out, same
span/metric emission -- only the wall clock differs.  On top of the
parallelism it enforces a per-batch deadline (raising
:class:`~repro.serving.errors.DeadlineExceeded` when a replica cannot
answer in time) and retries one round trip once when a variant fails
transiently -- the host is still alive, so a transport glitch or torn
channel record should not cost the replica its vote.

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

    def dispatch(self, monitor, connections, batch_id, feeds) -> list:
        return self.executor.dispatch(
            monitor, connections, batch_id, feeds, deadline=self.deadline
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
    ):
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="mvtee-variant"
        )
        self.retry_transient = retry_transient
        #: Deadlines and the deadline wait run on this clock; a virtual
        #: one also times the monitor's round trips.
        self._clock = as_clock(clock)

    def bind(self, deadline: float | None) -> BoundDispatcher:
        """A dispatcher view of this executor with ``deadline`` attached."""
        return BoundDispatcher(self, deadline)

    # ------------------------------------------------------------------
    # Dispatcher contract (Monitor._dispatch)
    # ------------------------------------------------------------------

    def dispatch(
        self, monitor, connections, batch_id, feeds, *, deadline: float | None = None
    ) -> list:
        """Round-trip ``feeds`` to every connection concurrently.

        Results come back in connection order, exactly like the serial
        path, so voting sees an identical input either way.  The
        deadline applies to every connection count -- a single-replica
        stage goes through the same future-with-timeout path, so one
        slow variant cannot blow through the batch budget unbounded.
        """
        if len(connections) == 1 and deadline is None:
            # Unbounded single replica: no timeout to enforce, so skip
            # the pool hop entirely.
            return [self._request(monitor, connections[0], batch_id, feeds, deadline)]
        futures = [
            self._clock.submit(
                self._pool, self._request, monitor, c, batch_id, feeds, deadline
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
                raise DeadlineExceeded(
                    f"variant {connection.variant_id} missed the batch deadline "
                    f"at batch {batch_id}, partition {connection.partition_index}"
                ) from None
        return results

    def _round_trip(self, monitor, connection, batch_id, feeds):
        if not self._clock.virtual:
            # Real waits (also under a bare callable clock): the monitor
            # times the round trip in real time by default.
            return monitor.request_inference(connection, batch_id, feeds)
        return monitor.request_inference(
            connection, batch_id, feeds, clock=self._clock
        )

    def _request(self, monitor, connection, batch_id, feeds, deadline=None):
        result = self._round_trip(monitor, connection, batch_id, feeds)
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
            monitor.metrics_registry.counter(
                "mvtee_dispatch_retries_total",
                "Variant round trips retried after a transient fault",
            ).inc(partition=connection.partition_index)
            result = self._round_trip(monitor, connection, batch_id, feeds)
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
