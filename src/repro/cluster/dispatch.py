"""A stage dispatcher that keeps the supervisor in the loop.

:class:`ProcessDispatcher` is the :class:`ParallelStageExecutor` of a
process-mode deployment: same concurrency, deadlines and retry-once
semantics, plus one cluster-specific behavior -- after every stage it
runs a synchronous supervision tick.  A worker that died mid-batch is
therefore demoted, reported and scheduled for restart *immediately*,
not at the next heartbeat interval; the restart itself still honors the
policy's backoff and budget.
"""

from __future__ import annotations

from typing import Callable

from repro.clock import Clock
from repro.serving.executor import ParallelStageExecutor

__all__ = ["ProcessDispatcher"]


class ProcessDispatcher(ParallelStageExecutor):
    """Parallel stage dispatch over a supervised worker fleet."""

    def __init__(
        self,
        cluster,
        max_workers: int = 8,
        *,
        retry_transient: bool = True,
        clock: Clock | Callable[[], float] | None = None,
    ):
        super().__init__(max_workers, retry_transient=retry_transient, clock=clock)
        self.cluster = cluster

    def dispatch(
        self, monitor, connections, batch_id, feeds, *, deadline: float | None = None
    ) -> list:
        try:
            return super().dispatch(
                monitor, connections, batch_id, feeds, deadline=deadline
            )
        finally:
            # Promptly notice (and schedule the restart of) any worker
            # this stage just lost -- don't wait for the heartbeat.
            try:
                self.cluster.poll()
            except Exception:
                pass
