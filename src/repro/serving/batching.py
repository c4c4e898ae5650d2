"""Dynamic micro-batching over the admission queue.

The batcher coalesces whatever is queued under a two-knob policy:

- ``max_batch_size`` -- never hand more than this many requests to one
  :meth:`MvteeSystem.infer_batches` call;
- ``max_wait_s`` -- after the first request of a batch arrives, wait at
  most this long for stragglers before dispatching.

Under heavy load batches fill to ``max_batch_size`` instantly (no added
latency); under light load a lone request waits at most ``max_wait_s``.
Formed batch sizes go to the ``mvtee_batch_size`` histogram and each
member's time-in-queue to ``mvtee_queue_wait_seconds``.

A micro-batch is a unit of scheduling, not of work: the scheduler takes
its requests through the stages one at a time (every request pays its
own channel round trips and checkpoints), and each ticket of the
micro-batch completes only when the whole micro-batch does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.clock import Clock, as_clock
from repro.observability.metrics import (
    SIZE_BUCKETS,
    MetricsRegistry,
    get_global_registry,
)
from repro.serving.admission import AdmissionQueue

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """The two-knob coalescing policy."""

    max_batch_size: int = 8
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")


class MicroBatcher:
    """Forms micro-batches from an :class:`AdmissionQueue`."""

    def __init__(
        self,
        queue: AdmissionQueue,
        policy: BatchPolicy | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock: Clock | Callable[[], float] | None = None,
    ):
        self.queue = queue
        self.policy = policy if policy is not None else BatchPolicy()
        self._registry = registry if registry is not None else get_global_registry()
        self._clock = as_clock(clock)

    def next_batch(self, *, poll_s: float = 0.05) -> list:
        """Block up to ``poll_s`` for work, then coalesce one batch.

        Returns ``[]`` when nothing arrived within ``poll_s`` (callers
        poll so they can observe shutdown); otherwise a non-empty list
        of at most ``max_batch_size`` items in arrival order.
        """
        first = self.queue.take(timeout=poll_s)
        if first is None:
            return []
        batch = [first]
        cutoff = self._clock() + self.policy.max_wait_s
        while len(batch) < self.policy.max_batch_size:
            remaining = cutoff - self._clock()
            if remaining <= 0:
                # One last non-blocking sweep: under burst the queue is
                # non-empty even though the wait budget is spent.
                item = self.queue.take(timeout=0)
            else:
                item = self.queue.take(timeout=remaining)
            if item is None:
                break
            batch.append(item)
        self._observe(batch)
        return batch

    def _observe(self, batch: list) -> None:
        self._registry.histogram(
            "mvtee_batch_size", "Formed micro-batch sizes", buckets=SIZE_BUCKETS
        ).observe(len(batch))
        wait = self._registry.histogram(
            "mvtee_queue_wait_seconds", "Seconds spent in the admission queue"
        )
        now = self._clock()
        for item in batch:
            enqueued_at = getattr(item, "enqueued_at", None)
            if enqueued_at is not None:
                wait.observe(max(0.0, now - enqueued_at))
