"""Bounded admission queue with backpressure and load shedding.

Admission control is the first stage of the serving pipeline: a request
either gets a seat in a bounded queue or is shed immediately with
:class:`~repro.serving.errors.Overloaded`.  Rejecting over capacity
bounds both memory and queueing delay -- under sustained overload every
admitted request still sees at most ``capacity / service_rate`` of
queue wait, and clients get an immediate, typed signal to back off.

The queue is a plain condition-variable protected deque (FIFO), safe
for any number of producer threads and consumer threads.  Depth is
mirrored into the ``mvtee_queue_depth`` gauge on every transition and
sheds are counted in ``mvtee_requests_shed_total``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.clock import Clock, as_clock
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.serving.errors import EngineStopped, Overloaded

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """FIFO queue that sheds instead of growing past ``capacity``."""

    def __init__(
        self,
        capacity: int,
        *,
        registry: MetricsRegistry | None = None,
        clock: Clock | Callable[[], float] | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._registry = registry if registry is not None else get_global_registry()
        self._clock = as_clock(clock)
        self._items: deque = deque()
        self._cond = self._clock.condition()
        self._closed = False

    def _set_depth(self) -> None:
        self._registry.gauge(
            "mvtee_queue_depth", "Requests waiting in the admission queue"
        ).set(len(self._items))

    def offer(self, item) -> None:
        """Admit one item or shed it.

        Raises :class:`Overloaded` when the queue is at capacity and
        :class:`EngineStopped` when the queue has been closed.
        """
        with self._cond:
            if self._closed:
                raise EngineStopped("admission queue is closed")
            if len(self._items) >= self.capacity:
                self._registry.counter(
                    "mvtee_requests_shed_total",
                    "Requests rejected by admission control",
                ).inc()
                raise Overloaded(
                    f"admission queue at capacity ({self.capacity}); request shed"
                )
            self._items.append(item)
            self._set_depth()
            self._cond.notify()

    def take(self, timeout: float | None = None):
        """Pop the oldest item, waiting up to ``timeout`` seconds.

        Returns ``None`` on timeout, or immediately once the queue is
        both closed and empty (a closed queue still drains: items
        admitted before :meth:`close` remain takeable).
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            item = self._items.popleft()
            self._set_depth()
            return item

    def close(self) -> None:
        """Refuse further offers; takers drain what is left, then get None."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """Whether the queue refuses new items."""
        return self._closed

    def __len__(self) -> int:
        return len(self._items)
