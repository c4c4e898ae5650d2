"""A streaming inference service on top of a deployment.

The paper motivates pipelined execution with "mainstream managed cloud
inference platforms ... provide built-in support for streaming inference
targeting real-time scenarios and continuous large-volume data
analysis" (§6.4).  :class:`InferenceService` is that serving surface:
requests are queued, executed through the pipeline in arrival order,
optionally supervised by the adaptive controller, with per-request
status, deployment metrics and graceful degradation on detections.

Two execution paths share the request table: the synchronous
:meth:`InferenceService.drain` loop, and the concurrent
:meth:`InferenceService.serve` mode backed by
:class:`repro.serving.ServingEngine` (bounded admission queue with load
shedding, dynamic micro-batching, parallel variant execution).  The
service is thread-safe: it can be driven from user threads and from the
engine's worker at once.

Serving counters live in the service's
:class:`~repro.observability.metrics.MetricsRegistry`;
:meth:`InferenceService.metrics` is a read-through snapshot over that
registry plus the monitor's live state, and
:meth:`InferenceService.render_prometheus` exposes the full registry
(stage-latency histograms, detection counters, serving totals) for
scraping.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.mvx.monitor import MonitorError
from repro.mvx.scheduler import InferenceOptions
from repro.mvx.system import MvteeSystem
from repro.observability.health import HealthMonitor, HealthReport
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import FlightRecorder
from repro.observability.sinks import Sinks
from repro.observability.tracing import Tracer

if TYPE_CHECKING:
    from repro.mvx.adaptive import AdaptiveController

__all__ = ["InferenceService", "RequestState", "ServiceMetrics"]


class RequestState(enum.Enum):
    """Lifecycle of one submitted request."""

    QUEUED = "queued"
    DONE = "done"
    FAILED = "failed"


@dataclass
class _Request:
    request_id: int
    feeds: dict[str, np.ndarray]
    state: RequestState = RequestState.QUEUED
    result: dict[str, np.ndarray] | None = None
    error: str = ""
    #: The serving-engine ticket backing this request while serve() is
    #: active (None on the synchronous drain() path).
    ticket: object | None = field(default=None, repr=False)


@dataclass(frozen=True)
class ServiceMetrics:
    """Aggregated deployment health counters.

    A read-through snapshot: the scalar counters come from the
    service's metrics registry, the live-variant gauge from the
    monitor.  :meth:`to_prometheus` keeps the historical byte-stable
    exposition of exactly these fields; the registry's own
    ``render_prometheus`` carries the full instrument set.
    """

    requests_served: int
    requests_failed: int
    batches_executed: int
    checkpoints_evaluated: int
    divergences_detected: int
    crashes_detected: int
    live_variants: dict[int, int]
    bytes_protected: int
    scaling_actions: int

    def to_prometheus(self, *, prefix: str = "mvtee") -> str:
        """Prometheus text-exposition rendering of the counters."""
        lines = []
        scalars = {
            "requests_served_total": self.requests_served,
            "requests_failed_total": self.requests_failed,
            "batches_executed_total": self.batches_executed,
            "checkpoints_evaluated_total": self.checkpoints_evaluated,
            "divergences_detected_total": self.divergences_detected,
            "crashes_detected_total": self.crashes_detected,
            "bytes_protected_total": self.bytes_protected,
            "scaling_actions_total": self.scaling_actions,
        }
        for name, value in scalars.items():
            lines.append(f"# TYPE {prefix}_{name} counter")
            lines.append(f"{prefix}_{name} {value}")
        lines.append(f"# TYPE {prefix}_live_variants gauge")
        for index, count in sorted(self.live_variants.items()):
            lines.append(f'{prefix}_live_variants{{partition="{index}"}} {count}')
        return "\n".join(lines) + "\n"


class InferenceService:
    """Queue-and-drain serving over a deployed :class:`MvteeSystem`."""

    def __init__(
        self,
        system: MvteeSystem,
        *,
        controller: "AdaptiveController | None" = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        health: HealthMonitor | None = None,
    ):
        self.system = system
        self.controller = controller
        #: Per-service registry: two services over one deployment keep
        #: independent serving counters (stage/detection metrics still
        #: aggregate here because drains run with this registry).
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        #: Flight recorder threaded through both serving paths; defaults
        #: to the deployment's recorder.
        self.recorder = (
            recorder if recorder is not None else system.monitor.recorder
        )
        #: Health watchdog over this service's registry; built lazily on
        #: the first :meth:`healthz` unless one is injected (tests pass
        #: their own rules/clock).
        self._health = health
        self._queue: OrderedDict[int, _Request] = OrderedDict()
        self._done: dict[int, _Request] = {}
        self._next_id = 0
        #: Guards _queue/_done/_next_id: the service is driven from user
        #: threads and from the concurrent serving engine at once.
        self._lock = threading.Lock()
        self._engine = None

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, feeds: dict[str, np.ndarray]) -> int:
        """Enqueue one request; returns its id.

        While :meth:`serve` is active the request is handed straight to
        the serving engine (and its backpressure applies: an
        over-capacity submission raises
        :class:`~repro.serving.errors.Overloaded` without leaving a
        request behind).
        """
        with self._lock:
            request = _Request(request_id=self._next_id, feeds=dict(feeds))
            self._next_id += 1
            self._queue[request.request_id] = request
            engine = self._engine
        if engine is not None:
            try:
                ticket = engine.submit(request.feeds)
            except Exception:
                with self._lock:
                    self._queue.pop(request.request_id, None)
                raise
            request.ticket = ticket
            ticket.add_done_callback(
                lambda t, request=request: self._finish_from_ticket(request, t)
            )
        return request.request_id

    def status(self, request_id: int) -> RequestState:
        """State of a submitted request."""
        with self._lock:
            request = self._queue.get(request_id) or self._done.get(request_id)
        if request is None:
            raise KeyError(f"unknown request {request_id}")
        return request.state

    def result(self, request_id: int) -> dict[str, np.ndarray]:
        """Result of a DONE request; raises for queued/failed ones."""
        with self._lock:
            request = self._done.get(request_id)
        if request is None:
            raise KeyError(f"request {request_id} is not finished")
        if request.state is not RequestState.DONE:
            raise MonitorError(f"request {request_id} failed: {request.error}")
        assert request.result is not None
        return request.result

    def wait(self, request_id: int, timeout: float | None = None) -> RequestState:
        """Block until a request finishes (serve() path); returns its state.

        On the synchronous path (no engine ticket) the current state is
        returned immediately -- :meth:`drain` is the blocking step there.
        """
        with self._lock:
            request = self._queue.get(request_id) or self._done.get(request_id)
        if request is None:
            raise KeyError(f"unknown request {request_id}")
        if request.ticket is not None:
            request.ticket.exception(timeout)
        return self.status(request_id)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------

    def drain(self, *, max_batch: int | None = None) -> int:
        """Run queued requests through the pipeline synchronously.

        Returns the number of requests *transitioned* out of the queue
        -- completed ones on success, FAILED ones when a detection
        halted the pipeline (HALT response policy); the queue keeps the
        rest and the operator decides how to proceed.  ``max_batch=0``
        means "do nothing" (not "unlimited"); ``None`` drains everything.
        """
        if self._engine is not None:
            raise RuntimeError(
                "drain() is unavailable while serve() is active; the engine "
                "is processing the queue"
            )
        if max_batch is not None and max_batch <= 0:
            return 0
        with self._lock:
            pending = list(self._queue.values())[:max_batch]
        if not pending:
            return 0
        options = InferenceOptions(
            sinks=Sinks(
                tracer=self.tracer,
                metrics=self.registry,
                recorder=self.recorder,
            ),
        )
        batches = [r.feeds for r in pending]
        try:
            results = self.system.infer_batches(batches, options)
        except MonitorError as exc:
            with self._lock:
                for request in pending:
                    request.state = RequestState.FAILED
                    request.error = str(exc)
                    self._done[request.request_id] = request
                    self._queue.pop(request.request_id, None)
            self.registry.counter(
                "mvtee_requests_failed_total", "Requests failed by a detection"
            ).inc(len(pending))
            if self.controller is not None:
                self.controller.observe()
            return len(pending)
        with self._lock:
            for request, result in zip(pending, results):
                request.state = RequestState.DONE
                request.result = result
                self._done[request.request_id] = request
                self._queue.pop(request.request_id, None)
        self.registry.counter(
            "mvtee_requests_served_total", "Requests served to completion"
        ).inc(len(pending))
        if self.controller is not None:
            self.controller.observe()
        return len(pending)

    # ------------------------------------------------------------------
    # Concurrent serving mode
    # ------------------------------------------------------------------

    @contextmanager
    def serve(
        self,
        *,
        capacity: int = 64,
        max_batch_size: int = 8,
        max_wait_s: float = 0.002,
        deadline_s: float | None = None,
        parallel_variants: bool = True,
        max_workers: int = 8,
    ):
        """Serve concurrently through a :class:`repro.serving.ServingEngine`.

        While the context is active, :meth:`submit` routes requests into
        the engine (admission control, micro-batching, parallel variant
        execution) and completions land back in this service's request
        table; :meth:`wait` blocks on individual requests.  The engine
        records into this service's registry, so :meth:`metrics` and
        :meth:`render_prometheus` cover both serving paths.  Requests
        queued *before* entering remain for a later :meth:`drain`.
        """
        from repro.serving.engine import ServingEngine, ServingPolicy

        if self._engine is not None:
            raise RuntimeError("serve() is already active")
        engine = ServingEngine(
            self.system,
            policy=ServingPolicy(
                capacity=capacity,
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
                default_deadline_s=deadline_s,
                parallel_variants=parallel_variants,
                max_workers=max_workers,
            ),
            sinks=Sinks(
                tracer=self.tracer,
                metrics=self.registry,
                recorder=self.recorder,
            ),
        )
        engine.start()
        self._engine = engine
        try:
            yield engine
        finally:
            self._engine = None
            engine.stop()
            if self.controller is not None:
                self.controller.observe()

    def _finish_from_ticket(self, request: _Request, ticket) -> None:
        """Engine completion callback: move the request into _done."""
        from repro.serving.engine import TicketState

        with self._lock:
            if ticket.state is TicketState.DONE:
                request.state = RequestState.DONE
                request.result = ticket.result(timeout=0)
            else:
                request.state = RequestState.FAILED
                error = ticket.exception(timeout=0)
                request.error = str(error) if error is not None else ""
            self._done[request.request_id] = request
            self._queue.pop(request.request_id, None)

    # ------------------------------------------------------------------
    # Operations surface
    # ------------------------------------------------------------------

    def healthz(self) -> HealthReport:
        """Evaluate the health watchdog (the readiness-probe endpoint).

        Grades the rolling-window SLO rules over this service's registry
        and returns the combined OK/WARN/CRIT report; the verdict also
        lands in the ``mvtee_health_status`` gauge and, on transitions,
        in the flight recorder.
        """
        if self._health is None:
            self._health = HealthMonitor(self.registry, recorder=self.recorder)
        return self._health.evaluate()

    def incidents(self, kind: str | None = None):
        """Forensic incident reports captured by the monitor."""
        return self.system.monitor.incidents(kind)

    def metrics(self) -> ServiceMetrics:
        """Current deployment health snapshot (read-through)."""
        monitor = self.system.monitor
        bytes_protected = sum(
            connection.channel.bytes_protected
            for connections in monitor.connections.values()
            for connection in connections
        )
        return ServiceMetrics(
            requests_served=int(
                self.registry.counter("mvtee_requests_served_total").total()
            ),
            requests_failed=int(
                self.registry.counter("mvtee_requests_failed_total").total()
            ),
            batches_executed=int(
                self.registry.counter("mvtee_batches_total").total()
            ),
            checkpoints_evaluated=int(
                self.registry.counter("mvtee_checkpoints_total").total()
            ),
            divergences_detected=len(monitor.divergence_events()),
            crashes_detected=len(monitor.crash_events()),
            live_variants={
                index: len(monitor.stage_connections(index))
                for index in range(len(self.system.partition_set))
            },
            bytes_protected=bytes_protected,
            scaling_actions=len(self.controller.actions) if self.controller else 0,
        )

    def render_prometheus(self) -> str:
        """Full registry exposition (histograms + counters) for scraping."""
        return self.registry.render_prometheus()
