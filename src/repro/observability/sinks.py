"""The observability sink bundle shared by every serving surface.

Deployments, serving engines and per-run options all accept the same
trio of observability sinks -- a span tracer, a metrics registry and a
tamper-evident flight recorder.  :class:`Sinks` bundles the trio so the
APIs take one ``sinks=`` argument instead of repeating three kwargs.

``None`` fields mean "use the surface's default": the process-wide
registry, the deployment's recorder, no tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.recorder import FlightRecorder
    from repro.observability.tracing import Tracer

__all__ = ["Sinks"]


@dataclass(frozen=True)
class Sinks:
    """One bundle of observability sinks: tracer + metrics + recorder."""

    tracer: "Tracer | None" = None
    metrics: "MetricsRegistry | None" = None
    recorder: "FlightRecorder | None" = None

    def merged_over(self, other: "Sinks | None") -> "Sinks":
        """This bundle with ``other`` filling any ``None`` fields."""
        if other is None:
            return self
        return Sinks(
            tracer=self.tracer if self.tracer is not None else other.tracer,
            metrics=self.metrics if self.metrics is not None else other.metrics,
            recorder=(
                self.recorder if self.recorder is not None else other.recorder
            ),
        )

    def with_metrics(self, metrics: "MetricsRegistry | None") -> "Sinks":
        """A copy with the metrics registry replaced."""
        return replace(self, metrics=metrics)
