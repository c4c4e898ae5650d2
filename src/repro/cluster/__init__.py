"""Process-based multi-variant execution (the "cluster" deployment mode).

In-process deployment runs every variant runtime inside the monitor's
address space: a crash simulated by a variant is a Python exception, and
a *real* fault (segfault, OOM-kill, runaway native code) would take the
whole deployment down with it.  This package moves each variant's
:class:`~repro.mvx.variant_host.VariantHost` into its own forked OS
process, giving the MVX layer crash-grade fault isolation:

- :mod:`repro.cluster.worker` -- the per-variant child process and its
  pipe protocol (wire-framed control messages, shared-memory tensor
  lane);
- :mod:`repro.cluster.shm` -- the shared-memory tensor lane itself;
- :mod:`repro.cluster.transport` -- the
  :class:`~repro.mvx.transport.Transport` implementation routing the
  monitor's protected records through workers;
- :mod:`repro.cluster.supervisor` -- heartbeats, crash escalation,
  restart policy, teardown.  A serving engine over the deployment runs
  the supervisor's ``poll`` after every stage (the ``after_stage`` hook
  of :class:`~repro.serving.executor.ParallelStageExecutor`).

Select it with ``MvteeSystem.deploy(execution="process")``; the default
remains in-process execution.
"""

from repro.cluster.shm import (
    SHM_THRESHOLD_BYTES,
    cleanup_segments,
    export_tensors,
    import_tensors,
    tracked_segment_names,
)
from repro.cluster.supervisor import ClusterSupervisor, RestartPolicy
from repro.cluster.transport import ProcessTransport
from repro.cluster.worker import EXIT_CRASHED, WorkerCrashed, WorkerProcess

__all__ = [
    "EXIT_CRASHED",
    "SHM_THRESHOLD_BYTES",
    "ClusterSupervisor",
    "ProcessTransport",
    "RestartPolicy",
    "WorkerCrashed",
    "WorkerProcess",
    "cleanup_segments",
    "export_tensors",
    "import_tensors",
    "tracked_segment_names",
]
