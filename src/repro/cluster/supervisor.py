"""Worker supervision: heartbeats, restart budgets, graceful teardown.

The :class:`ClusterSupervisor` owns every forked variant worker of a
process-mode deployment.  It is the piece that turns "a variant runs in
its own OS process" into an operable system:

- **liveness** -- a background heartbeat thread pings idle workers,
  publishes ``mvtee_worker_heartbeat_age_seconds`` per worker, and
  notices deaths that happen *between* requests (a worker killed while
  idle never fails an in-flight round trip);
- **escalation** -- a death is reported to the monitor
  (:meth:`~repro.mvx.monitor.Monitor.report_worker_crash`), so the
  crash event, metric and forensic incident (with the worker's pid and
  exit code) appear exactly like a crashed TEE's;
- **restart policy** -- dead workers are re-bound within a budget
  (``max_restarts`` per rolling ``window_s``) with exponential backoff;
  a slot that exhausts its budget is abandoned and stays retired;
- **teardown** -- graceful stop, then SIGTERM, then SIGKILL, plus a
  shared-memory sweep; an ``atexit`` hook shuts every live supervisor
  down so a crashed test run cannot leak orphan processes or
  ``/dev/shm`` segments.

Restarting a worker is *not* a fork of stale state: the RA-TLS channel
is strictly sequential, so the slot is refilled by retiring the old
binding and re-running the full bootstrap (fresh enclave, fresh channel,
fresh installation evidence) for the same variant artifact, then forking
a new worker from the newly initialized host.
"""

from __future__ import annotations

import atexit
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import shm
from repro.cluster.transport import ProcessTransport
from repro.cluster.worker import WorkerProcess
from repro.mvx.monitor import Monitor, MonitorError
from repro.mvx.variant_host import VariantHost
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.observability.recorder import (
    KIND_WORKER_EXITED,
    KIND_WORKER_RESTARTED,
    KIND_WORKER_STARTED,
    FlightRecorder,
)

__all__ = ["ClusterSupervisor", "RestartPolicy"]

#: Supervisors with running workers; swept by the atexit hook.
_LIVE_SUPERVISORS: "weakref.WeakSet[ClusterSupervisor]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _atexit_shutdown_all() -> None:
    """Last-resort cleanup: kill every still-running worker fleet."""
    for supervisor in list(_LIVE_SUPERVISORS):
        try:
            supervisor.shutdown(graceful_timeout=0.5)
        except Exception:
            pass
    shm.cleanup_segments()


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_atexit_shutdown_all)
        _ATEXIT_REGISTERED = True


@dataclass(frozen=True)
class RestartPolicy:
    """When and how fast dead workers are restarted."""

    #: Restarts allowed per slot inside one rolling window; past the
    #: budget the slot is abandoned (the variant stays retired).
    max_restarts: int = 3
    window_s: float = 60.0
    #: Exponential backoff between a death and the restart attempt.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Grace period for a worker to honor a stop request before SIGTERM
    #: and, failing that, SIGKILL.
    graceful_timeout_s: float = 2.0


@dataclass
class _Slot:
    """Supervision state of one variant's worker lineage."""

    variant_id: str
    partition_index: int
    worker: WorkerProcess | None = None
    restart_times: list[float] = field(default_factory=list)
    restart_due_at: float | None = None
    abandoned: bool = False
    last_exit: tuple[int | None, int | None] | None = None  # (pid, exit code)


class ClusterSupervisor:
    """Supervises the worker fleet of one process-mode deployment."""

    def __init__(
        self,
        monitor: Monitor,
        orchestrator,
        transport: ProcessTransport,
        *,
        hosts: dict[str, VariantHost] | None = None,
        policy: RestartPolicy | None = None,
        registry: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        heartbeat_interval_s: float = 0.25,
        shm_threshold: int = shm.SHM_THRESHOLD_BYTES,
    ):
        self.monitor = monitor
        self.orchestrator = orchestrator
        self.transport = transport
        self.hosts = hosts
        self.policy = policy if policy is not None else RestartPolicy()
        self.registry = registry
        self.recorder = recorder if recorder is not None else monitor.recorder
        self.heartbeat_interval_s = heartbeat_interval_s
        self.shm_threshold = shm_threshold
        self._slots: dict[str, _Slot] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        # Pre-register the cluster metric surface so inventories are
        # verifiable before the first restart or shm transfer.
        reg = self._registry
        reg.counter("mvtee_worker_restarts_total", "Variant worker processes restarted")
        reg.gauge(
            "mvtee_worker_heartbeat_age_seconds",
            "Seconds since each worker's last successful round trip",
        )
        reg.counter("mvtee_shm_bytes_total", "Tensor bytes moved through shared memory")

    @property
    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_global_registry()

    def _audit(self, kind: str, **data) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, **data)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterSupervisor":
        """Fork one worker per live connection; start the heartbeat."""
        try:
            # Start the shared-memory resource tracker *before* forking
            # so parent and children share one tracker process.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        with self._lock:
            for index, connections in self.monitor.connections.items():
                for connection in connections:
                    if connection.host.crashed:
                        continue
                    slot = _Slot(variant_id=connection.variant_id, partition_index=index)
                    self._slots[connection.variant_id] = slot
                    self._spawn(slot, connection.host)
        _LIVE_SUPERVISORS.add(self)
        _register_atexit()
        self._stop.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="mvtee-cluster-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        return self

    def _spawn(self, slot: _Slot, host: VariantHost) -> WorkerProcess:
        worker = WorkerProcess(
            host, shm_threshold=self.shm_threshold, registry=self.registry
        )
        worker.start()
        slot.worker = worker
        self.transport.promote(worker)
        self._audit(
            KIND_WORKER_STARTED,
            variant=slot.variant_id,
            partition=slot.partition_index,
            pid=worker.pid,
        )
        return worker

    def shutdown(self, *, graceful_timeout: float | None = None) -> None:
        """Stop the heartbeat and every worker (graceful, then SIGKILL)."""
        self._stop.set()
        thread = self._heartbeat_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._heartbeat_thread = None
        timeout = (
            graceful_timeout
            if graceful_timeout is not None
            else self.policy.graceful_timeout_s
        )
        with self._lock:
            for slot in self._slots.values():
                worker = slot.worker
                if worker is None:
                    continue
                self.transport.demote(slot.variant_id)
                pid = worker.pid
                worker.stop(graceful_timeout=timeout)
                self._sweep_child_segments(pid)
                slot.worker = None
        shm.cleanup_segments()
        _LIVE_SUPERVISORS.discard(self)

    @staticmethod
    def _sweep_child_segments(pid: int | None) -> None:
        """Unlink /dev/shm segments a dead child left behind."""
        if pid is None:
            return
        dev_shm = Path("/dev/shm")
        if not dev_shm.is_dir():
            return
        for path in dev_shm.glob(f"mvtee-{pid}-*"):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def worker(self, variant_id: str) -> WorkerProcess | None:
        """The current worker of one variant slot (None if down)."""
        slot = self._slots.get(variant_id)
        return slot.worker if slot is not None else None

    def workers(self) -> dict[str, WorkerProcess]:
        """variant_id -> live worker handle."""
        with self._lock:
            return {
                vid: slot.worker
                for vid, slot in self._slots.items()
                if slot.worker is not None
            }

    def live_worker_count(self) -> int:
        """Workers currently alive."""
        with self._lock:
            return sum(
                1
                for slot in self._slots.values()
                if slot.worker is not None and slot.worker.is_alive()
            )

    def abandoned_slots(self) -> list[str]:
        """Variant slots that exhausted their restart budget."""
        with self._lock:
            return [vid for vid, slot in self._slots.items() if slot.abandoned]

    # ------------------------------------------------------------------
    # Supervision loop
    # ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                self.poll()
            except Exception:
                # Supervision must outlive any single bad tick.
                continue

    def poll(self) -> None:
        """One supervision tick: liveness, gauges, due restarts.

        Also called synchronously after each stage (the serving
        engine's ``after_stage`` hook) so a worker that died mid-batch
        is restarted without waiting for the next heartbeat tick.  Safe
        for any number of concurrent callers (the serving engine
        overlaps batches, so several may tick at once): a tick that
        finds another one in progress simply yields to it -- supervision
        work is idempotent and the in-flight tick covers the whole fleet.
        """
        if not self._lock.acquire(blocking=False):
            return
        try:
            self._poll_locked()
        finally:
            self._lock.release()

    def _poll_locked(self) -> None:
        now = time.monotonic()
        gauge = self._registry.gauge(
            "mvtee_worker_heartbeat_age_seconds",
            "Seconds since each worker's last successful round trip",
        )
        for slot in self._slots.values():
            worker = slot.worker
            if slot.abandoned:
                continue
            if worker is not None:
                if worker.is_alive():
                    age = now - worker.last_heartbeat
                    if age >= self.heartbeat_interval_s:
                        try:
                            if worker.ping(timeout=self.heartbeat_interval_s):
                                age = now - worker.last_heartbeat
                        except Exception:
                            # Death is handled just below.
                            pass
                    gauge.set(max(0.0, age), variant=slot.variant_id)
                if not worker.is_alive():
                    self._handle_death(slot, now)
            if slot.restart_due_at is not None and now >= slot.restart_due_at:
                self._restart(slot)

    def _handle_death(self, slot: _Slot, now: float) -> None:
        worker = slot.worker
        assert worker is not None
        self.transport.demote(slot.variant_id)
        slot.worker = None
        slot.last_exit = (worker.pid, worker.exitcode)
        self._audit(
            KIND_WORKER_EXITED,
            variant=slot.variant_id,
            partition=slot.partition_index,
            pid=worker.pid,
            exit_code=worker.exitcode,
        )
        if not worker.crash_reported:
            worker.crash_reported = True
            self.monitor.report_worker_crash(
                slot.variant_id,
                error=(
                    f"worker process died (pid={worker.pid}, "
                    f"exit_code={worker.exitcode})"
                ),
            )
        self._sweep_child_segments(worker.pid)
        self._schedule_restart(slot, now)

    def _schedule_restart(self, slot: _Slot, now: float) -> None:
        window_start = now - self.policy.window_s
        slot.restart_times = [t for t in slot.restart_times if t >= window_start]
        if len(slot.restart_times) >= self.policy.max_restarts:
            slot.abandoned = True
            slot.restart_due_at = None
            self._audit(
                KIND_WORKER_EXITED,
                variant=slot.variant_id,
                partition=slot.partition_index,
                abandoned=True,
                restarts_in_window=len(slot.restart_times),
            )
            return
        backoff = min(
            self.policy.backoff_base_s
            * self.policy.backoff_factor ** len(slot.restart_times),
            self.policy.backoff_max_s,
        )
        slot.restart_due_at = now + backoff

    def _restart(self, slot: _Slot) -> None:
        """Refill one slot: retire the stale binding, re-bootstrap, fork."""
        slot.restart_due_at = None
        slot.restart_times.append(time.monotonic())
        variant_id = slot.variant_id
        # Retire whatever is left of the old incarnation.  The crash
        # response may already have dropped the connection (then the
        # ledger also carries the retire entry); tolerate both shapes.
        try:
            self.monitor.retire_variant(variant_id)
        except MonitorError:
            pass
        artifact = self._artifact_for(slot)
        if artifact is None:
            slot.abandoned = True
            return
        host = VariantHost.place(
            artifact,
            self.orchestrator._pick_cpu(),
            enclave_id=f"tee-{variant_id}-r{len(slot.restart_times)}",
        )
        try:
            self.monitor.bind_variant(
                slot.partition_index, artifact, host, event="restart"
            )
        except MonitorError:
            # Bootstrap failed (e.g. attestation): burn a budget slot and
            # try again after backoff.
            self._schedule_restart(slot, time.monotonic())
            return
        if self.hosts is not None:
            self.hosts[variant_id] = host
        self._spawn(slot, host)
        self._registry.counter(
            "mvtee_worker_restarts_total", "Variant worker processes restarted"
        ).inc(variant=variant_id)
        self._audit(
            KIND_WORKER_RESTARTED,
            variant=variant_id,
            partition=slot.partition_index,
            pid=slot.worker.pid if slot.worker else None,
            restarts_in_window=len(slot.restart_times),
        )

    def _artifact_for(self, slot: _Slot):
        for artifact in self.monitor.pool.for_partition(slot.partition_index):
            if artifact.variant_id == slot.variant_id:
                return artifact
        return None

    def restart_now(self, variant_id: str) -> None:
        """Force an immediate restart of one slot (operator action)."""
        with self._lock:
            slot = self._slots.get(variant_id)
            if slot is None:
                raise KeyError(f"no supervised slot for variant {variant_id!r}")
            worker = slot.worker
            if worker is not None and worker.is_alive():
                self.transport.demote(variant_id)
                worker.stop(graceful_timeout=self.policy.graceful_timeout_s)
                slot.worker = None
            slot.abandoned = False
            self._restart(slot)
