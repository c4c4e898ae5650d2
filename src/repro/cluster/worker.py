"""One variant worker: a ``VariantHost`` in its own OS process.

The paper runs every diversified variant in its own TEE process; in the
reproduction a :class:`WorkerProcess` is that process boundary.  The
parent (monitor side) bootstraps the variant fully in-process -- the
RA-TLS handshake and key installation need both channel ends in one
address space -- then forks: the child inherits the initialized
:class:`~repro.mvx.variant_host.VariantHost` and serves protected
records over a pipe, while the parent keeps only the worker handle.

The pipe speaks the :mod:`repro.mvx.wire` framing (``encode_message`` /
``decode_message``): every control and data message is one wire message,
with record payloads carried as ``uint8`` tensors.  Payloads past the
shared-memory threshold move through :mod:`repro.cluster.shm` segments
instead, leaving only a (name, shape, dtype) header inline.

Crash-grade isolation: when the hosted runtime crashes, the child sends
one final typed failure and ``os._exit(EXIT_CRASHED)`` -- the OS
process genuinely dies, exactly like a crashed TEE.  A SIGKILLed child
looks identical to the parent (EOF on the pipe), so simulated and real
crashes share one detection path.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable

import multiprocessing
import numpy as np

from repro.cluster import shm
from repro.mvx.variant_host import VariantHost, VariantUnavailable
from repro.mvx.wire import decode_message, encode_message
from repro.observability.metrics import MetricsRegistry, set_global_registry
from repro.runtime.faults import apply_fault_spec

__all__ = ["EXIT_CRASHED", "WorkerCrashed", "WorkerProcess"]

#: Exit code of a child whose hosted runtime crashed (vs. 0 = graceful,
#: -SIGKILL/-SIGTERM = killed externally).
EXIT_CRASHED = 13


class WorkerCrashed(VariantUnavailable):
    """The worker process died; the variant is gone like a crashed TEE."""


def _pack(
    msg_type: str,
    meta: dict | None = None,
    tensors: dict | None = None,
    *,
    threshold: int = shm.SHM_THRESHOLD_BYTES,
    registry: MetricsRegistry | None = None,
    direction: str = "request",
) -> tuple[bytes, list[dict]]:
    """One wire message, large tensors diverted through shared memory.

    Returns the message and the headers of the segments it created,
    which the sender untracks once the receiver's answer arrives.
    """
    meta = dict(meta or {})
    tensors = tensors or {}
    headers, inline = shm.export_tensors(
        tensors, threshold=threshold, registry=registry, direction=direction
    )
    if headers:
        meta["shm"] = headers
    return encode_message(msg_type, meta, inline), headers


def _unpack(
    data: bytes,
    *,
    registry: MetricsRegistry | None = None,
    direction: str = "request",
) -> tuple[str, dict, dict]:
    """Inverse of :func:`_pack`: reattach any shared-memory tensors."""
    msg_type, meta, tensors = decode_message(data)
    headers = meta.pop("shm", [])
    if headers:
        tensors.update(
            shm.import_tensors(headers, registry=registry, direction=direction)
        )
    return msg_type, meta, tensors


def _record_tensor(record: bytes) -> dict[str, np.ndarray]:
    return {"record": np.frombuffer(record, dtype=np.uint8)}


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------


def _worker_main(conn, host: VariantHost, threshold: int) -> None:
    """Serve loop of the forked child; never returns."""
    # The fork copied the parent's registry (and possibly a lock held by
    # a parent thread mid-increment): start from a fresh one.  Child-side
    # metrics are per-process and intentionally not merged back.
    set_global_registry(MetricsRegistry())
    host.metrics = None
    shm._CREATED_SEGMENTS.clear()  # inherited names belong to the parent
    sent: list[dict] = []
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            os._exit(0)
        # The parent sends again only after reading (and unlinking) the
        # segments of our last response.
        shm.untrack_segments(sent)
        sent = []
        msg_type, meta, tensors = _unpack(data, direction="request")
        if msg_type == "exchange":
            sent = _serve_exchange(conn, host, tensors, threshold)
        elif msg_type == "ping":
            conn.send_bytes(
                encode_message(
                    "pong",
                    {
                        "ts": meta.get("ts"),
                        "pid": os.getpid(),
                        "served": host.inferences_served,
                        "crashed": host.crashed,
                    },
                )
            )
        elif msg_type == "configure":
            for attr in ("simulated_latency", "realtime_latency"):
                if attr in meta:
                    setattr(host, attr, meta[attr])
            conn.send_bytes(encode_message("configured", {"pid": os.getpid()}))
        elif msg_type == "inject":
            # Chaos harness seam: faults must be armed *inside* the
            # worker -- the parent's runtime copy diverged at fork time,
            # so arming there would never reach this process.
            try:
                result = apply_fault_spec(host.runtime, meta["spec"])
            except Exception as exc:
                conn.send_bytes(
                    encode_message(
                        "inject-failed",
                        {"reason": str(exc), "pid": os.getpid()},
                    )
                )
            else:
                conn.send_bytes(
                    encode_message("injected", {"pid": os.getpid(), **result})
                )
        elif msg_type == "stop":
            conn.send_bytes(encode_message("stopping", {"pid": os.getpid()}))
            conn.close()
            os._exit(0)
        else:
            conn.send_bytes(
                encode_message("error", {"reason": f"unknown worker op {msg_type!r}"})
            )


def _serve_exchange(conn, host: VariantHost, tensors: dict, threshold: int) -> list[dict]:
    """Answer one exchange; returns the headers of the segments sent."""
    record = tensors["record"].tobytes()
    try:
        response = host.handle_record(record)
    except Exception as exc:
        # VariantUnavailable and ChannelError are the expected failure
        # shapes (the monitor treats both as an errored round trip); any
        # other exception must not kill the serve loop either -- the
        # parent converts the reason back into a typed failure.
        conn.send_bytes(
            encode_message(
                "exchange-failed",
                {"reason": str(exc), "crashed": host.crashed, "pid": os.getpid()},
            )
        )
        if host.crashed:
            # The TEE process dies with its runtime: flush the pipe and
            # exit hard so the parent sees a genuinely dead process.
            conn.close()
            os._exit(EXIT_CRASHED)
        return []
    message, headers = _pack(
        "exchange-ok",
        {"pid": os.getpid()},
        _record_tensor(response),
        threshold=threshold,
        direction="response",
    )
    conn.send_bytes(message)
    return headers


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class WorkerProcess:
    """Parent-side handle of one forked variant worker.

    The handle serializes pipe access (one request/response in flight
    per worker), tracks liveness for the supervisor's heartbeat loop,
    and converts a dead child into a typed :class:`WorkerCrashed` --
    which the monitor treats exactly like a crashed TEE.
    """

    def __init__(
        self,
        host: VariantHost,
        *,
        shm_threshold: int = shm.SHM_THRESHOLD_BYTES,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.host = host
        self.shm_threshold = shm_threshold
        self.registry = registry
        self._clock = clock
        self._conn = None
        self._process: multiprocessing.Process | None = None
        import threading

        self._lock = threading.RLock()
        #: Pongs answered after their ping timed out: still in the pipe,
        #: to be drained before the next real response is read.
        self._stale_pongs = 0
        #: Monotonic timestamp of the last successful round trip.
        self.last_heartbeat: float = clock()
        #: Set once the death has been surfaced to the monitor, so the
        #: supervisor does not record a second incident for it.
        self.crash_reported = False

    @property
    def variant_id(self) -> str:
        """Identifier of the hosted variant."""
        return self.host.variant_id

    @property
    def pid(self) -> int | None:
        """OS pid of the child (None before start)."""
        return self._process.pid if self._process is not None else None

    @property
    def exitcode(self) -> int | None:
        """Child exit code (None while alive)."""
        return self._process.exitcode if self._process is not None else None

    def is_alive(self) -> bool:
        """Whether the child process is running."""
        return self._process is not None and self._process.is_alive()

    def start(self) -> "WorkerProcess":
        """Fork the child and hand it the initialized host."""
        if self._process is not None:
            raise RuntimeError(f"worker {self.variant_id} already started")
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        with warnings.catch_warnings():
            # Forking a multi-threaded parent is deliberate here: the
            # child only touches the pipe, the host and numpy.
            warnings.simplefilter("ignore", DeprecationWarning)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.host, self.shm_threshold),
                name=f"mvtee-worker-{self.variant_id}",
                daemon=True,
            )
            process.start()
        child_conn.close()
        self._conn = parent_conn
        self._process = process
        self.last_heartbeat = self._clock()
        return self

    # ------------------------------------------------------------------
    # Round trips
    # ------------------------------------------------------------------

    def _roundtrip(self, message: bytes) -> tuple[str, dict, dict]:
        with self._lock:
            if self._conn is None or not self.is_alive():
                raise self._death(reap=True)
            try:
                self._conn.send_bytes(message)
                result = self._recv_response()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
                raise self._death(reap=True) from exc
        self.last_heartbeat = self._clock()
        return result

    def _recv_response(self) -> tuple[str, dict, dict]:
        """Read the next response, skipping pongs of timed-out pings."""
        while True:
            result = _unpack(
                self._conn.recv_bytes(), registry=self.registry, direction="response"
            )
            if self._stale_pongs and result[0] == "pong":
                self._stale_pongs -= 1
                continue
            return result

    def _death(self, *, reap: bool = False) -> WorkerCrashed:
        """Build the typed error for a dead child (joining it first)."""
        if reap and self._process is not None:
            self._process.join(timeout=1.0)
        return WorkerCrashed(
            f"variant {self.variant_id} worker process died "
            f"(pid={self.pid}, exit_code={self.exitcode})"
        )

    def exchange(self, record: bytes) -> bytes:
        """Round-trip one protected record through the child.

        Raises :class:`WorkerCrashed` when the child is dead, and
        :class:`VariantUnavailable` when the child answered with a typed
        failure (same semantics as the in-process
        :meth:`VariantHost.handle_record`).
        """
        message, headers = _pack(
            "exchange",
            {},
            _record_tensor(record),
            threshold=self.shm_threshold,
            registry=self.registry,
            direction="request",
        )
        msg_type, meta, tensors = self._roundtrip(message)
        # An answer means the child has consumed (and unlinked) the
        # request's segments; a dead child leaves them for the sweep.
        shm.untrack_segments(headers)
        if msg_type == "exchange-ok":
            return tensors["record"].tobytes()
        if msg_type == "exchange-failed":
            if meta.get("crashed"):
                # The child is about to exit with EXIT_CRASHED; reap it
                # so callers immediately see a dead worker.
                if self._process is not None:
                    self._process.join(timeout=2.0)
                raise WorkerCrashed(
                    f"variant {self.variant_id} worker crashed: {meta.get('reason')} "
                    f"(pid={self.pid}, exit_code={self.exitcode})"
                )
            raise VariantUnavailable(str(meta.get("reason")))
        raise VariantUnavailable(
            f"variant {self.variant_id} worker sent unexpected {msg_type!r}"
        )

    def ping(self, *, timeout: float = 1.0) -> dict | None:
        """Liveness probe; returns the child's pong meta or None if busy.

        Skips (returns None) when an exchange holds the pipe -- a busy
        worker is alive by definition, and its heartbeat is refreshed
        when the exchange completes.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if self._conn is None or not self.is_alive():
                raise self._death(reap=True)
            self._conn.send_bytes(encode_message("ping", {"ts": self._clock()}))
            if not self._conn.poll(timeout):
                # The pong will still arrive; remember to drain it so it
                # is never mistaken for the next exchange's response.
                self._stale_pongs += 1
                return None
            msg_type, meta, _ = self._recv_response()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise self._death(reap=True) from exc
        finally:
            self._lock.release()
        if msg_type != "pong":
            return None
        self.last_heartbeat = self._clock()
        return meta

    def inject_fault(self, spec: dict) -> dict:
        """Arm (or clear) one fault spec inside the child runtime.

        The spec vocabulary is
        :func:`repro.runtime.faults.apply_fault_spec`'s.  Raises
        :class:`WorkerCrashed` when the child is dead and
        :class:`VariantUnavailable` when the child rejected the spec.
        """
        msg_type, meta, _ = self._roundtrip(encode_message("inject", {"spec": spec}))
        if msg_type != "injected":
            raise VariantUnavailable(
                f"variant {self.variant_id} fault injection failed: "
                f"{meta.get('reason')}"
            )
        return meta

    def configure(self, **attrs) -> None:
        """Set host attributes (e.g. simulated latency) in the child.

        Mirrors the values onto the parent-side host copy so scheduling
        decisions that read them (async laggard ordering) stay coherent.
        """
        self._roundtrip(encode_message("configure", attrs))
        for attr, value in attrs.items():
            setattr(self.host, attr, value)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def stop(self, *, graceful_timeout: float = 2.0) -> int | None:
        """Stop the child: graceful request, then SIGTERM, then SIGKILL.

        Returns the child's exit code.  A worker stuck in a long kernel
        (or wedged entirely) is hard-killed after ``graceful_timeout``
        so a crashed run never leaks orphan processes.
        """
        process = self._process
        if process is None:
            return None
        if process.is_alive() and self._conn is not None:
            if self._lock.acquire(timeout=graceful_timeout):
                try:
                    self._conn.send_bytes(encode_message("stop"))
                except (BrokenPipeError, ConnectionResetError, OSError):
                    pass
                finally:
                    self._lock.release()
            process.join(timeout=graceful_timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=graceful_timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        return process.exitcode
