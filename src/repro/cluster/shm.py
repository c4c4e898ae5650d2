"""Shared-memory tensor lane for the process cluster.

Pipes are fine for control traffic but copy every byte twice through
the kernel; activation tensors and protected records between the
monitor process and a variant worker can reach megabytes per request.
This module moves large tensors through POSIX shared memory instead:
the sender writes the array into a :class:`multiprocessing.shared_memory
.SharedMemory` segment and ships only a small header (segment name,
shape, dtype) over the pipe; the receiver attaches, copies out, closes
and unlinks.  Tensors under :data:`SHM_THRESHOLD_BYTES` stay inline in
the wire message -- a 200-byte control record is cheaper to copy than
to round-trip through ``shm_open``.

Segment hygiene: every segment created by this process is tracked in a
module-level registry and swept by an ``atexit`` hook, so a crashed
test run cannot leak ``/dev/shm`` entries.  The receiver unlinks each
segment as soon as it has copied the payload (strict request/response
protocols make that safe: the sender never re-reads a segment), and the
sender untracks its segments (:func:`untrack_segments`) once the answer
shows they were consumed; a receiver that died first leaves them
tracked for the sweep.
"""

from __future__ import annotations

import atexit
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.observability.metrics import MetricsRegistry, get_global_registry

__all__ = [
    "SHM_THRESHOLD_BYTES",
    "cleanup_segments",
    "export_tensors",
    "import_tensors",
    "tracked_segment_names",
    "untrack_segments",
]

#: Below this many bytes a tensor travels inline in the wire message.
SHM_THRESHOLD_BYTES = 64 * 1024

#: Names of segments created by this process that may still be live.
_CREATED_SEGMENTS: set[str] = set()
_SEGMENTS_LOCK = threading.Lock()
_SEQ = 0


def _shm_bytes(registry: MetricsRegistry | None):
    registry = registry if registry is not None else get_global_registry()
    return registry.counter(
        "mvtee_shm_bytes_total", "Tensor bytes moved through shared memory"
    )


def _track(name: str) -> None:
    with _SEGMENTS_LOCK:
        _CREATED_SEGMENTS.add(name)


def _untrack(name: str) -> None:
    with _SEGMENTS_LOCK:
        _CREATED_SEGMENTS.discard(name)


def untrack_segments(headers: list[dict]) -> None:
    """Stop tracking segments the receiver has consumed (and unlinked)."""
    with _SEGMENTS_LOCK:
        _CREATED_SEGMENTS.difference_update(header["shm"] for header in headers)


def tracked_segment_names() -> set[str]:
    """Names of segments this process created and has not yet unlinked."""
    with _SEGMENTS_LOCK:
        return set(_CREATED_SEGMENTS)


def _next_segment_name(tag: str) -> str:
    global _SEQ
    import os

    with _SEGMENTS_LOCK:
        _SEQ += 1
        return f"mvtee-{os.getpid()}-{tag}-{_SEQ}"


def export_tensors(
    tensors: dict[str, np.ndarray],
    *,
    threshold: int = SHM_THRESHOLD_BYTES,
    registry: MetricsRegistry | None = None,
    direction: str = "request",
    tag: str = "t",
) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Split a tensor dict into (shm headers, inline remainder).

    Tensors of at least ``threshold`` bytes are written into fresh
    shared-memory segments; the returned headers carry everything the
    receiving process needs to reconstruct them (``name``, ``shm``,
    ``shape``, ``dtype``).  Smaller tensors are returned unchanged for
    inline wire framing.  The sender keeps no handle: the receiver owns
    the segment's lifetime from here (see :func:`import_tensors`).
    """
    headers: list[dict] = []
    inline: dict[str, np.ndarray] = {}
    for name, tensor in tensors.items():
        array = np.ascontiguousarray(tensor)
        if array.nbytes < threshold:
            inline[name] = array
            continue
        segment_name = _next_segment_name(tag)
        segment = shared_memory.SharedMemory(
            create=True, size=array.nbytes, name=segment_name
        )
        _track(segment.name)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        del view
        segment.close()
        headers.append(
            {
                "name": name,
                "shm": segment.name,
                "shape": list(array.shape),
                "dtype": array.dtype.str,
            }
        )
        _shm_bytes(registry).inc(array.nbytes, direction=direction)
    return headers, inline


def import_tensors(
    headers: list[dict],
    *,
    registry: MetricsRegistry | None = None,
    direction: str = "request",
    unlink: bool = True,
) -> dict[str, np.ndarray]:
    """Reconstruct tensors from shared-memory headers.

    Attaches to each named segment, copies the payload out, closes the
    mapping and (by default) unlinks the segment -- the receiver is the
    segment's terminal owner under the strict request/response protocol.
    """
    tensors: dict[str, np.ndarray] = {}
    for header in headers:
        segment = shared_memory.SharedMemory(name=header["shm"])
        try:
            view = np.ndarray(
                tuple(header["shape"]), dtype=np.dtype(header["dtype"]), buffer=segment.buf
            )
            tensors[header["name"]] = np.array(view, copy=True)
            _shm_bytes(registry).inc(view.nbytes, direction=direction)
            del view
        finally:
            segment.close()
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
                _untrack(header["shm"])
    return tensors


def cleanup_segments() -> int:
    """Unlink every still-tracked segment; returns how many were freed.

    Called from the module's ``atexit`` hook and from the cluster
    supervisor's shutdown path, so SIGKILLed receivers cannot leak
    ``/dev/shm`` entries past the parent process's lifetime.
    """
    freed = 0
    for name in tracked_segment_names():
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            _untrack(name)
            continue
        segment.close()
        try:
            segment.unlink()
            freed += 1
        except FileNotFoundError:
            pass
        _untrack(name)
    return freed


atexit.register(cleanup_segments)
