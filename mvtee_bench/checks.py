"""What every run checks: served outputs, benign-run invariants, leftovers."""

from __future__ import annotations

import os
import threading
import time

import numpy as np

import reference

__all__ = [
    "OUTPUT_TOLERANCE",
    "SUM_TOLERANCE",
    "benign_problems",
    "child_processes",
    "leftover_problems",
    "output_problems",
    "shm_entries",
]

#: Largest absolute difference allowed between a served output and the
#: float64 reference.  Served outputs measured 2e-8 to 5e-7 away.
OUTPUT_TOLERANCE = 1e-5
#: A served probability vector must sum to 1 within this.
SUM_TOLERANCE = 1e-5


def output_problems(model, served) -> list[str]:
    """Compare each ``(feeds, outputs)`` pair with the numpy reference.

    Every output must be a probability vector, lie within
    :data:`OUTPUT_TOLERANCE` of the reference and pick the reference's
    class.  Where the reference's two highest probabilities lie within
    the tolerance of each other either class is a correct pick, so the
    class test applies only where the reference's margin exceeds it.
    """
    problems = []
    for index, (feeds, outputs) in enumerate(served):
        for name, expected in reference.forward(model, feeds).items():
            got = outputs.get(name)
            where = f"request {index}, output {name!r}"
            if got is None or got.shape != expected.shape:
                problems.append(f"{where}: missing or misshapen output")
                continue
            diff = float(np.abs(got - expected).max())
            if not diff <= OUTPUT_TOLERANCE:
                problems.append(f"{where}: differs from the reference by {diff:.3g}")
            if (got < 0).any() or np.abs(got.sum(axis=-1) - 1.0).max() > SUM_TOLERANCE:
                problems.append(f"{where}: not a probability vector")
            top_two = np.sort(expected, axis=-1)[..., -2:]
            decisive = top_two[..., 1] - top_two[..., 0] > OUTPUT_TOLERANCE
            mismatch = got.argmax(axis=-1) != expected.argmax(axis=-1)
            if (decisive & mismatch).any():
                problems.append(f"{where}: argmax differs from the reference")
        if len(problems) >= 10:
            problems.append("further requests not checked")
            break
    return problems


def ok_round_trips(registry, num_partitions: int) -> int:
    """``mvtee_variant_requests_total{outcome="ok"}`` summed over partitions."""
    counter = registry.counter("mvtee_variant_requests_total")
    return int(
        sum(counter.value(partition=index, outcome="ok") for index in range(num_partitions))
    )


def benign_problems(deployment, requests: int) -> list[str]:
    """Invariants of a run without faults: no detections, exact round trips.

    ``deployment`` carries the system, its registry, the workload and the
    counts taken before the first request.
    """
    monitor = deployment.system.monitor
    problems = []
    for what, events in (
        ("divergence events", monitor.divergence_events()),
        ("crash events", monitor.crash_events()),
        ("incidents", monitor.incidents()),
    ):
        if events:
            problems.append(f"benign run recorded {len(events)} {what}")
    workload = deployment.workload
    grown = ok_round_trips(deployment.registry, workload.num_partitions) - deployment.ok_before
    expected = requests * workload.total_replicas
    if grown != expected:
        problems.append(
            f"variant round trips grew by {grown}, expected {requests} requests "
            f"x {workload.total_replicas} replicas = {expected}"
        )
    from repro.observability.recorder import AuditChainError

    recorder = deployment.recorder
    try:
        recorder.verify_chain()
    except AuditChainError as exc:
        problems.append(f"flight recorder chain broken: {exc}")
    checkpoints = len(recorder.events("checkpoint")) - deployment.checkpoints_before
    expected = requests * workload.mvx_partition_count
    if checkpoints != expected:
        problems.append(
            f"flight recorder holds {checkpoints} checkpoint events, expected "
            f"{requests} requests x {workload.mvx_partition_count} MVX partitions"
        )
    return problems


def child_processes() -> dict[int, str]:
    """pid -> state of every live child process of this process."""
    me = os.getpid()
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children[int(entry)] = fields[0]
    return children


def shm_entries() -> set[str]:
    """Names under /dev/shm (empty where it does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _stop_resource_tracker(timeout: float) -> str | None:
    """Stop this process's multiprocessing resource tracker, if it runs.

    The tracker exits once every holder of its pipe has closed it; the
    workers' copies closed when they exited, this closes ours and reaps
    the tracker.  Returns a problem description, or None.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is None:
        return None
    stopper = threading.Thread(target=tracker._stop, name="bench-tracker-stop", daemon=True)
    stopper.start()
    stopper.join(timeout)
    if stopper.is_alive():
        return f"resource tracker did not exit within {timeout:.0f}s"
    return None


def leftover_problems(shm_before: set[str], *, timeout: float = 10.0) -> list[str]:
    """Wait until no child process and no new shared memory remain.

    Call after every engine and cluster has been shut down.  Zombie
    children are reaped; anything still running after ``timeout`` is a
    problem.
    """
    from repro.cluster.shm import tracked_segment_names

    deadline = time.monotonic() + timeout
    tracker_pid = None
    try:
        from multiprocessing import resource_tracker

        tracker_pid = resource_tracker._resource_tracker._pid
    except AttributeError:
        pass
    while True:
        alive = {pid: state for pid, state in child_processes().items() if pid != tracker_pid}
        for pid, state in list(alive.items()):
            if state == "Z":
                os.waitpid(pid, os.WNOHANG)
                del alive[pid]
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    problems = []
    if not alive:
        problem = _stop_resource_tracker(max(1.0, deadline - time.monotonic()))
        if problem:
            problems.append(problem)
    while True:
        segments = tracked_segment_names()
        new_shm = shm_entries() - shm_before
        remaining = set(child_processes())
        if not (segments or new_shm or remaining) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    problems += [f"process {pid} still running after shutdown" for pid in sorted(remaining)]
    problems += [f"shared-memory segment {name} still tracked" for name in sorted(segments)]
    problems += [f"/dev/shm/{name} left behind" for name in sorted(new_shm)]
    return problems
