"""Chaos injectors: every attack and infrastructure fault as a revertible unit.

An injector is an idempotent *inject / restore* pair against a live
:class:`InjectionTarget` (a deployed system plus its serving engine).
``restore`` is guaranteed-safe: it tolerates variants that were dropped
or workers that were restarted mid-window (a freshly re-bootstrapped
incarnation is clean by construction, so there is nothing to undo), and
calling it twice is a no-op.  Used as a context manager, restore runs
even when the window raises.

Two injection routes, because process-mode workers are *forked copies*:
arming a fault on the parent-side runtime after the fork never reaches
the child.  :meth:`InjectionTarget.apply_spec` sends a wire-safe fault
spec (:func:`repro.runtime.faults.apply_fault_spec`) through the
worker's ``inject`` op in process mode and applies it directly to the
runtime in-process.

Detection modes (consumed by :mod:`repro.chaos.verdict`):

- ``incident`` -- the monitor must raise a divergence/crash incident
  naming the attacked variant (CVE payloads, FrameFlip, weight flips,
  worker kill);
- ``telemetry`` -- no voting surface; the fault must show in the SLO
  telemetry instead (heartbeat age for a wedged worker, round-trip
  skew between replicas for a slowloris'd variant, service continuity
  for an shm outage);
- ``direct`` -- the defense mechanism itself returns the verdict
  (rollback freshness check, fork-attack binding rejection).
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.cves import MALICIOUS_MARKER, CveCase, craft_malicious_input
from repro.attacks.storage import ForkAttack, RollbackAttack
from repro.clock import REAL_CLOCK, Clock
from repro.crypto.keys import KeyManager
from repro.crypto.sealed import seal_bytes
from repro.mvx.variant_host import VariantHost, VariantUnavailable
from repro.runtime.faults import apply_fault_spec
from repro.tee.filesystem import MonotonicCounterService, ProtectedFs

__all__ = [
    "ChaosInjector",
    "CveInjector",
    "ForkInjector",
    "FrameFlipInjector",
    "InjectionError",
    "InjectionTarget",
    "RollbackInjector",
    "ShmStarvationInjector",
    "SlowVariantInjector",
    "WeightFlipInjector",
    "WorkerKillInjector",
    "WorkerWedgeInjector",
]

#: Partitions need at least this many replicas for voting to mask a
#: single corrupted variant (majority of the survivors must be clean).
MASKABLE_REPLICAS = 3


class InjectionError(Exception):
    """An injection could not be applied (target gone, spec rejected)."""


@dataclass
class InjectionTarget:
    """The live deployment a campaign attacks: system + serving engine."""

    system: object  # MvteeSystem
    engine: object  # ServingEngine
    #: Template feeds for crafting probes (set by the campaign).
    benign_feeds: dict | None = None
    #: The campaign's clock; faults that add latency sleep on it.
    clock: Clock = REAL_CLOCK

    @property
    def monitor(self):
        return self.system.monitor

    @property
    def cluster(self):
        return getattr(self.system, "cluster", None)

    # -- roster ---------------------------------------------------------

    def live(self) -> list[tuple[int, str]]:
        """(partition, variant_id) of every bound connection, sorted."""
        return sorted(
            (index, connection.variant_id)
            for index, connections in self.monitor.connections.items()
            for connection in connections
        )

    def replicated(self, min_variants: int = MASKABLE_REPLICAS) -> list[tuple[int, str]]:
        """Live variants in partitions replicated enough to mask a loss."""
        return [
            (index, vid)
            for index, vid in self.live()
            if len(self.monitor.connections.get(index, [])) >= min_variants
        ]

    def connection(self, variant_id: str):
        for connections in self.monitor.connections.values():
            for connection in connections:
                if connection.variant_id == variant_id:
                    return connection
        return None

    def worker(self, variant_id: str):
        """The live worker process of one variant (None in-process/down)."""
        cluster = self.cluster
        if cluster is None:
            return None
        worker = cluster.worker(variant_id)
        if worker is not None and worker.is_alive():
            return worker
        return None

    # -- fault routing --------------------------------------------------

    def apply_spec(self, variant_id: str, spec: dict) -> bool:
        """Route one fault spec to wherever the variant's runtime lives.

        Returns True when applied; False when the variant is gone or the
        route failed transiently (restore paths treat that as "nothing
        left to undo").
        """
        worker = self.worker(variant_id)
        if worker is not None:
            try:
                worker.inject_fault(spec)
                return True
            except VariantUnavailable:
                return False
        connection = self.connection(variant_id)
        if connection is None:
            return False
        runtime = connection.host.runtime
        if runtime is None:
            return False
        try:
            apply_fault_spec(runtime, spec)
        except (KeyError, ValueError, TypeError, IndexError, AssertionError):
            return False
        return True

    def heartbeat_age(self, variant_id: str) -> float | None:
        """The supervisor's heartbeat-age gauge for one variant."""
        cluster = self.cluster
        if cluster is None:
            return None
        gauge = cluster._registry.gauge(
            "mvtee_worker_heartbeat_age_seconds",
            "Seconds since each worker's last successful round trip",
        )
        return float(gauge.value(variant=variant_id))


@dataclass
class ChaosInjector:
    """Base injector: resolve (plan-time), inject, restore, judge hooks."""

    name = "chaos"
    fault_class = "generic"
    detection = "incident"
    #: Set by :meth:`resolve`; the variants culprit attribution must name.
    targets: list[str] = field(default_factory=list)

    def supported(self, target: InjectionTarget) -> bool:
        """Whether this injector can run against this deployment."""
        return True

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        """Fix all randomness at plan time; returns JSON-able plan params.

        Called exactly once per campaign plan; the returned params (and
        :attr:`targets`) must be a pure function of the deployment state
        and ``rng`` draws, so the same seed replays the same plan.
        """
        return {}

    def inject(self, target: InjectionTarget) -> None:
        raise NotImplementedError

    def restore(self, target: InjectionTarget) -> None:
        raise NotImplementedError

    def probes(self, target: InjectionTarget) -> list[dict]:
        """Crafted feeds to fire during the window (e.g. CVE payloads)."""
        return []

    def __enter__(self):
        if getattr(self, "_ctx_target", None) is None:
            raise RuntimeError("use injector.on(target) as the context manager")
        self.inject(self._ctx_target)
        return self

    def __exit__(self, *exc) -> None:
        target, self._ctx_target = self._ctx_target, None
        self.restore(target)

    def on(self, target: InjectionTarget) -> "ChaosInjector":
        """Bind a target for ``with`` use: ``with injector.on(target): ...``."""
        self._ctx_target = target
        return self


def _pick(rng: np.random.Generator, candidates: list):
    """One deterministic draw from an ordered candidate list."""
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


# ----------------------------------------------------------------------
# Attack adapters (repro.attacks under live load)
# ----------------------------------------------------------------------


@dataclass
class CveInjector(ChaosInjector):
    """Arm one Table-1 CVE on a minority of each replicated partition.

    At most ``max_armed_per_partition`` affected variants per partition
    are armed (one exploit hits one victim process at a time -- and a
    majority-armed partition would out-vote the clean variant, which is
    the homogeneous-replication failure mode, not a diversification
    test).  Crafted probes carrying the malicious marker are fired
    through the serving engine during the window.
    """

    case: CveCase = None
    max_armed_per_partition: int = 1
    partitions: tuple[int, ...] | None = None
    num_probes: int = 2

    name = "cve"
    fault_class = "cve"
    detection = "incident"

    def __post_init__(self):
        if self.case is None:
            raise ValueError("CveInjector requires a CveCase")
        self.name = f"cve:{self.case.cve_id}"
        self._plan_armed: list[tuple[int, str]] = []
        self._live_armed: list[tuple[int, str]] = []
        self._probe_seeds: list[int] = []

    def _eligible(self, target: InjectionTarget) -> list[tuple[int, str]]:
        armed = []
        for index in sorted(target.monitor.connections):
            connections = target.monitor.connections[index]
            if self.partitions is not None and index not in self.partitions:
                continue
            if len(connections) < MASKABLE_REPLICAS:
                continue
            affected = sorted(
                (
                    c.variant_id
                    for c in connections
                    if c.host.runtime is not None and self.case.affects(c.host.runtime)
                ),
            )
            for vid in affected[: self.max_armed_per_partition]:
                armed.append((index, vid))
        return armed

    def supported(self, target: InjectionTarget) -> bool:
        return bool(self._eligible(target))

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._plan_armed = self._eligible(target)
        self.targets = [vid for _, vid in self._plan_armed]
        self._probe_seeds = [int(rng.integers(2**31)) for _ in range(self.num_probes)]
        return {
            "cve": self.case.cve_id,
            "op": self.case.vulnerable_op,
            "impact": self.case.impact.value,
            "crashes": self.case.crashes,
            "armed": [[index, vid] for index, vid in self._plan_armed],
            "probe_seeds": list(self._probe_seeds),
        }

    def inject(self, target: InjectionTarget) -> None:
        self._live_armed = []
        spec = self.case.to_fault_spec()
        for index, vid in self._plan_armed:
            if target.apply_spec(vid, spec):
                self._live_armed.append((index, vid))
        if not self._live_armed:
            raise InjectionError(
                f"{self.name}: no armable variant left (planned {self._plan_armed})"
            )

    def restore(self, target: InjectionTarget) -> None:
        spec = self.case.disarm_spec()
        for _, vid in self._live_armed:
            # A restarted worker is clean already; op-clear is a no-op there.
            target.apply_spec(vid, spec)
        self._live_armed = []

    def probes(self, target: InjectionTarget) -> list[dict]:
        if target.benign_feeds is None:
            return []
        keys = sorted(target.benign_feeds)
        crafted = []
        for seed in self._probe_seeds:
            feeds = {k: np.array(v, copy=True) for k, v in target.benign_feeds.items()}
            first = keys[0]
            feeds[first] = craft_malicious_input(feeds[first].shape, seed=seed)
            crafted.append(feeds)
        return crafted


@dataclass
class FrameFlipInjector(ChaosInjector):
    """Library bit-flip in one victim variant's BLAS backend.

    The FrameFlip attack flips a bit in library code mapped into one
    victim process; here the corrupted backend is armed in exactly one
    variant of a replicated partition, chosen at plan time.  Persistent:
    plain benign traffic diverges at the next checkpoint.
    """

    bit: int = 30
    flat_index: int = 0

    name = "frameflip"
    fault_class = "frameflip"
    detection = "incident"

    def __post_init__(self):
        self._victim: tuple[int, str] | None = None
        self._armed = False

    def supported(self, target: InjectionTarget) -> bool:
        return bool(target.replicated())

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._victim = _pick(rng, target.replicated())
        self.targets = [self._victim[1]] if self._victim else []
        backend = None
        if self._victim is not None:
            connection = target.connection(self._victim[1])
            if connection is not None and connection.host.runtime is not None:
                backend = connection.host.runtime.config.blas_backend
        return {
            "victim": list(self._victim) if self._victim else None,
            "backend": backend,
            "bit": self.bit,
            "index": self.flat_index,
        }

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None:
            raise InjectionError(f"{self.name}: no replicated victim available")
        spec = {"kind": "backend-bitflip", "bit": self.bit, "index": self.flat_index}
        if not target.apply_spec(self._victim[1], spec):
            raise InjectionError(f"{self.name}: victim {self._victim[1]} unreachable")
        self._armed = True

    def restore(self, target: InjectionTarget) -> None:
        if self._armed and self._victim is not None:
            target.apply_spec(self._victim[1], {"kind": "backend-clear"})
        self._armed = False


@dataclass
class WeightFlipInjector(ChaosInjector):
    """Rowhammer-style bit flips in one variant's loaded weights.

    The flip plan (tensor, flat index) is computed at plan time from the
    parent-side model copy and applied through the spec route, so it
    reaches a forked worker's own memory.  XOR is involutive: restore
    re-applies the identical spec -- but only to the *same incarnation*
    (same worker pid / same runtime object); a variant re-bootstrapped
    mid-window is clean already and re-flipping it would corrupt it.
    """

    num_flips: int = 3
    bit: int = 30

    name = "weight-flip"
    fault_class = "weight-flip"
    detection = "incident"

    def __post_init__(self):
        self._victim: tuple[int, str] | None = None
        self._flips: list[tuple[str, int]] = []
        self._incarnation = None
        self._applied = False

    def supported(self, target: InjectionTarget) -> bool:
        for _, vid in target.replicated():
            connection = target.connection(vid)
            if connection is None or connection.host.runtime is None:
                continue
            model = connection.host.runtime.model
            if model is not None and any(
                arr.dtype == np.float32 and arr.size
                for arr in model.initializers.values()
            ):
                return True
        return False

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        candidates = []
        for index, vid in target.replicated():
            connection = target.connection(vid)
            if connection is None or connection.host.runtime is None:
                continue
            model = connection.host.runtime.model
            if model is not None and any(
                arr.dtype == np.float32 and arr.size
                for arr in model.initializers.values()
            ):
                candidates.append((index, vid))
        self._victim = _pick(rng, candidates)
        self._flips = []
        self.targets = []
        if self._victim is None:
            return {"victim": None}
        self.targets = [self._victim[1]]
        model = target.connection(self._victim[1]).host.runtime.model
        names = sorted(
            name
            for name, arr in model.initializers.items()
            if arr.dtype == np.float32 and arr.size
        )
        for _ in range(self.num_flips):
            tensor = names[int(rng.integers(len(names)))]
            index = int(rng.integers(model.initializers[tensor].size))
            self._flips.append((tensor, index))
        return {
            "victim": list(self._victim),
            "flips": [[t, i] for t, i in self._flips],
            "bit": self.bit,
        }

    def _current_incarnation(self, target: InjectionTarget):
        worker = target.worker(self._victim[1])
        if worker is not None:
            return ("worker", worker.pid)
        connection = target.connection(self._victim[1])
        if connection is None or connection.host.runtime is None:
            return None
        return ("inprocess", id(connection.host.runtime))

    def _spec(self) -> dict:
        return {
            "kind": "weight-flips",
            "flips": [[t, i] for t, i in self._flips],
            "bit": self.bit,
        }

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None or not self._flips:
            raise InjectionError(f"{self.name}: no victim with float32 weights")
        self._incarnation = self._current_incarnation(target)
        if self._incarnation is None or not target.apply_spec(
            self._victim[1], self._spec()
        ):
            raise InjectionError(f"{self.name}: victim {self._victim[1]} unreachable")
        self._applied = True

    def restore(self, target: InjectionTarget) -> None:
        if not self._applied:
            return
        self._applied = False
        if self._current_incarnation(target) == self._incarnation:
            target.apply_spec(self._victim[1], self._spec())


# ----------------------------------------------------------------------
# Infrastructure faults (cluster layer)
# ----------------------------------------------------------------------


@dataclass
class WorkerKillInjector(ChaosInjector):
    """SIGKILL one variant's worker process (cluster mode only).

    Restore waits for the supervisor to refill the slot (budgeted
    restart with full re-attestation); the crash incident must name the
    killed variant and p99 must recover within the restart budget.
    """

    wait_s: float = 6.0

    name = "worker-kill"
    fault_class = "worker-kill"
    detection = "incident"

    def __post_init__(self):
        self._victim: tuple[int, str] | None = None
        self._pid: int | None = None

    def supported(self, target: InjectionTarget) -> bool:
        return target.cluster is not None and bool(target.replicated())

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        candidates = [
            (index, vid)
            for index, vid in target.replicated()
            if target.worker(vid) is not None
        ]
        self._victim = _pick(rng, candidates)
        self.targets = [self._victim[1]] if self._victim else []
        return {"victim": list(self._victim) if self._victim else None}

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None:
            raise InjectionError(f"{self.name}: no killable worker")
        worker = target.worker(self._victim[1])
        if worker is None or worker.pid is None:
            raise InjectionError(f"{self.name}: worker {self._victim[1]} not running")
        self._pid = worker.pid
        os.kill(self._pid, signal.SIGKILL)

    def restore(self, target: InjectionTarget) -> None:
        """Wait for the supervised restart to land (nothing to revert)."""
        if self._victim is None or target.cluster is None:
            return
        deadline = time.monotonic() + self.wait_s
        vid = self._victim[1]
        while time.monotonic() < deadline:
            worker = target.worker(vid)
            if (
                worker is not None
                and worker.pid != self._pid
                and target.connection(vid) is not None
            ):
                return
            time.sleep(0.05)


@dataclass
class WorkerWedgeInjector(ChaosInjector):
    """SIGSTOP one worker so heartbeats stall (restore sends SIGCONT).

    The wedged worker stays "alive" to the supervisor (no restart), so
    detection is telemetry: the per-variant heartbeat-age gauge climbs
    and in-flight batches over that variant miss their deadlines.
    """

    #: Heartbeat age that counts as "the gauge named the culprit".
    stall_threshold_s: float = 0.5

    name = "worker-wedge"
    fault_class = "worker-wedge"
    detection = "telemetry"

    def __post_init__(self):
        self._victim: tuple[int, str] | None = None
        self._pid: int | None = None
        self._stopped = False

    def supported(self, target: InjectionTarget) -> bool:
        return target.cluster is not None and bool(target.replicated())

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        candidates = [
            (index, vid)
            for index, vid in target.replicated()
            if target.worker(vid) is not None
        ]
        self._victim = _pick(rng, candidates)
        self.targets = [self._victim[1]] if self._victim else []
        return {"victim": list(self._victim) if self._victim else None}

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None:
            raise InjectionError(f"{self.name}: no wedgeable worker")
        worker = target.worker(self._victim[1])
        if worker is None or worker.pid is None:
            raise InjectionError(f"{self.name}: worker {self._victim[1]} not running")
        self._pid = worker.pid
        os.kill(self._pid, signal.SIGSTOP)
        self._stopped = True

    def restore(self, target: InjectionTarget) -> None:
        if self._stopped and self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        self._stopped = False

    def telemetry_verdict(self, observation) -> tuple[bool, bool | None, str]:
        peak = observation.heartbeat_peak_s or 0.0
        timeouts = int(observation.counts.get("timeout", 0))
        stalled = peak >= self.stall_threshold_s
        detected = stalled or timeouts > 0
        # The heartbeat gauge is labeled per variant: a stalled reading
        # *is* culprit attribution.
        culprit = True if stalled else None
        detail = f"heartbeat peak {peak:.2f}s, {timeouts} timeouts in window"
        return detected, culprit, detail


@dataclass
class SlowVariantInjector(ChaosInjector):
    """Slowloris one variant: add latency to every request it serves.

    The victim's host sleeps ``added_latency_s`` before each inference,
    on the campaign's clock in-process (``InjectionTarget.clock``) and
    in real time inside a worker process.  Restore reconfigures the
    original latency attributes.

    Detection is *skew between replicas*, read from the monitor's
    per-variant round-trip histogram
    (``mvtee_variant_roundtrip_seconds``, which includes the added
    latency) over the injection window: the victim's mean round trip
    minus the median of its partition siblings' means must reach
    ``visibility × added_latency_s``.  The replicas of one partition
    serve the same feeds on the same machine, so the skew does not
    depend on machine speed the way an end-to-end percentile does, and
    the slowest replica names the culprit.  Timeouts alone are not
    detection: they do not say which variant was slow.
    """

    added_latency_s: float = 0.08
    #: Victim-minus-siblings round-trip skew, as a fraction of the added
    #: latency, that counts as telemetry-detected.
    visibility: float = 0.5

    name = "slow-variant"
    fault_class = "slow-variant"
    detection = "telemetry"

    def __post_init__(self):
        self._victim: tuple[int, str] | None = None
        self._previous: tuple | None = None
        self._pid: int | None = None
        self._applied = False

    def supported(self, target: InjectionTarget) -> bool:
        return bool(target.replicated())

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._victim = _pick(rng, target.replicated())
        self.targets = [self._victim[1]] if self._victim else []
        return {
            "victim": list(self._victim) if self._victim else None,
            "added_latency_s": self.added_latency_s,
        }

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None:
            raise InjectionError(f"{self.name}: no replicated victim")
        vid = self._victim[1]
        worker = target.worker(vid)
        if worker is not None:
            self._previous = (worker.host.simulated_latency, worker.host.realtime_latency)
            self._pid = worker.pid
            worker.configure(
                simulated_latency=self.added_latency_s, realtime_latency=True
            )
        else:
            connection = target.connection(vid)
            if connection is None:
                raise InjectionError(f"{self.name}: victim {vid} gone")
            host = connection.host
            self._previous = (host.simulated_latency, host.realtime_latency, host.clock)
            host.simulated_latency = self.added_latency_s
            host.realtime_latency = True
            host.clock = target.clock
        self._applied = True

    def restore(self, target: InjectionTarget) -> None:
        if not self._applied or self._previous is None:
            return
        self._applied = False
        vid = self._victim[1]
        latency, realtime = self._previous[:2]
        worker = target.worker(vid)
        if worker is not None:
            if worker.pid == self._pid:
                worker.configure(simulated_latency=latency, realtime_latency=realtime)
            return  # restarted incarnation: fresh host, defaults already clean
        connection = target.connection(vid)
        if connection is not None:
            host = connection.host
            host.simulated_latency, host.realtime_latency, host.clock = self._previous

    def telemetry_verdict(self, observation) -> tuple[bool, bool | None, str]:
        """Judge the window by round-trip skew inside the victim's partition.

        Reads ``observation.telemetry["variant_roundtrip"]``: variant id
        -> ``{"partition", "sum_s", "count"}`` over the window.
        """
        if self._victim is None:
            return False, None, "no victim resolved"
        index, victim = self._victim
        roundtrips = observation.telemetry.get("variant_roundtrip") or {}
        means = {
            vid: row["sum_s"] / row["count"]
            for vid, row in roundtrips.items()
            if int(row["partition"]) == index and row["count"] > 0
        }
        siblings = [mean for vid, mean in means.items() if vid != victim]
        if victim not in means or not siblings:
            return False, None, (
                f"no round trips of {victim} and its partition-{index} "
                f"siblings in the window"
            )
        skew = means[victim] - statistics.median(siblings)
        threshold = self.visibility * self.added_latency_s
        detected = skew >= threshold
        slowest = max(sorted(means), key=means.get)
        culprit = slowest == victim if detected else None
        detail = (
            f"victim {victim} mean round trip {means[victim]:.3f}s vs sibling "
            f"median {statistics.median(siblings):.3f}s: skew {skew:+.3f}s "
            f"(threshold {threshold:.3f}s); slowest replica {slowest}"
        )
        return detected, culprit, detail


@dataclass
class ShmStarvationInjector(ChaosInjector):
    """Transient shared-memory outage: force the inline pipe fallback.

    Raising every worker handle's parent-side ``shm_threshold`` makes
    request tensors travel inline instead of through ``/dev/shm`` -- the
    degradation an exhausted shm namespace causes.  The expected verdict
    is *masked*: service continues uncorrupted on the fallback path.
    """

    starved_threshold: int = 1 << 62

    name = "shm-starvation"
    fault_class = "shm-starvation"
    detection = "telemetry"

    def __post_init__(self):
        self._previous: dict[str, int] = {}

    def supported(self, target: InjectionTarget) -> bool:
        return target.cluster is not None

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self.targets = []
        return {"starved_threshold": self.starved_threshold}

    def inject(self, target: InjectionTarget) -> None:
        cluster = target.cluster
        if cluster is None:
            raise InjectionError(f"{self.name}: requires a process cluster")
        self._previous = {}
        for vid, worker in cluster.workers().items():
            self._previous[vid] = worker.shm_threshold
            worker.shm_threshold = self.starved_threshold
        if not self._previous:
            raise InjectionError(f"{self.name}: no live workers to starve")

    def restore(self, target: InjectionTarget) -> None:
        cluster = target.cluster
        if cluster is None:
            return
        workers = cluster.workers()
        for vid, threshold in self._previous.items():
            worker = workers.get(vid)
            if worker is not None:
                worker.shm_threshold = threshold
        self._previous = {}

    def telemetry_verdict(self, observation) -> tuple[bool, bool | None, str]:
        ok = int(observation.counts.get("ok", 0))
        corrupt = int(observation.counts.get("corrupt", 0))
        detected = ok > 0 and corrupt == 0
        detail = f"inline fallback served {ok} requests during shm outage"
        return detected, None, detail


# ----------------------------------------------------------------------
# Storage / identity attacks
# ----------------------------------------------------------------------


@dataclass
class RollbackInjector(ChaosInjector):
    """Sealed-storage rollback against a self-contained protected fs.

    Runs the capture-and-revert attack while serving traffic flows; the
    freshness check (monotonic counters) must reject the stale blob.
    Self-contained state, so restore has nothing to undo.
    """

    name = "storage-rollback"
    fault_class = "storage"
    detection = "direct"

    def __post_init__(self):
        self.direct_detected = False
        self.direct_detail = ""
        self._seed = 0

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._seed = int(rng.integers(2**31))
        self.targets = []
        return {"seed": self._seed}

    def inject(self, target: InjectionTarget) -> None:
        record = KeyManager().create_key(f"chaos-rollback-{self._seed}")
        fs = ProtectedFs(
            kdk=record.key,
            key_id=f"chaos-rollback-{self._seed}",
            counters=MonotonicCounterService(),
        )
        path = "model.enc"
        fs.write(seal_bytes(record, path, b"weights-v1", freshness=1))
        attack = RollbackAttack(path=path)
        attack.capture(fs)
        fs.write(seal_bytes(record, path, b"weights-v2", freshness=2))
        self.direct_detected = bool(attack.launch(fs))
        self.direct_detail = (
            "stale sealed blob rejected by freshness check"
            if self.direct_detected
            else "stale sealed blob silently accepted"
        )

    def restore(self, target: InjectionTarget) -> None:
        pass  # self-contained fs; nothing leaked into the deployment


@dataclass
class ForkInjector(ChaosInjector):
    """Bind a clone TEE of an already-bound variant (must be rejected)."""

    name = "storage-fork"
    fault_class = "storage"
    detection = "direct"

    def __post_init__(self):
        self.direct_detected = False
        self.direct_detail = ""
        self._victim: tuple[int, str] | None = None
        self._attack: ForkAttack | None = None

    def resolve(self, target: InjectionTarget, rng: np.random.Generator) -> dict:
        self._victim = _pick(rng, target.live())
        self.targets = []
        return {"victim": list(self._victim) if self._victim else None}

    def inject(self, target: InjectionTarget) -> None:
        if self._victim is None:
            raise InjectionError(f"{self.name}: no bound variant to clone")
        index, vid = self._victim
        artifact = next(
            (
                a
                for a in target.system.pool.for_partition(index)
                if a.variant_id == vid
            ),
            None,
        )
        if artifact is None:
            raise InjectionError(f"{self.name}: artifact for {vid} not in pool")
        self._attack = ForkAttack(artifact=artifact)
        self.direct_detected = bool(
            self._attack.launch(
                target.monitor, target.system.orchestrator._pick_cpu()
            )
        )
        self.direct_detail = (
            f"clone binding of {vid} rejected"
            if self.direct_detected
            else f"clone of {vid} got bound"
        )

    def restore(self, target: InjectionTarget) -> None:
        if self._attack is not None and self._attack.clone is not None:
            try:
                self._attack.clone.terminate()
            except Exception:
                pass
            self._attack = None
