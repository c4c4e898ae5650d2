"""The MVTEE monitor: security manager of the deployment (§4.3).

The monitor runs in its own TEE (cross-process user-space design) and
owns: the provisioned MVX configuration, variant attestation and key
distribution, the binding ledger, input distribution, checkpoint
synchronization with voting, output replication, and the protective
response to divergences and crashes.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.clock import REAL_CLOCK, Clock
from repro.crypto.keys import KeyManager
from repro.mvx.binding import BindingLedger
from repro.mvx.config import MvxConfig
from repro.mvx.consistency import ConsistencyPolicy
from repro.mvx.events import CrashEvent, DivergenceEvent, ResponseAction
from repro.mvx.variant_host import INTERPRETER_LOCK, VariantHost, VariantUnavailable
from repro.mvx.voting import VariantOutput, VoteResult, vote
from repro.mvx.wire import decode_message, encode_message
from repro.observability.forensics import (
    IncidentReport,
    IncidentStore,
    build_incident_report,
)
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.observability.recorder import (
    KIND_CHECKPOINT,
    KIND_CRASH,
    KIND_DIVERGENCE,
    KIND_RESPONSE,
    KIND_VARIANT_REPLACED,
    FlightRecorder,
)
from repro.observability.sinks import Sinks
from repro.observability.tracing import NullTracer, Tracer
from repro.partition.partition import PartitionSet
from repro.mvx.transport import Transport
from repro.tee.attestation import AttestationError, Verifier
from repro.tee.channel import ChannelError, SecureChannel, establish_channel
from repro.tee.enclave import Enclave
from repro.variants.pool import VariantPool

if TYPE_CHECKING:
    from repro.mvx.scheduler import InferenceOptions

__all__ = ["Monitor", "MonitorError", "VariantConnection"]


class MonitorError(Exception):
    """Raised on protocol violations or unrecoverable detection outcomes."""


@dataclass
class VariantConnection:
    """A bound, attested variant: channel + transport route + metadata."""

    variant_id: str
    partition_index: int
    channel: SecureChannel
    host: VariantHost
    measurement: str
    transport: "Transport | None" = None
    #: Serializes round trips: the RA-TLS channel is strictly
    #: sequence-numbered, so protect -> exchange -> open must never
    #: interleave across threads (the serving engine overlaps batches,
    #: and two batches may target the same variant concurrently).
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def forked(self) -> bool:
        """Whether records go to a forked worker process over a pipe."""
        route = getattr(self.transport, "worker", None)
        return route is not None and route(self.variant_id) is not None

    @property
    def waits(self) -> bool:
        """Whether a round trip mostly waits outside this interpreter.

        True for a forked worker (a pipe) and for a host that sleeps out
        its ``realtime_latency``; such round trips overlap on threads.
        """
        return self.forked or self.host.waits

    def request(
        self,
        msg_type: str,
        meta: dict,
        tensors: dict | None = None,
        *,
        clock: Clock = REAL_CLOCK,
    ) -> tuple[str, dict, dict]:
        """Round-trip one protected request to the variant.

        A round trip whose work runs in this interpreter also holds
        :data:`~repro.mvx.variant_host.INTERPRETER_LOCK`, so concurrent
        in-process round trips take turns instead of trading the GIL;
        one to a forked worker waits on its pipe and takes only the
        connection's lock.  A thread waiting for either lock blocks on
        ``clock`` (see :meth:`repro.clock.Clock.locked`).
        """
        with clock.locked(self._lock):
            if self.forked:
                return self._exchange(msg_type, meta, tensors)
            with INTERPRETER_LOCK.held(clock):
                return self._exchange(msg_type, meta, tensors)

    def _exchange(self, msg_type: str, meta: dict, tensors: dict | None):
        record = self.channel.protect(encode_message(msg_type, meta, tensors))
        if self.transport is not None:
            response = self.transport.exchange(self.variant_id, record)
        else:
            response = self.host.handle_record(record)
        return decode_message(self.channel.open(response))


@dataclass
class Monitor:
    """The monitor TEE."""

    enclave: Enclave
    verifier: Verifier
    pool: VariantPool
    config: MvxConfig | None = None
    response_action: ResponseAction = ResponseAction.HALT
    #: Record transport; None means direct in-process handover.  A
    #: :class:`repro.mvx.transport.FabricTransport` models distributed
    #: deployment across an untrusted network.
    transport: "Transport | None" = None
    #: The deployment's observability sinks (see :attr:`sinks`): the
    #: tracer receives ``variant`` and ``checkpoint`` spans,
    #: detection/recovery counters go to ``metrics`` (None = the
    #: process-wide registry), the recorder is the tamper-evident audit
    #: log (None = not recording).  A run's sinks never overwrite them:
    #: they travel with the run into :meth:`execute_stage`.
    tracer: Tracer = field(default_factory=NullTracer)
    metrics: MetricsRegistry | None = None
    recorder: FlightRecorder | None = None
    #: Forensic reports of the most recent detections (always on: the
    #: store is bounded and reports carry digests, not tensors).
    incident_store: IncidentStore = field(default_factory=IncidentStore)
    ledger: BindingLedger = field(default_factory=BindingLedger)
    connections: dict[int, list[VariantConnection]] = field(default_factory=dict)
    events: list[object] = field(default_factory=list)
    _policy: ConsistencyPolicy = field(default_factory=ConsistencyPolicy)
    _provision_nonces: set[bytes] = field(default_factory=set)
    #: Deferred async cross-validation checks: (batch, partition,
    #: accepted outputs, laggard connections, stage feeds, the sinks of
    #: the run that deferred them).
    _deferred: list[tuple[int, int, dict, list[VariantConnection], dict, Sinks]] = (
        field(default_factory=list)
    )
    #: Guards shared mutable detection state (events, deferred checks,
    #: connection lists) against concurrent replica dispatch threads.
    _state_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def partition_set(self) -> PartitionSet:
        """The partition set underlying the pool."""
        return self.pool.partition_set

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The registry detection/recovery counters are recorded into."""
        return self.metrics if self.metrics is not None else get_global_registry()

    @property
    def sinks(self) -> Sinks:
        """The deployment's sinks, with the registry resolved.

        What calls outside a run report to (bootstrap, variant binding
        and retirement, out-of-band crash reports), and what a run's
        unset sinks fall back to.
        """
        return Sinks(
            tracer=self.tracer, metrics=self.metrics_registry, recorder=self.recorder
        )

    def incidents(self, kind: str | None = None) -> list[IncidentReport]:
        """Forensic reports of recent detections, oldest first."""
        return self.incident_store.incidents(kind)

    @staticmethod
    def _audit(sinks: Sinks, kind: str, **data) -> None:
        """Append one event to the sinks' flight recorder, if there is one."""
        if sinks.recorder is not None:
            sinks.recorder.record(kind, **data)

    def _capture_incident(self, sinks: Sinks, report: IncidentReport) -> IncidentReport:
        """Store one incident and surface it in metrics + audit log."""
        self.incident_store.add(report)
        sinks.metrics.counter(
            "mvtee_incidents_total", "Forensic incident reports captured"
        ).inc(kind=report.kind, partition=report.partition_index)
        self._audit(
            sinks,
            KIND_DIVERGENCE if report.kind == "divergence" else KIND_CRASH,
            incident_id=report.incident_id,
            batch=report.batch_id,
            partition=report.partition_index,
            suspected=list(report.suspected_culprits),
            agreeing=list(report.agreeing_variants),
            max_abs_error=report.max_abs_error,
            response=report.response_action,
            trace_id=report.trace_id,
            error=report.error,
        )
        return report

    # ------------------------------------------------------------------
    # Provisioning (Figure 6 step 3)
    # ------------------------------------------------------------------

    def provision_config(self, config: MvxConfig, nonce: bytes) -> bytes:
        """Accept an MVX configuration from the attested model owner.

        The nonce defends replay: re-provisioning with a seen nonce is
        rejected.  Returns the nonce echo the owner verifies in step 8.
        """
        if nonce in self._provision_nonces:
            raise MonitorError("replayed provisioning nonce rejected")
        if len(config.claims) != len(self.partition_set):
            raise MonitorError(
                f"config covers {len(config.claims)} partitions, "
                f"deployment has {len(self.partition_set)}"
            )
        self._provision_nonces.add(nonce)
        self.config = config
        self._install_policies(config)
        return nonce

    def _install_policies(self, config: MvxConfig) -> None:
        """Build the default + per-partition consistency policies.

        §4.3: thresholds are adjusted "based on variant noise levels to
        balance the precision and recall of attack identification" --
        a partition running heavily diversified (noisier) variants can
        carry looser thresholds than the rest.  The config's
        ``consistency`` dict takes the default kwargs plus an optional
        ``per_partition`` map of index -> kwarg overrides.
        """
        base = {k: v for k, v in config.consistency.items() if k != "per_partition"}
        self._policy = ConsistencyPolicy.from_kwargs(base)
        self._partition_policies = {}
        for index, overrides in config.consistency.get("per_partition", {}).items():
            merged = dict(base)
            merged.update(overrides)
            self._partition_policies[int(index)] = ConsistencyPolicy.from_kwargs(merged)

    def policy_for(self, index: int) -> ConsistencyPolicy:
        """The consistency policy governing one partition's checkpoint."""
        return getattr(self, "_partition_policies", {}).get(index, self._policy)

    # ------------------------------------------------------------------
    # Variant initialization (Figure 6 steps 4-7)
    # ------------------------------------------------------------------

    def initialize_variants(
        self, hosts: dict[str, VariantHost], *, event: str = "init"
    ) -> None:
        """Attest, key and bind every selected variant.

        ``hosts`` maps variant_id -> placed host (the orchestrator started
        them from the public init-variant images).  For each claim the
        monitor selects variants from the pool, establishes an RA-TLS
        channel, distributes the variant-specific key, and verifies the
        second-stage installation evidence before binding.
        """
        if self.config is None:
            raise MonitorError("no MVX configuration provisioned")
        for claim in self.config.claims:
            selected = self.pool.select(
                claim.partition_index, claim.num_variants, seed=claim.selection_seed
            )
            for artifact in selected:
                host = hosts.get(artifact.variant_id)
                if host is None:
                    raise MonitorError(
                        f"orchestrator did not place variant {artifact.variant_id!r}"
                    )
                self._bootstrap_variant(claim.partition_index, artifact, host, event)

    def _bootstrap_variant(self, partition_index, artifact, host, event) -> None:
        # Fork-attack prevention (§6.5): a variant identity may be bound
        # to at most one live TEE; a second instance of the same variant
        # is rejected before any key leaves the monitor.
        active = self.ledger.active_bindings()
        if artifact.variant_id in active:
            raise MonitorError(
                f"variant {artifact.variant_id!r} is already bound to enclave "
                f"{active[artifact.variant_id].enclave_id!r} (fork attack?)"
            )
        # The init-variant's measurement must be trusted before any key
        # leaves the monitor.
        self.verifier.trust_measurement(host.enclave.measurement)
        channel_id = f"mon-{artifact.variant_id}-{secrets.token_hex(3)}"
        try:
            monitor_end, variant_end = establish_channel(
                initiator_quote_fn=lambda rd: self.quote(rd),
                responder_quote_fn=host.quote,
                verifier=self.verifier,
                channel_id=channel_id,
            )
        except ChannelError as exc:
            raise MonitorError(f"RA-TLS with {artifact.variant_id} failed: {exc}") from exc
        host.attach_channel(variant_end)
        if self.transport is not None:
            self.transport.register(host)
        connection = VariantConnection(
            variant_id=artifact.variant_id,
            partition_index=partition_index,
            channel=monitor_end,
            host=host,
            measurement=host.enclave.measurement,
            transport=self.transport,
        )
        msg_type, meta, _ = connection.request(
            "install-key",
            {"key_id": artifact.key_record.key_id, "kdk": artifact.key_record.key.hex()},
        )
        if msg_type != "init-done":
            raise MonitorError(
                f"variant {artifact.variant_id} failed init: {meta.get('reason')}"
            )
        # Verify the installation evidence: a fresh quote whose report
        # data binds the post-exec extension register.
        from repro.tee.attestation import Quote

        evidence = Quote.from_bytes(bytes.fromhex(meta["evidence"]))
        try:
            report = self.verifier.verify(
                evidence,
                expected_report_data=meta["extension_register"].encode(),
                require_trusted_measurement=False,
            )
        except AttestationError as exc:
            raise MonitorError(
                f"variant {artifact.variant_id} installation evidence invalid: {exc}"
            ) from exc
        if report.enclave_id != host.enclave.enclave_id:
            raise MonitorError("installation evidence from wrong enclave")
        self.ledger.append(
            variant_id=artifact.variant_id,
            partition_index=partition_index,
            enclave_id=host.enclave.enclave_id,
            measurement=host.enclave.measurement,
            channel_id=channel_id,
            event=event,
        )
        self.connections.setdefault(partition_index, []).append(connection)
        if event != "init":
            # Replacements/scale-ups change the variant set mid-flight:
            # audit-worthy in a way initial provisioning is not.
            self._audit(
                self.sinks,
                KIND_VARIANT_REPLACED,
                variant=artifact.variant_id,
                partition=partition_index,
                enclave=host.enclave.enclave_id,
                event=event,
            )

    def bind_variant(
        self, partition_index: int, artifact, host: VariantHost, *, event: str = "restart"
    ) -> VariantConnection:
        """Attest, key and bind one replacement variant.

        The cluster supervisor's restart path: after a worker process
        dies, its variant slot is refilled by re-running the full
        Figure-6 bootstrap (fresh enclave, fresh RA-TLS channel, fresh
        installation evidence) for the *same* artifact.  The old binding
        must be retired first -- fork-attack prevention rejects a second
        live binding of one variant id.  Returns the new connection.
        """
        self._bootstrap_variant(partition_index, artifact, host, event)
        return self.connections[partition_index][-1]

    def report_worker_crash(
        self, variant_id: str, *, error: str, batch_id: int = -1
    ) -> None:
        """Record an out-of-band variant process death as a crash.

        The supervisor calls this when a worker dies *between* requests
        (heartbeat detection): no in-flight round trip will surface the
        failure, but the deployment still lost a TEE.  Marks the host
        crashed, emits the crash event/metric and captures the forensic
        incident (the error string carries the worker pid/exit code).
        ``batch_id=-1`` marks a detection outside any batch.
        """
        for index, connections in self.connections.items():
            for connection in connections:
                if connection.variant_id != variant_id:
                    continue
                if not connection.host.crashed:
                    connection.host.crash_reason = str(error)
                    connection.host.crashed = True
                    connection.host.enclave.terminate()
                self._record_crash(self.sinks, batch_id, index, connection, error)
                return
        # Variant already dropped from the connection table: keep the
        # forensic trail anyway.
        self._capture_incident(
            self.sinks,
            build_incident_report(
                incident_id=self.incident_store.new_id(),
                kind="crash",
                batch_id=batch_id,
                partition_index=-1,
                suspected_culprits=(variant_id,),
                agreeing_variants=(),
                response_action=self.response_action.value,
                trace_id=self.tracer.trace_id(),
                span_id=self.tracer.current_span_id(),
                error=str(error),
            ),
        )

    def quote(self, report_data: bytes):
        """The monitor's own attestation (used by RA-TLS and the owner)."""
        from repro.tee.attestation import make_quote

        return make_quote(self.enclave, report_data)

    # ------------------------------------------------------------------
    # Checkpoint execution
    # ------------------------------------------------------------------

    def stage_connections(self, index: int) -> list[VariantConnection]:
        """Live connections of one partition."""
        return [c for c in self.connections.get(index, []) if not c.host.crashed]

    def execute_stage(
        self,
        batch_id: int,
        index: int,
        feeds: dict[str, np.ndarray],
        run: "InferenceOptions",
    ) -> dict[str, np.ndarray]:
        """Run one pipeline stage for one batch through its variants.

        Fast path: single variant, output falls through.  Slow path:
        replicate the input to all variants, synchronize at the
        checkpoint, evaluate consistency, vote, respond to dissent.
        Async mode: proceed on majority quorum, cross-validate laggards
        at the next checkpoint.  Which of these a partition takes is
        decided by the provisioned :class:`MvxConfig` alone.

        ``run`` is the run's resolved options (see
        :func:`repro.mvx.scheduler.run`): every span, metric and audit
        entry of the stage goes to its sinks, and its dispatcher (None:
        serial) sends the replica requests.
        """
        if self.config is None:
            raise MonitorError("no MVX configuration provisioned")
        sinks, dispatcher = run.sinks, run.dispatcher
        self._resolve_deferred()
        connections = self.stage_connections(index)
        if not connections:
            raise MonitorError(f"no live variants remain for partition {index}")
        if not self.config.uses_slow_path(index) or len(connections) == 1:
            return self._fast_path(sinks, dispatcher, batch_id, index, connections[0], feeds)
        if self.config.execution_mode == "async" and len(connections) >= 3:
            return self._slow_path_async(sinks, batch_id, index, connections, feeds)
        outputs = self._dispatch(sinks, dispatcher, connections, batch_id, feeds)
        return self._evaluate_checkpoint(sinks, batch_id, index, connections, outputs, feeds)

    def _fast_path(self, sinks, dispatcher, batch_id, index, connection, feeds):
        # Single-replica stages go through the run's dispatcher too: its
        # deadline and retry-once semantics must bound the fast path, or
        # a 1-replica stage could run unbounded past the batch deadline.
        (result,) = self._dispatch(sinks, dispatcher, [connection], batch_id, feeds)
        if result.outputs is None:
            self._record_crash(sinks, batch_id, index, connection, result.error)
            raise MonitorError(
                f"fast-path variant {connection.variant_id} failed: {result.error}"
            )
        return result.outputs

    def _dispatch(self, sinks, dispatcher, connections, batch_id, feeds) -> list[VariantOutput]:
        """One request to every connection: serially, or via the run's dispatcher."""
        if dispatcher is not None:
            return dispatcher.dispatch(self, connections, batch_id, feeds, sinks)
        return [self.request_inference(c, batch_id, feeds, sinks) for c in connections]

    def _slow_path_async(self, sinks, batch_id, index, connections, feeds):
        # Query in ascending simulated latency: the quorum of fastest
        # variants decides; laggards are validated at the next checkpoint.
        ordered = sorted(connections, key=lambda c: c.host.simulated_latency)
        quorum = len(connections) // 2 + 1
        quorum_conns = ordered[:quorum]
        laggards = ordered[quorum:]
        early = [self.request_inference(c, batch_id, feeds, sinks) for c in quorum_conns]
        with sinks.tracer.span(
            "checkpoint", partition=index, batch=batch_id, mode="async-quorum"
        ) as span:
            result = vote(early, policy=self.policy_for(index), strategy="majority")
            span.set_attribute("passed", result.passed)
        sinks.metrics.counter(
            "mvtee_checkpoints_total", "Checkpoint consistency evaluations"
        ).inc(partition=index, mode="async-quorum")
        self._audit(
            sinks,
            KIND_CHECKPOINT,
            batch=batch_id,
            partition=index,
            mode="async-quorum",
            passed=result.passed,
            dissenting=list(result.dissenting),
            crashed=list(result.crashed),
        )
        if not result.passed:
            # No early consensus: fall back to full synchronization.
            late = [self.request_inference(c, batch_id, feeds, sinks) for c in laggards]
            return self._evaluate_checkpoint(
                sinks, batch_id, index, quorum_conns + laggards, early + late, feeds
            )
        self._handle_vote_outcome(
            sinks, batch_id, index, quorum_conns, result, async_stage=True, outputs=early
        )
        if laggards:
            with self._state_lock:
                self._deferred.append(
                    (batch_id, index, result.accepted, laggards, feeds, sinks)
                )
        return result.accepted

    def _resolve_deferred(self) -> None:
        """Cross-validate laggard results before the pipeline advances.

        "When results from delayed variants are received, and if any
        dissent is noted, we react to the execution at the earliest next
        checkpoint."  Each check reports to the sinks of the run that
        deferred it.
        """
        if not self._deferred:
            return
        with self._state_lock:
            pending = self._deferred
            self._deferred = []
        for d_batch, d_index, accepted, laggards, feeds, sinks in pending:
            with sinks.tracer.span(
                "checkpoint",
                partition=d_index,
                batch=d_batch,
                mode="deferred",
                laggards=len(laggards),
            ):
                for connection in laggards:
                    result = self.request_inference(connection, d_batch, feeds, sinks)
                    if result.outputs is None:
                        self._record_crash(sinks, d_batch, d_index, connection, result.error)
                        self._respond(sinks, connection, d_batch, d_index)
                        continue
                    if not self.policy_for(d_index).consistent(accepted, result.outputs):
                        event = DivergenceEvent(
                            batch_id=d_batch,
                            partition_index=d_index,
                            dissenting_variants=(connection.variant_id,),
                            agreeing_variants=(),
                            detected_async=True,
                        )
                        with self._state_lock:
                            self.events.append(event)
                        self._record_divergence_metric(sinks, d_index)
                        self._capture_incident(
                            sinks,
                            build_incident_report(
                                incident_id=self.incident_store.new_id(),
                                kind="divergence",
                                batch_id=d_batch,
                                partition_index=d_index,
                                suspected_culprits=(connection.variant_id,),
                                agreeing_variants=(),
                                outputs_by_variant={
                                    connection.variant_id: result.outputs
                                },
                                reference_outputs=accepted,
                                response_action=self.response_action.value,
                                detected_async=True,
                                trace_id=sinks.tracer.trace_id(),
                                span_id=sinks.tracer.current_span_id(),
                            ),
                        )
                        self._respond(sinks, connection, d_batch, d_index)
            sinks.metrics.counter(
                "mvtee_checkpoints_total", "Checkpoint consistency evaluations"
            ).inc(partition=d_index, mode="deferred")
            self._audit(
                sinks,
                KIND_CHECKPOINT,
                batch=d_batch,
                partition=d_index,
                mode="deferred",
                laggards=len(laggards),
            )

    def request_inference(
        self,
        connection: VariantConnection,
        batch_id: int,
        feeds: dict,
        sinks: Sinks,
        *,
        clock: Clock = REAL_CLOCK,
    ) -> VariantOutput:
        """One monitor->variant round trip, reported to ``sinks``.

        The building block dispatchers compose: safe to call from worker
        threads -- the span, counter and detection-state paths it
        touches are lock- or GIL-protected.  The round trip is timed on
        ``clock`` into ``mvtee_variant_roundtrip_seconds``.
        """
        with sinks.tracer.span(
            "variant",
            variant=connection.variant_id,
            partition=connection.partition_index,
            batch=batch_id,
        ) as span:
            start = clock.now()
            result = self._round_trip(connection, batch_id, feeds, clock)
            elapsed = clock.now() - start
            span.set_attribute("bytes_protected", connection.channel.bytes_protected)
            if result.outputs is None:
                span.record_error(result.error)
        # Per replica, including whatever latency the host adds: the
        # straggler signal is skew between replicas of one partition.
        sinks.metrics.histogram(
            "mvtee_variant_roundtrip_seconds",
            "Monitor-observed round-trip seconds per variant request",
        ).observe(
            elapsed,
            variant=connection.variant_id,
            partition=connection.partition_index,
        )
        sinks.metrics.counter(
            "mvtee_variant_requests_total", "Monitor->variant inference round trips"
        ).inc(
            partition=connection.partition_index,
            outcome="ok" if result.outputs is not None else "error",
        )
        return result

    @staticmethod
    def _round_trip(
        connection: VariantConnection, batch_id: int, feeds: dict, clock: Clock
    ) -> VariantOutput:
        try:
            msg_type, meta, tensors = connection.request(
                "infer", {"batch_id": batch_id}, feeds, clock=clock
            )
        except (VariantUnavailable, ChannelError) as exc:
            return VariantOutput(
                variant_id=connection.variant_id, outputs=None, error=str(exc)
            )
        if msg_type != "result":
            return VariantOutput(
                variant_id=connection.variant_id,
                outputs=None,
                error=str(meta.get("reason", msg_type)),
            )
        return VariantOutput(variant_id=connection.variant_id, outputs=tensors)

    def _evaluate_checkpoint(self, sinks, batch_id, index, connections, outputs, feeds) -> dict:
        with sinks.tracer.span(
            "checkpoint",
            partition=index,
            batch=batch_id,
            mode="sync",
            voting=self.config.voting,
        ) as span:
            result = vote(outputs, policy=self.policy_for(index), strategy=self.config.voting)
            span.set_attribute("passed", result.passed)
            if result.dissenting:
                span.set_attribute("dissenting", list(result.dissenting))
        sinks.metrics.counter(
            "mvtee_checkpoints_total", "Checkpoint consistency evaluations"
        ).inc(partition=index, mode="sync")
        self._audit(
            sinks,
            KIND_CHECKPOINT,
            batch=batch_id,
            partition=index,
            mode="sync",
            passed=result.passed,
            dissenting=list(result.dissenting),
            crashed=list(result.crashed),
        )
        self._handle_vote_outcome(
            sinks, batch_id, index, connections, result, async_stage=False, outputs=outputs
        )
        if result.accepted is not None:
            return result.accepted
        if self.response_action is ResponseAction.RESTART_BATCH and result.agreeing:
            # Re-execute the stage on the surviving variants and re-vote:
            # the paper's "restart from a saved state" response.  The
            # dissenters were dropped by _handle_vote_outcome above.
            survivors = self.stage_connections(index)
            if survivors:
                retries = [
                    self.request_inference(c, batch_id, feeds, sinks) for c in survivors
                ]
                retry = vote(retries, policy=self.policy_for(index), strategy=self.config.voting)
                if retry.accepted is not None:
                    return retry.accepted
        elif self.response_action is not ResponseAction.HALT and result.agreeing:
            # Dissenters/crashes were dropped (or scheduled for replacement);
            # the surviving agreement cluster's output stands.
            by_id = {o.variant_id: o for o in outputs}
            return by_id[result.agreeing[0]].outputs
        raise MonitorError(
            f"checkpoint vote failed at batch {batch_id}, partition {index}: "
            f"dissent={list(result.dissenting)}, crashed={list(result.crashed)}"
        )

    def _handle_vote_outcome(
        self,
        sinks: Sinks,
        batch_id,
        index,
        connections,
        result: VoteResult,
        *,
        async_stage: bool,
        outputs: list[VariantOutput] | None = None,
    ) -> None:
        by_id = {c.variant_id: c for c in connections}
        for variant_id in result.crashed:
            connection = by_id[variant_id]
            self._record_crash(
                sinks, batch_id, index, connection, connection.host.crash_reason
            )
        if result.dissenting:
            event = DivergenceEvent(
                batch_id=batch_id,
                partition_index=index,
                dissenting_variants=result.dissenting,
                agreeing_variants=result.agreeing,
                reports=result.reports,
                detected_async=async_stage,
            )
            with self._state_lock:
                self.events.append(event)
            self._record_divergence_metric(sinks, index)
            self._capture_divergence_incident(
                sinks, batch_id, index, result, outputs, async_stage=async_stage
            )
            for variant_id in result.dissenting:
                self._respond(sinks, by_id[variant_id], batch_id, index)
        for variant_id in result.crashed:
            self._respond(sinks, by_id[variant_id], batch_id, index)

    def _capture_divergence_incident(
        self,
        sinks: Sinks,
        batch_id,
        index,
        result: VoteResult,
        outputs: list[VariantOutput] | None,
        *,
        async_stage: bool,
    ) -> None:
        """Build the forensic report for one dissenting checkpoint vote."""
        outputs_by_variant = {
            o.variant_id: o.outputs for o in (outputs or []) if o.outputs is not None
        }
        reference = None
        if result.agreeing:
            reference = outputs_by_variant.get(result.agreeing[0])
        self._capture_incident(
            sinks,
            build_incident_report(
                incident_id=self.incident_store.new_id(),
                kind="divergence",
                batch_id=batch_id,
                partition_index=index,
                suspected_culprits=result.dissenting,
                agreeing_variants=result.agreeing,
                outputs_by_variant=outputs_by_variant,
                reference_outputs=reference,
                consistency_reports=result.reports,
                response_action=self.response_action.value,
                detected_async=async_stage,
                trace_id=sinks.tracer.trace_id(),
                span_id=sinks.tracer.current_span_id(),
            ),
        )

    @staticmethod
    def _record_divergence_metric(sinks: Sinks, index: int) -> None:
        sinks.metrics.counter(
            "mvtee_divergences_total", "Divergence detections"
        ).inc(partition=index)

    def _record_crash(self, sinks: Sinks, batch_id, index, connection, error) -> None:
        with self._state_lock:
            self.events.append(
                CrashEvent(
                    batch_id=batch_id,
                    partition_index=index,
                    variant_id=connection.variant_id,
                    error=str(error),
                )
            )
        sinks.metrics.counter(
            "mvtee_crashes_total", "Variant crash detections"
        ).inc(partition=index)
        survivors = [
            c.variant_id
            for c in self.stage_connections(index)
            if c.variant_id != connection.variant_id
        ]
        self._capture_incident(
            sinks,
            build_incident_report(
                incident_id=self.incident_store.new_id(),
                kind="crash",
                batch_id=batch_id,
                partition_index=index,
                suspected_culprits=(connection.variant_id,),
                agreeing_variants=tuple(survivors),
                response_action=self.response_action.value,
                trace_id=sinks.tracer.trace_id(),
                span_id=sinks.tracer.current_span_id(),
                error=str(error),
            ),
        )

    def _respond(
        self, sinks: Sinks, connection: VariantConnection, batch_id: int, index: int
    ) -> None:
        """Apply the configured protective measure to a bad variant."""
        self._audit(
            sinks,
            KIND_RESPONSE,
            action=self.response_action.value,
            variant=connection.variant_id,
            batch=batch_id,
            partition=index,
        )
        if self.response_action is ResponseAction.HALT:
            return  # the raised MonitorError at the vote halts execution
        if self.response_action in (
            ResponseAction.DROP_VARIANT,
            ResponseAction.RESTART_BATCH,
            ResponseAction.REPLACE_VARIANT,
        ):
            sinks.metrics.counter(
                "mvtee_recovery_actions_total", "Protective responses applied"
            ).inc(action=self.response_action.value)
            if not connection.host.crashed:
                connection.host.terminate()
            self.ledger.append(
                variant_id=connection.variant_id,
                partition_index=index,
                enclave_id=connection.host.enclave.enclave_id,
                measurement=connection.measurement,
                channel_id=connection.channel.channel_id,
                event="retire",
            )
            with self._state_lock:
                self.connections[index] = [
                    c
                    for c in self.connections.get(index, [])
                    if c.variant_id != connection.variant_id
                ]

    def retire_variant(self, variant_id: str) -> None:
        """Terminate and unbind one variant (scale-down / operator action)."""
        for index, connections in self.connections.items():
            for connection in connections:
                if connection.variant_id != variant_id:
                    continue
                if not connection.host.crashed:
                    connection.host.terminate()
                self.ledger.append(
                    variant_id=variant_id,
                    partition_index=index,
                    enclave_id=connection.host.enclave.enclave_id,
                    measurement=connection.measurement,
                    channel_id=connection.channel.channel_id,
                    event="retire",
                )
                self.connections[index] = [
                    c for c in connections if c.variant_id != variant_id
                ]
                self._audit(
                    self.sinks,
                    KIND_VARIANT_REPLACED,
                    variant=variant_id,
                    partition=index,
                    enclave=connection.host.enclave.enclave_id,
                    event="retire",
                )
                return
        raise MonitorError(f"no bound variant {variant_id!r} to retire")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def divergence_events(self) -> list[DivergenceEvent]:
        """All recorded divergence detections."""
        with self._state_lock:
            events = list(self.events)
        return [e for e in events if isinstance(e, DivergenceEvent)]

    def crash_events(self) -> list[CrashEvent]:
        """All recorded variant crashes."""
        with self._state_lock:
            events = list(self.events)
        return [e for e in events if isinstance(e, CrashEvent)]
