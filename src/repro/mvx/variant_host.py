"""A variant TEE process (host side of the monitor<->variant protocol).

One :class:`VariantHost` is one enclave running, in sequence:

1. the *init-variant* (stage 1): attest, receive the variant-specific
   key over the secure channel, install it into the TEE OS, fetch and
   install the sealed second-stage manifest, then ``exec()``;
2. the *main variant* (stage 2): load the sealed model partition and
   runtime config through the encrypted filesystem, instantiate the
   diversified runtime, and serve inference requests.

A :class:`RuntimeCrash` inside the runtime marks the host dead -- the
monitor sees a missing checkpoint response, exactly like a crashed TEE.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.clock import Clock, as_clock
from repro.graph.model import ModelGraph
from repro.mvx.wire import decode_message, encode_message
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.runtime import create_runtime
from repro.runtime.base import InferenceRuntime, RuntimeCrash
from repro.tee.attestation import Quote, make_quote
from repro.tee.channel import SecureChannel
from repro.tee.enclave import Enclave
from repro.tee.gramine import GramineError
from repro.tee.hardware import SimulatedCpu
from repro.variants.pool import VariantArtifact
from repro.variants.spec import VariantSpec

__all__ = ["VariantHost", "VariantUnavailable"]


class VariantUnavailable(Exception):
    """The variant TEE crashed or was terminated; no response will come."""


@dataclass
class VariantHost:
    """One variant TEE and its application state machine."""

    artifact: VariantArtifact
    enclave: Enclave
    channel: SecureChannel | None = None
    runtime: InferenceRuntime | None = None
    crashed: bool = False
    crash_reason: str = ""
    #: Simulated extra execution latency (seconds-equivalent units); the
    #: async scheduler and the DES use this to model slow variants (e.g.
    #: a heavily diversified TVM variant, §6.4).
    simulated_latency: float = 0.0
    #: Apply ``simulated_latency`` as a sleep on ``clock`` (real time by
    #: default) before each inference.  The sleep releases the GIL like
    #: the numpy kernels do, so the serving benchmarks can model heavy
    #: diversified variants whose replicas genuinely overlap under
    #: parallel dispatch.
    realtime_latency: bool = False
    #: Clock the ``realtime_latency`` sleep runs on (None = real time).
    clock: Clock | None = None
    #: Metrics sink for serving counters (None = process-wide registry).
    metrics: MetricsRegistry | None = None
    _served: int = field(default=0)

    @property
    def variant_id(self) -> str:
        """The hosted variant's identifier."""
        return self.artifact.variant_id

    @classmethod
    def place(
        cls,
        artifact: VariantArtifact,
        cpu: SimulatedCpu,
        *,
        enclave_id: str | None = None,
    ) -> "VariantHost":
        """Orchestrator action: start the variant TEE with its init-variant.

        Only public files (init binary, public manifest) and sealed blobs
        are involved -- the orchestrator never sees variant specifics
        (two-stage bootstrap design, Figure 5).
        """
        enclave = Enclave.launch(
            cpu,
            artifact.spec.tee_type,
            artifact.init_manifest,
            dict(artifact.host_files),
            enclave_id=enclave_id or f"tee-{artifact.variant_id}",
        )
        return cls(artifact=artifact, enclave=enclave)

    # ------------------------------------------------------------------
    # Stage 1: init-variant
    # ------------------------------------------------------------------

    def quote(self, report_data: bytes) -> Quote:
        """Attestation on behalf of the running enclave."""
        return make_quote(self.enclave, report_data)

    def attach_channel(self, channel: SecureChannel) -> None:
        """Bind the RA-TLS channel established with the monitor."""
        self.channel = channel

    def handle_record(self, record: bytes) -> bytes:
        """Process one protected request record; returns the response record.

        Raises :class:`VariantUnavailable` if the variant is dead (a real
        crashed process simply never responds).
        """
        if self.crashed:
            raise VariantUnavailable(
                f"variant {self.variant_id} crashed: {self.crash_reason}"
            )
        if self.channel is None:
            raise VariantUnavailable(f"variant {self.variant_id} has no channel")
        msg_type, meta, tensors = decode_message(self.channel.open(record))
        if msg_type == "install-key":
            response = self._handle_install_key(meta)
        elif msg_type == "infer":
            response = self._handle_infer(meta, tensors)
        elif msg_type == "terminate":
            self.terminate()
            response = encode_message("terminated", {"variant_id": self.variant_id})
        else:
            response = encode_message("error", {"reason": f"unknown message {msg_type!r}"})
        return self.channel.protect(response)

    def _handle_install_key(self, meta: dict) -> bytes:
        os_ = self.enclave.os
        try:
            os_.install_key(meta["key_id"], bytes.fromhex(meta["kdk"]))
            manifest_bytes = os_.read_file(self.artifact.paths["stage2_manifest"])
            os_.install_second_stage_manifest(manifest_bytes)
            os_.exec(self.artifact.paths["main"])
            self._enter_stage2()
        except GramineError as exc:
            return encode_message("init-failed", {"reason": str(exc)})
        evidence = self.quote(self.enclave.extension_register.encode())
        return encode_message(
            "init-done",
            {
                "variant_id": self.variant_id,
                "extension_register": self.enclave.extension_register,
                "evidence": evidence.to_bytes().hex(),
            },
        )

    def _enter_stage2(self) -> None:
        os_ = self.enclave.os
        model = ModelGraph.from_bytes(os_.read_file(self.artifact.paths["model"]))
        spec = VariantSpec.from_json(
            json.loads(os_.read_file(self.artifact.paths["config"]))
        )
        self.runtime = create_runtime(spec.runtime)
        self.runtime.prepare(model)

    # ------------------------------------------------------------------
    # Stage 2: inference serving
    # ------------------------------------------------------------------

    def _handle_infer(self, meta: dict, tensors: dict[str, np.ndarray]) -> bytes:
        if self.runtime is None:
            return encode_message("error", {"reason": "variant not initialized"})
        registry = self.metrics if self.metrics is not None else get_global_registry()
        if self.realtime_latency and self.simulated_latency > 0:
            as_clock(self.clock).sleep(self.simulated_latency)
        start = time.perf_counter()
        try:
            outputs = self.runtime.run(tensors)
        except RuntimeCrash as exc:
            # The TEE process dies; mark dead *before* raising so every
            # later request also fails (no response semantics).
            self.crashed = True
            self.crash_reason = str(exc)
            self.enclave.terminate()
            raise VariantUnavailable(
                f"variant {self.variant_id} crashed during inference: {exc}"
            ) from exc
        registry.histogram(
            "mvtee_variant_runtime_seconds", "In-enclave runtime seconds per request"
        ).observe(time.perf_counter() - start, variant=self.variant_id)
        registry.counter(
            "mvtee_variant_inferences_total", "Successful variant inferences"
        ).inc(variant=self.variant_id)
        self._served += 1
        return encode_message(
            "result",
            {"variant_id": self.variant_id, "batch_id": meta.get("batch_id", -1)},
            outputs,
        )

    @property
    def inferences_served(self) -> int:
        """Number of successful inference responses."""
        return self._served

    def terminate(self) -> None:
        """Tear the variant TEE down (monitor response or update retire)."""
        self.crashed = True
        self.crash_reason = self.crash_reason or "terminated by monitor"
        self.enclave.terminate()
