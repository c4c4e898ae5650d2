"""Operating MVTEE as a streaming inference service.

Day-2 operations end to end: a queue-driven service over a deployed
system, the adaptive controller reacting to a live attack (scale-up on
threat, scale-down when quiet), health metrics, a combined attestation
for an auditing user, monitor snapshot + simulated restart + recovery.

Run:  python examples/streaming_service_operations.py
"""

import numpy as np

from repro.crypto.keys import KeyManager
from repro.mvx import (
    AdaptiveController,
    InferenceService,
    MvteeSystem,
    ResponseAction,
    combined_attestation,
)
from repro.mvx.recovery import MonitorStateStore, recover_monitor, snapshot_monitor
from repro.observability import InMemorySpanExporter, MetricsRegistry, Tracer
from repro.runtime.faults import FaultInjector
from repro.tee.attestation import fresh_nonce
from repro.tee.filesystem import MonotonicCounterService
from repro.zoo import build_model


def main() -> None:
    model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
    system = MvteeSystem.deploy(model, num_partitions=3, mvx_partitions={1: 3}, seed=0)
    system.monitor.response_action = ResponseAction.DROP_VARIANT
    controller = AdaptiveController(system, scale_down_threshold=-1.0)
    ring = InMemorySpanExporter(capacity=64)
    tracer = Tracer(exporters=[ring])
    registry = MetricsRegistry()
    service = InferenceService(
        system, controller=controller, registry=registry, tracer=tracer
    )
    rng = np.random.default_rng(0)

    def submit_batch(count: int) -> list[int]:
        return [
            service.submit(
                {"input": rng.normal(size=(1, 3, 16, 16)).astype(np.float32)}
            )
            for _ in range(count)
        ]

    # --- normal operation --------------------------------------------------
    ids = submit_batch(6)
    service.drain()
    print(f"[service] served {len(ids)} requests; "
          f"metrics: {service.metrics().live_variants} variants live")

    # --- the span tree of the drain we just ran -----------------------------
    from repro.observability import format_span_tree

    print("[tracing] span tree of the first drain:")
    for line in format_span_tree(ring.spans[-1]).splitlines()[:12]:
        print(f"  {line}")
    stage_hist = registry.histogram("mvtee_stage_seconds")
    per_stage = {
        labels["partition"]: f"{stage_hist.sum(partition=labels['partition']):.4f}s"
        for labels in stage_hist.label_sets()
    }
    print(f"[metrics] cumulative stage seconds: {per_stage}")

    # --- attack lands mid-stream -------------------------------------------
    victim = system.monitor.stage_connections(1)[0]
    FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
    print(f"[attacker] corrupted BLAS library of {victim.variant_id}")
    submit_batch(4)
    service.drain()
    metrics = service.metrics()
    print(f"[service] detections: {metrics.divergences_detected} divergence(s); "
          f"controller actions: {metrics.scaling_actions}")
    for action in controller.actions:
        print(f"[controller] {action.action} partition {action.partition_index}: "
              f"{action.variants_before} -> {action.variants_after} variants "
              f"(threat score {action.threat_score:.2f})")

    # --- auditor performs a combined attestation ----------------------------
    attestation = combined_attestation(
        system.monitor, system.monitor.verifier, fresh_nonce()
    )
    print(f"[auditor] monitor {attestation.monitor_measurement[:12]}..., "
          f"{len(attestation.variants)} bound variant TEEs, "
          f"ledger head {attestation.ledger_head[:12]}...")

    # --- monitor restart + recovery ----------------------------------------
    store = MonitorStateStore(
        key_record=KeyManager().create_key("monitor-state"),
        counters=MonotonicCounterService(),
    )
    snapshot_monitor(system.monitor, store)
    hosts = {c.host.variant_id: c.host
             for conns in system.monitor.connections.values() for c in conns}
    fresh_enclave = system.orchestrator.place_monitor()
    recovered = recover_monitor(
        enclave=fresh_enclave,
        verifier=system.monitor.verifier,
        pool=system.pool,
        store=store,
        hosts=hosts,
    )
    system.monitor = recovered
    print(f"[ops] monitor restarted; {sum(len(v) for v in recovered.connections.values())} "
          "variants re-attested and re-bound")

    submit_batch(3)
    served = service.drain()
    print(f"[service] {served} requests served post-recovery; "
          f"final metrics: {service.metrics()}")


if __name__ == "__main__":
    main()
