"""The full Figure 6 deployment workflow, role by role.

Walks through MVTEE's usage and deployment model with every party
explicit: the offline tool builds the encrypted variant pool and public
container images; the untrusted orchestrator places TEEs; the model
owner attests the monitor and provisions the MVX plan; the monitor
attests, keys and binds every variant through the two-stage bootstrap;
a user attests the deployment and submits private inputs; finally the
owner pushes a partial variant update with an auditable binding trail.

Run:  python examples/secure_cloud_deployment.py
"""

import numpy as np

from repro.mvx.bootstrap import ModelOwner, Orchestrator
from repro.mvx.config import MvxConfig
from repro.mvx.monitor import Monitor
from repro.mvx.scheduler import run
from repro.mvx.updates import partial_update
from repro.offline import OfflineTool, ToolConfig
from repro.tee.attestation import Verifier, fresh_nonce
from repro.tee.hardware import SimulatedCpu
from repro.variants.pool import build_pool, diversified_specs
from repro.zoo import build_model


def main() -> None:
    # ----- Offline phase (model owner's premises) -------------------------
    model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
    tool = OfflineTool(ToolConfig(num_partitions=3, variants_per_partition=3, seed=0))
    output = tool.run(model)
    print(f"[offline] inspected {output.report.num_nodes} nodes, "
          f"{output.report.total_flops / 1e6:.1f} MFLOPs")
    print(f"[offline] partitions: {[len(p.node_names) for p in output.partition_set.partitions]}")
    print(f"[offline] pool: {output.pool.total_variants()} encrypted variant artifacts")
    print(f"[offline] monitor image digest {output.monitor_image.digest()[:16]}...")

    # ----- Online phase ----------------------------------------------------
    # The cloud provider has TEE-capable platforms; the orchestrator is
    # untrusted (it only moves public images and sealed files around).
    platforms = [SimulatedCpu(f"cloud-node-{i}") for i in range(2)]
    orchestrator = Orchestrator(cpus=platforms)
    monitor_enclave = orchestrator.place_monitor()
    print(f"[orchestrator] monitor TEE {monitor_enclave.enclave_id} "
          f"({monitor_enclave.tee_type.value}) placed")

    # The model owner provisions attestation collateral and its trust policy.
    verifier = Verifier()
    for cpu in platforms:
        verifier.register_platform(cpu)
    verifier.trust_measurement(monitor_enclave.measurement)
    owner = ModelOwner(verifier=verifier)

    monitor = Monitor(enclave=monitor_enclave, verifier=verifier, pool=output.pool)

    # MVX plan: protect partition 1 with 3 variants, async cross-validation.
    config = MvxConfig.selective(3, {1: 3}, execution_mode="async")
    hosts = owner.deploy(monitor, orchestrator, config)
    print(f"[owner] attested monitor, provisioned MVX plan, {len(hosts)} variant TEEs bound")
    for entry in monitor.ledger.entries:
        print(f"[ledger] #{entry.sequence} {entry.event}: {entry.variant_id} "
              f"@ {entry.enclave_id} (measurement {entry.measurement[:12]}...)")

    # ----- User-side combined attestation + inference ----------------------
    # The user verifies the monitor, then trusts the monitor's binding
    # ledger for the variants (combined attestation through the monitor).
    nonce = fresh_nonce()
    report = verifier.verify(monitor.quote(nonce), expected_report_data=nonce)
    monitor.ledger.verify_chain()
    print(f"[user] monitor attested ({report.measurement[:12]}...), ledger chain OK")

    rng = np.random.default_rng(7)
    batches = [
        {"input": rng.normal(size=(1, 3, 16, 16)).astype(np.float32)} for _ in range(6)
    ]
    results, stats = run(monitor, batches)
    print(f"[user] {stats.batches} batches through the pipeline, "
          f"{stats.checkpoints_evaluated} checkpoints evaluated, "
          f"{stats.divergences} divergences")

    # ----- Partial update ---------------------------------------------------
    # The owner rotates partition 1 to fresh variants (e.g. after a CVE
    # disclosure); old TEEs are terminated, never reused.
    fresh = build_pool(
        output.partition_set,
        diversified_specs(1, 3, seed=99, prefix="p1-rot"),
        key_manager=output.key_manager,
        verify=False,
    ).for_partition(1)
    new_hosts = partial_update(monitor, orchestrator, 1, fresh)
    print(f"[owner] partial update: {[h.variant_id for h in new_hosts]}")
    retired = [e.variant_id for e in monitor.ledger.entries if e.event == "retire"]
    print(f"[ledger] retired: {retired}")

    out_after = run(monitor, batches[:1])[0][0]
    before = next(iter(results[0].values()))
    after = next(iter(out_after.values()))
    assert np.allclose(before, after, atol=1e-2)
    print("[user] post-update inference verified against pre-update result")


if __name__ == "__main__":
    main()
