"""Integration: bootstrap protocol, MVX inference, detection, updates.

These tests exercise the full monitor <-> variant machinery on a real
(small) model with real attested channels and sealed artifacts.
"""

import numpy as np
import pytest

from repro.attacks.cves import TABLE1_CVES, craft_malicious_input
from repro.mvx import MonitorError, MvteeSystem, ResponseAction
from repro.mvx.scheduler import run
from repro.mvx.wire import decode_message, encode_message
from repro.runtime.faults import FaultInjector
from repro.serving import ServingPolicy


@pytest.fixture()
def fresh_system(small_resnet):
    return MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={1: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )


class TestWire:
    def test_roundtrip_with_tensors(self):
        tensors = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
        msg = encode_message("infer", {"batch_id": 3}, tensors)
        msg_type, meta, restored = decode_message(msg)
        assert msg_type == "infer"
        assert meta["batch_id"] == 3
        assert np.array_equal(restored["x"], tensors["x"])

    def test_roundtrip_without_tensors(self):
        msg_type, meta, tensors = decode_message(encode_message("terminate", {}))
        assert msg_type == "terminate"
        assert tensors == {}


class TestBootstrapProtocol:
    def test_deployment_reaches_stage2(self, deployed_system):
        for hosts in deployed_system.monitor.connections.values():
            for connection in hosts:
                assert connection.host.enclave.os.stage == 2
                assert connection.host.runtime is not None

    def test_variant_counts_match_config(self, deployed_system):
        live = deployed_system.live_variants()
        assert len(live[0]) == 1
        assert len(live[1]) == 3
        assert len(live[2]) == 1

    def test_ledger_records_all_variants(self, deployed_system):
        deployed_system.monitor.ledger.verify_chain()
        active = deployed_system.monitor.ledger.active_bindings()
        assert len(active) == 5

    def test_provisioning_nonce_replay_rejected(self, deployed_system):
        monitor = deployed_system.monitor
        used_nonce = next(iter(monitor._provision_nonces))
        with pytest.raises(MonitorError, match="replayed"):
            monitor.provision_config(deployed_system.config, used_nonce)

    def test_orchestrator_cannot_read_private_files(self, deployed_system):
        # Every non-init file the orchestrator handles is sealed.
        for artifacts in deployed_system.pool.artifacts.values():
            for artifact in artifacts:
                for path, content in artifact.host_files.items():
                    if path == artifact.paths["init"]:
                        continue
                    assert artifact.model.to_bytes() not in content
                    assert b'"magic": "mvtee-sealed-v1"' in content

    def test_monitor_enclave_is_sgx1(self, deployed_system):
        # §6.5: the monitor prefers the small integrity-enhanced TEE.
        assert deployed_system.monitor.enclave.tee_type.value == "sgx1"


class TestInference:
    def test_matches_reference(self, deployed_system, small_input, small_resnet_reference):
        outputs = deployed_system.infer({"input": small_input})
        for name, expected in small_resnet_reference.items():
            assert np.allclose(outputs[name], expected, atol=1e-2)

    def test_sequential_and_pipelined_agree(self, deployed_system, small_input):
        rng = np.random.default_rng(1)
        batches = [
            {"input": rng.normal(size=(1, 3, 16, 16)).astype(np.float32)}
            for _ in range(4)
        ]
        seq, _ = run(deployed_system.monitor, batches)
        # Pipelined serving: one batch per run, two runs in flight.
        policy = ServingPolicy(max_batch_size=1, num_workers=2)
        with deployed_system.serving_engine(policy=policy) as engine:
            tickets = [engine.submit(feeds) for feeds in batches]
            pipe = [ticket.result(timeout=60.0) for ticket in tickets]
        for a, b in zip(seq, pipe):
            for name in a:
                assert np.allclose(a[name], b[name], atol=1e-5)

    def test_stats_counted(self, deployed_system, small_input):
        deployed_system.infer({"input": small_input})
        stats = deployed_system.last_stats
        assert stats.batches == 1
        assert stats.stage_executions == 3
        assert stats.checkpoints_evaluated == 1  # only the MVX partition

    def test_async_mode_agrees_with_sync(self, small_resnet, small_input):
        from repro.mvx.config import MvxConfig

        system = MvteeSystem.deploy(
            small_resnet,
            num_partitions=3,
            config=MvxConfig.selective(3, {1: 3}, execution_mode="async"),
            seed=0,
            verify_partitions=False,
            verify_variants=False,
        )
        # vary latencies so the quorum order is meaningful
        for i, connection in enumerate(system.monitor.stage_connections(1)):
            connection.host.simulated_latency = float(i)
        sync_ref = MvteeSystem.deploy(
            small_resnet, num_partitions=3, mvx_partitions={1: 3}, seed=0,
            verify_partitions=False, verify_variants=False,
        ).infer({"input": small_input})
        outputs = system.infer({"input": small_input})
        for name in sync_ref:
            assert np.allclose(outputs[name], sync_ref[name], atol=1e-2)


class TestDetectionAndResponse:
    def test_divergence_halts_by_default(self, fresh_system, small_input):
        connection = fresh_system.monitor.stage_connections(1)[0]
        FaultInjector(connection.host.runtime).arm_backend_bitflip(bit=30)
        with pytest.raises(MonitorError, match="vote failed"):
            fresh_system.infer({"input": small_input})
        assert fresh_system.monitor.divergence_events()

    def test_drop_variant_continues(self, fresh_system, small_input, small_resnet_reference):
        fresh_system.monitor.response_action = ResponseAction.DROP_VARIANT
        connection = fresh_system.monitor.stage_connections(1)[1]
        FaultInjector(connection.host.runtime).arm_backend_bitflip(bit=30)
        outputs = fresh_system.infer({"input": small_input})
        name = next(iter(small_resnet_reference))
        assert np.allclose(outputs[name], small_resnet_reference[name], atol=1e-2)
        assert len(fresh_system.monitor.stage_connections(1)) == 2
        retired = [e for e in fresh_system.monitor.ledger.entries if e.event == "retire"]
        assert len(retired) == 1

    def test_crash_detected(self, fresh_system, small_input):
        fresh_system.monitor.response_action = ResponseAction.DROP_VARIANT
        connection = fresh_system.monitor.stage_connections(1)[0]
        case = next(c for c in TABLE1_CVES if c.vulnerable_op == "Conv")
        case.arm(connection.host.runtime)
        evil = craft_malicious_input((1, 3, 16, 16))
        fresh_system.infer({"input": evil})
        assert fresh_system.monitor.crash_events()

    def test_fast_path_variant_failure_is_fatal(self, fresh_system, small_input):
        connection = fresh_system.monitor.stage_connections(0)[0]
        case = next(c for c in TABLE1_CVES if c.vulnerable_op == "Conv")
        case.arm(connection.host.runtime)
        evil = craft_malicious_input((1, 3, 16, 16))
        with pytest.raises(MonitorError):
            fresh_system.infer({"input": evil})


class TestUpdates:
    def test_partial_update_replaces_variants(self, fresh_system, small_input, small_resnet_reference):
        before = set(fresh_system.live_variants()[1])
        fresh_system.update_partition(1, seed=5)
        after = set(fresh_system.live_variants()[1])
        assert before.isdisjoint(after)
        assert len(after) == 3
        outputs = fresh_system.infer({"input": small_input})
        name = next(iter(small_resnet_reference))
        assert np.allclose(outputs[name], small_resnet_reference[name], atol=1e-2)

    def test_old_enclaves_terminated_on_update(self, fresh_system):
        old_hosts = [c.host for c in fresh_system.monitor.stage_connections(1)]
        fresh_system.update_partition(1, seed=6)
        assert all(h.crashed for h in old_hosts)

    def test_scale_up_adds_variants(self, fresh_system, small_input):
        fresh_system.scale_up(2, 2, seed=7)
        assert len(fresh_system.live_variants()[2]) == 3
        # Partition 2's claim was 1 variant (fast path in hybrid); slow
        # path activates only per config, so inference still succeeds.
        fresh_system.infer({"input": small_input})

    def test_ledger_append_only_through_updates(self, fresh_system):
        count_before = len(fresh_system.monitor.ledger.entries)
        fresh_system.update_partition(1, seed=8)
        assert len(fresh_system.monitor.ledger.entries) > count_before
        fresh_system.monitor.ledger.verify_chain()
