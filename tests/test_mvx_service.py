"""The streaming inference service."""

import numpy as np
import pytest

from repro.mvx import (
    AdaptiveController,
    InferenceService,
    MonitorError,
    MvteeSystem,
    RequestState,
    ResponseAction,
)
from repro.runtime.faults import FaultInjector


@pytest.fixture()
def system(small_resnet):
    deployed = MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={1: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )
    deployed.monitor.response_action = ResponseAction.DROP_VARIANT
    return deployed


def feeds_for(seed: int):
    return {
        "input": np.random.default_rng(seed).normal(size=(1, 3, 16, 16)).astype(np.float32)
    }


class TestServiceLifecycle:
    def test_submit_drain_result(self, system, small_resnet_reference):
        service = InferenceService(system)
        rid = service.submit(feeds_for(0))
        assert service.status(rid) is RequestState.QUEUED
        assert service.drain() == 1
        assert service.status(rid) is RequestState.DONE
        result = service.result(rid)
        name = next(iter(small_resnet_reference))
        assert np.allclose(result[name], small_resnet_reference[name], atol=1e-2)

    def test_order_preserved(self, system):
        service = InferenceService(system)
        ids = [service.submit(feeds_for(i)) for i in range(5)]
        service.drain()
        results = [service.result(i) for i in ids]
        # Each request gets its own answer: different seeds, different outputs.
        name = next(iter(results[0]))
        assert not np.allclose(results[0][name], results[1][name])

    def test_max_batch_limits_drain(self, system):
        service = InferenceService(system)
        for i in range(4):
            service.submit(feeds_for(i))
        assert service.drain(max_batch=2) == 2
        assert service.drain() == 2

    def test_max_batch_zero_does_nothing(self, system):
        service = InferenceService(system)
        rid = service.submit(feeds_for(0))
        assert service.drain(max_batch=0) == 0
        assert service.status(rid) is RequestState.QUEUED
        assert service.drain() == 1

    def test_submit_is_thread_safe(self, system):
        import threading

        service = InferenceService(system)
        ids: list[int] = []
        lock = threading.Lock()

        def client(seed):
            for i in range(25):
                rid = service.submit(feeds_for(seed * 100 + i))
                with lock:
                    ids.append(rid)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ids) == 100
        assert len(set(ids)) == 100  # no id handed out twice
        assert all(service.status(rid) is RequestState.QUEUED for rid in ids)

    def test_unknown_request(self, system):
        service = InferenceService(system)
        with pytest.raises(KeyError):
            service.status(99)
        with pytest.raises(KeyError):
            service.result(99)

    def test_empty_drain(self, system):
        assert InferenceService(system).drain() == 0


class TestServiceUnderAttack:
    def test_detection_served_through(self, system, small_resnet_reference):
        service = InferenceService(system)
        victim = system.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        rid = service.submit(feeds_for(1))
        assert service.drain() == 1
        # Detection happened, dissenting variant dropped, request served.
        metrics = service.metrics()
        assert metrics.divergences_detected >= 1
        assert metrics.live_variants[1] == 2
        assert service.status(rid) is RequestState.DONE

    def test_halt_marks_requests_failed(self, small_resnet):
        deployed = MvteeSystem.deploy(
            small_resnet, num_partitions=3, mvx_partitions={1: 3}, seed=0,
            verify_partitions=False, verify_variants=False,
        )  # default HALT response
        service = InferenceService(deployed)
        victim = deployed.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        rid = service.submit(feeds_for(2))
        # drain() reports the requests it *transitioned*: the detection
        # marked this one FAILED, which is a transition, not a no-op.
        assert service.drain() == 1
        assert service.status(rid) is RequestState.FAILED
        with pytest.raises(MonitorError):
            service.result(rid)

    def test_adaptive_controller_integration(self, system):
        controller = AdaptiveController(system, scale_down_threshold=-1.0)
        service = InferenceService(system, controller=controller)
        victim = system.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        service.submit(feeds_for(3))
        service.drain()
        metrics = service.metrics()
        assert metrics.scaling_actions >= 1
        assert metrics.live_variants[1] == 3  # dropped one, scaled one back up


class TestServeMode:
    def test_serve_routes_submissions_through_engine(self, system, small_resnet_reference):
        service = InferenceService(system)
        with service.serve(max_batch_size=4, max_wait_s=0.001) as engine:
            ids = [service.submit(feeds_for(i)) for i in range(5)]
            for rid in ids:
                assert service.wait(rid, timeout=30.0) is RequestState.DONE
        name = next(iter(small_resnet_reference))
        result = service.result(ids[0])
        assert np.allclose(result[name], small_resnet_reference[name], atol=1e-2)
        # The engine recorded into the service registry.
        exposition = service.render_prometheus()
        assert "mvtee_queue_depth" in exposition
        assert "mvtee_batch_size" in exposition
        assert engine.registry is service.registry

    def test_drain_refused_while_serving(self, system):
        service = InferenceService(system)
        with service.serve():
            with pytest.raises(RuntimeError, match="serve"):
                service.drain()
        assert service.drain() == 0  # usable again after exit

    def test_pre_serve_backlog_stays_for_drain(self, system):
        service = InferenceService(system)
        rid = service.submit(feeds_for(0))
        with service.serve():
            pass
        assert service.status(rid) is RequestState.QUEUED
        assert service.drain() == 1


class TestServiceMetrics:
    def test_counters(self, system):
        service = InferenceService(system)
        for i in range(3):
            service.submit(feeds_for(i))
        service.drain()
        metrics = service.metrics()
        assert metrics.requests_served == 3
        assert metrics.requests_failed == 0
        assert metrics.batches_executed == 3
        assert metrics.checkpoints_evaluated == 3  # one MVX partition per batch
        assert metrics.bytes_protected > 0
        assert metrics.live_variants == {0: 1, 1: 3, 2: 1}

    def test_counters_cover_serve(self, system):
        service = InferenceService(system)
        with service.serve(max_batch_size=1):
            ids = [service.submit(feeds_for(i)) for i in range(3)]
            for rid in ids:
                assert service.wait(rid, timeout=30.0) is RequestState.DONE
        metrics = service.metrics()
        assert metrics.requests_served == 3
        assert metrics.batches_executed == 3
        assert metrics.checkpoints_evaluated == 3
