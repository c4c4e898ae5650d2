"""Process-cluster execution: workers, shm lane, supervision, restarts.

The cluster moves each variant host into its own forked OS process; the
contract under test is that nothing observable changes for correct
executions (same outputs as in-process mode) while *real* process death
(SIGKILL) behaves exactly like the crashed-TEE path the monitor already
implements: typed failure, crash incident with pid/exit code, restart
within policy, no orphan processes or shared-memory segments.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterSupervisor,
    RestartPolicy,
    WorkerCrashed,
)
from repro.cluster import shm
from repro.cluster.supervisor import _LIVE_SUPERVISORS, _atexit_shutdown_all
from repro.mvx import InferenceOptions, MonitorError, MvteeSystem, ResponseAction
from repro.observability import Sinks
from repro.mvx.variant_host import VariantUnavailable
from repro.mvx.wire import decode_message, encode_message
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.observability.recorder import (
    KIND_WORKER_EXITED,
    KIND_WORKER_RESTARTED,
    KIND_WORKER_STARTED,
    FlightRecorder,
)
from repro.serving import ParallelStageExecutor, ServingPolicy, TicketState


def fast_policy(**overrides) -> RestartPolicy:
    defaults = dict(backoff_base_s=0.01, backoff_max_s=0.05, graceful_timeout_s=0.5)
    defaults.update(overrides)
    return RestartPolicy(**defaults)


def deploy_cluster(model, *, policy=None, recorder=None, metrics=None, mvx={1: 3}):
    return MvteeSystem.deploy(
        model,
        num_partitions=3,
        mvx_partitions=mvx,
        seed=0,
        verify_partitions=False,
        verify_variants=False,
        execution="process",
        restart_policy=policy if policy is not None else fast_policy(),
        sinks=Sinks(metrics=metrics, recorder=recorder),
    )


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Wire framing (satellite: zero-size and non-contiguous tensors)
# ----------------------------------------------------------------------


class TestWireRoundTrip:
    def test_zero_size_tensor(self):
        empty = np.zeros((0, 4), dtype=np.float32)
        _, _, tensors = decode_message(encode_message("t", {}, {"e": empty}))
        assert tensors["e"].shape == (0, 4)
        assert tensors["e"].dtype == np.float32

    def test_transposed_view(self):
        base = np.arange(12, dtype=np.float64).reshape(3, 4)
        view = base.T
        assert not view.flags["C_CONTIGUOUS"]
        _, _, tensors = decode_message(encode_message("t", {}, {"v": view}))
        np.testing.assert_array_equal(tensors["v"], view)

    def test_strided_slice_view(self):
        base = np.arange(40, dtype=np.int32).reshape(8, 5)
        view = base[::2, 1:4]
        _, _, tensors = decode_message(encode_message("t", {}, {"s": view}))
        np.testing.assert_array_equal(tensors["s"], view)


# ----------------------------------------------------------------------
# Shared-memory lane
# ----------------------------------------------------------------------


class TestShmLane:
    def test_small_tensor_stays_inline(self):
        registry = MetricsRegistry()
        headers, inline = shm.export_tensors(
            {"x": np.ones(8, dtype=np.float32)}, registry=registry
        )
        assert headers == [] and "x" in inline

    def test_large_tensor_round_trips_and_unlinks(self):
        registry = MetricsRegistry()
        big = np.random.default_rng(0).normal(size=(256, 256)).astype(np.float32)
        headers, inline = shm.export_tensors(
            {"big": big}, threshold=1024, registry=registry, direction="request"
        )
        assert inline == {} and len(headers) == 1
        assert headers[0]["shm"] in shm.tracked_segment_names()
        back = shm.import_tensors(headers, registry=registry, direction="request")
        np.testing.assert_array_equal(back["big"], big)
        # Receiver is the terminal owner: segment gone, tracking clean.
        assert headers[0]["shm"] not in shm.tracked_segment_names()
        counter = registry.counter("mvtee_shm_bytes_total")
        assert counter.value(direction="request") == 2 * big.nbytes

    def test_cleanup_segments_sweeps_leaks(self):
        headers, _ = shm.export_tensors(
            {"leak": np.zeros(4096, dtype=np.float64)},
            threshold=1,
            registry=MetricsRegistry(),
        )
        assert shm.tracked_segment_names()
        assert shm.cleanup_segments() >= 1
        assert headers[0]["shm"] not in shm.tracked_segment_names()


# ----------------------------------------------------------------------
# Process-mode deployment
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster_system(small_resnet):
    system = deploy_cluster(small_resnet, recorder=FlightRecorder())
    yield system
    system.shutdown()


class TestProcessDeployment:
    def test_workers_forked_per_variant(self, cluster_system):
        workers = cluster_system.cluster.workers()
        assert len(workers) == 5  # 1 + 3 + 1 variants
        pids = {w.pid for w in workers.values()}
        assert len(pids) == 5 and os.getpid() not in pids

    def test_outputs_match_in_process(
        self, cluster_system, small_input, small_resnet_reference
    ):
        outputs = cluster_system.infer({"input": small_input})
        name = next(iter(small_resnet_reference))
        assert np.allclose(outputs[name], small_resnet_reference[name], atol=1e-2)

    def test_worker_ping_reports_service(self, cluster_system, small_input):
        cluster_system.infer({"input": small_input})
        worker = next(iter(cluster_system.cluster.workers().values()))
        meta = worker.ping()
        assert meta is not None
        assert meta["pid"] == worker.pid
        assert meta["served"] >= 1 and not meta["crashed"]

    def test_lifecycle_events_audited(self, cluster_system):
        started = cluster_system.monitor.recorder.events(KIND_WORKER_STARTED)
        assert len(started) >= 5
        assert all(e.data["pid"] for e in started)

    def test_request_segments_untracked_once_answered(self, cluster_system, small_input):
        workers = list(cluster_system.cluster.workers().values())
        previous = [w.shm_threshold for w in workers]
        for worker in workers:
            worker.shm_threshold = 1  # every request record takes the shm lane
        registry = workers[0].registry
        if registry is None:
            registry = get_global_registry()
        moved = registry.counter("mvtee_shm_bytes_total")
        before = moved.value(direction="request")
        try:
            for _ in range(5):
                cluster_system.infer({"input": small_input})
        finally:
            for worker, threshold in zip(workers, previous):
                worker.shm_threshold = threshold
        assert moved.value(direction="request") > before
        assert shm.tracked_segment_names() == set()

    def test_waiting_workers_overlap(self, cluster_system, small_input):
        # Three replicas that each sleep 0.3 s inside their worker: the
        # stage takes one sleep, not three.
        workers = [
            cluster_system.cluster.worker(c.variant_id)
            for c in cluster_system.monitor.stage_connections(1)
        ]
        assert len(workers) == 3
        cluster_system.infer({"input": small_input})  # warm
        for worker in workers:
            worker.configure(simulated_latency=0.3, realtime_latency=True)
        try:
            with ParallelStageExecutor(4) as executor:
                options = InferenceOptions(dispatcher=executor)
                start = time.monotonic()
                cluster_system.infer_batches([{"input": small_input}], options)
                elapsed = time.monotonic() - start
        finally:
            for worker in workers:
                worker.configure(simulated_latency=0.0, realtime_latency=False)
        assert elapsed < 0.6

    def test_rejects_explicit_transport_combo(self, small_resnet):
        from repro.mvx.transport import DirectTransport

        with pytest.raises(ValueError, match="ProcessTransport"):
            MvteeSystem.deploy(
                small_resnet,
                num_partitions=2,
                verify_partitions=False,
                verify_variants=False,
                execution="process",
                transport=DirectTransport(),
            )

    def test_rejects_unknown_execution(self, small_resnet):
        with pytest.raises(ValueError, match="execution"):
            MvteeSystem.deploy(small_resnet, execution="thread")


# ----------------------------------------------------------------------
# Crash isolation and supervision
# ----------------------------------------------------------------------


class TestCrashSupervision:
    def test_sigkill_mid_inference_is_typed_and_recovered(self, small_resnet, small_input):
        """SIGKILL one replica mid-batch: the other variants' results
        survive, the crash incident carries pid/exit code, and the
        supervisor restores the pool within the restart budget."""
        recorder = FlightRecorder()
        system = deploy_cluster(small_resnet, recorder=recorder)
        try:
            system.monitor.response_action = ResponseAction.DROP_VARIANT
            cluster = system.cluster
            victim_id = sorted(
                v for v in cluster.workers() if v.startswith("p1-")
            )[1]
            victim = cluster.worker(victim_id)
            victim_pid = victim.pid
            # Make the victim slow enough that the kill lands mid-exchange.
            victim.configure(simulated_latency=0.5, realtime_latency=True)
            killer = threading.Timer(0.1, os.kill, (victim_pid, signal.SIGKILL))
            killer.start()
            try:
                outputs = system.infer({"input": small_input})
            finally:
                killer.join()
            # 2-of-3 replicas agree: the batch is unharmed.
            assert outputs
            incident = system.monitor.incident_store.latest()
            assert incident.kind == "crash"
            assert victim_id in incident.suspected_culprits
            assert f"pid={victim_pid}" in incident.error
            assert "exit_code=-9" in incident.error
            # The supervisor refills the slot (fresh enclave, fresh worker).
            assert wait_until(lambda: cluster.live_worker_count() == 5)
            assert cluster.worker(victim_id).pid != victim_pid
            restarted = recorder.events(KIND_WORKER_RESTARTED)
            assert any(e.data["variant"] == victim_id for e in restarted)
            # The restored pool serves (and votes) again.
            system.infer({"input": small_input})
            assert len(system.monitor.stage_connections(1)) == 3
        finally:
            system.shutdown()

    def test_fast_path_worker_death_fails_like_in_process_crash(
        self, small_resnet, small_input
    ):
        """Killing the single variant of a fast-path partition fails the
        request with the same typed MonitorError as an in-process
        crash; the in-flight request is never silently retried."""
        system = deploy_cluster(small_resnet)
        try:
            victim = system.cluster.worker(
                next(v for v in system.cluster.workers() if v.startswith("p0-"))
            )
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(MonitorError):
                system.infer({"input": small_input})
            assert system.monitor.crash_events()
        finally:
            system.shutdown()

    def test_idle_death_detected_by_heartbeat(self, small_resnet):
        """A worker killed between requests is still detected, reported
        once and restarted -- no in-flight exchange required."""
        recorder = FlightRecorder()
        system = deploy_cluster(small_resnet, recorder=recorder)
        try:
            cluster = system.cluster
            victim_id = sorted(v for v in cluster.workers() if v.startswith("p1-"))[0]
            victim_pid = cluster.worker(victim_id).pid
            os.kill(victim_pid, signal.SIGKILL)
            assert wait_until(
                lambda: cluster.worker(victim_id) is not None
                and cluster.worker(victim_id).pid != victim_pid
            )
            exits = [
                e
                for e in recorder.events(KIND_WORKER_EXITED)
                if e.data.get("pid") == victim_pid
            ]
            assert len(exits) == 1 and exits[0].data["exit_code"] == -9
            crash_incidents = [
                i for i in system.monitor.incident_store.incidents() if i.kind == "crash"
            ]
            assert len(crash_incidents) == 1
        finally:
            system.shutdown()

    def test_restart_budget_exhaustion_abandons_slot(self, small_resnet):
        policy = fast_policy(max_restarts=2, window_s=60.0)
        system = deploy_cluster(small_resnet, policy=policy)
        try:
            system.monitor.response_action = ResponseAction.DROP_VARIANT
            cluster = system.cluster
            victim_id = sorted(v for v in cluster.workers() if v.startswith("p1-"))[2]
            killed_pids: set[int] = set()

            def fresh_worker_or_abandoned():
                if victim_id in cluster.abandoned_slots():
                    return True
                worker = cluster.worker(victim_id)
                return (
                    worker is not None
                    and worker.is_alive()
                    and worker.pid not in killed_pids
                )

            for _ in range(policy.max_restarts + 1):
                assert wait_until(fresh_worker_or_abandoned)
                if victim_id in cluster.abandoned_slots():
                    break
                worker = cluster.worker(victim_id)
                killed_pids.add(worker.pid)
                os.kill(worker.pid, signal.SIGKILL)
            assert wait_until(lambda: victim_id in cluster.abandoned_slots())
            assert cluster.worker(victim_id) is None
            registry = cluster._registry
            assert (
                registry.counter("mvtee_worker_restarts_total").value(
                    variant=victim_id
                )
                == policy.max_restarts
            )
        finally:
            system.shutdown()

    def test_worker_crash_metric_and_heartbeat_gauge(self, small_resnet):
        metrics = MetricsRegistry()
        system = deploy_cluster(small_resnet, metrics=metrics)
        try:
            cluster = system.cluster
            victim_id = sorted(v for v in cluster.workers() if v.startswith("p1-"))[0]
            gauge = metrics.gauge("mvtee_worker_heartbeat_age_seconds")
            assert wait_until(
                lambda: any(victim_id in labels for _, labels, _v in gauge.samples())
            )
            os.kill(cluster.worker(victim_id).pid, signal.SIGKILL)
            assert wait_until(
                lambda: metrics.counter("mvtee_worker_restarts_total").value(
                    variant=victim_id
                )
                == 1
            )
        finally:
            system.shutdown()


# ----------------------------------------------------------------------
# Shutdown hygiene (satellite: SIGKILL fallback + atexit sweep)
# ----------------------------------------------------------------------


class TestShutdownHygiene:
    def test_graceful_stop_exits_zero(self, small_resnet):
        system = deploy_cluster(small_resnet, mvx={})
        workers = list(system.cluster.workers().values())
        pids = [w.pid for w in workers]
        system.shutdown()
        assert all(not w.is_alive() for w in workers)
        assert all(w.exitcode == 0 for w in workers)
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # process is gone, not a zombie

    def test_wedged_worker_is_hard_killed(self, small_resnet, small_input):
        """A worker stuck in a long kernel ignores the stop request and
        is SIGTERM/SIGKILLed after the graceful timeout."""
        system = deploy_cluster(small_resnet, mvx={})
        worker = system.cluster.worker(
            next(v for v in system.cluster.workers() if v.startswith("p0-"))
        )
        worker.configure(simulated_latency=30.0, realtime_latency=True)

        # Wedge the worker: a real inference sleeps 30s inside the child
        # while holding the pipe, so stop() contends for the lock.
        def wedged_infer():
            with pytest.raises((MonitorError, WorkerCrashed, VariantUnavailable)):
                system.infer({"input": small_input})

        wedger = threading.Thread(target=wedged_infer, daemon=True)
        wedger.start()
        time.sleep(0.3)  # let the exchange reach the child's sleep
        start = time.monotonic()
        system.shutdown()
        assert time.monotonic() - start < 10.0
        assert not worker.is_alive()
        assert worker.exitcode != 0  # killed, not graceful
        wedger.join(timeout=10.0)

    def test_atexit_sweep_covers_live_supervisors(self, small_resnet):
        system = deploy_cluster(small_resnet, mvx={})
        assert system.cluster in _LIVE_SUPERVISORS
        workers = list(system.cluster.workers().values())
        # The sweep is global: shield other fixtures' supervisors so this
        # test only tears down its own deployment.
        others = set(_LIVE_SUPERVISORS) - {system.cluster}
        for other in others:
            _LIVE_SUPERVISORS.discard(other)
        try:
            _atexit_shutdown_all()  # what a crashed run's interpreter exit runs
        finally:
            for other in others:
                _LIVE_SUPERVISORS.add(other)
        assert all(not w.is_alive() for w in workers)
        assert system.cluster not in _LIVE_SUPERVISORS
        assert shm.tracked_segment_names() == set()
        system.cluster = None  # already torn down


# ----------------------------------------------------------------------
# Serving engine over the cluster
# ----------------------------------------------------------------------


class TestServingOverCluster:
    def test_engine_uses_cluster_dispatcher(self, cluster_system):
        # Every stage ends with a supervision tick, run on the
        # dispatching thread rather than a thread of its own.
        engine = cluster_system.serving_engine()
        assert engine._executor.after_stage == cluster_system.cluster.poll

    def test_engine_serves_over_workers(self, cluster_system, small_input):
        with cluster_system.serving_engine() as engine:
            tickets = [engine.submit({"input": small_input}) for _ in range(4)]
            results = [t.result(timeout=60.0) for t in tickets]
        assert all(r for r in results)

    def test_sigkill_mid_batch_with_overlapping_workers(
        self, small_resnet, small_input
    ):
        """SIGKILL a worker while num_workers>1 batches are in flight:
        the affected tickets fail with the typed monitor error, the
        supervisor refills the slot, and the engine keeps serving."""
        system = deploy_cluster(small_resnet)
        try:
            policy = ServingPolicy(capacity=64, max_batch_size=2, num_workers=2)
            with system.serving_engine(policy=policy) as engine:
                # Warm: the pipeline serves before the fault.
                assert engine.submit({"input": small_input}).result(timeout=60.0)
                victim = system.cluster.worker(
                    next(
                        v
                        for v in system.cluster.workers()
                        if v.startswith("p0-")
                    )
                )
                # Slow the doomed stage so batches are mid-flight when
                # the process dies.
                victim.configure(simulated_latency=0.2, realtime_latency=True)
                tickets = [engine.submit({"input": small_input}) for _ in range(6)]
                time.sleep(0.1)  # let the first batch reach the worker
                os.kill(victim.pid, signal.SIGKILL)
                outcomes = [t.exception(timeout=60.0) for t in tickets]
                failures = [e for e in outcomes if e is not None]
                # Typed failures only -- nothing hangs, nothing leaks an
                # untyped error to a caller.
                assert failures
                assert all(isinstance(e, MonitorError) for e in failures)
                # The supervisor restarts the dead worker...
                assert wait_until(lambda: system.cluster.live_worker_count() == 5)
                # ...and the same engine serves again, no restart of its own.
                fresh = engine.submit({"input": small_input})
                assert fresh.result(timeout=60.0)
                assert fresh.state is TicketState.DONE
        finally:
            system.shutdown()
