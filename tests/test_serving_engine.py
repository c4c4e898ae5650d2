"""The concurrent serving engine and the parallel stage executor."""

from __future__ import annotations

import collections
import threading
import time

import numpy as np
import pytest

from repro.clock import Clock, VirtualClock
from repro.mvx import (
    InferenceOptions,
    MonitorError,
    MvteeSystem,
    ResponseAction,
)
from repro.mvx.variant_host import INTERPRETER_LOCK, VariantHost
from repro.mvx.voting import VariantOutput
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import KIND_ENGINE_ERROR, FlightRecorder
from repro.observability.sinks import Sinks
from repro.runtime.faults import FaultInjector
from repro.tee.channel import SecureChannel
from repro.serving import (
    DeadlineExceeded,
    EngineStopped,
    Overloaded,
    ParallelStageExecutor,
    ServingEngine,
    ServingPolicy,
    TicketState,
    open_loop_burst,
    settle_burst,
)

SERVING_METRIC_NAMES = (
    "mvtee_queue_depth",
    "mvtee_queue_wait_seconds",
    "mvtee_batch_size",
    "mvtee_requests_shed_total",
    "mvtee_requests_timeout_total",
)


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
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


class TestServingEngine:
    def test_serves_and_matches_reference(self, system, small_resnet_reference):
        with system.serving_engine() as engine:
            tickets = [engine.submit(feeds_for(0)) for _ in range(3)]
            results = [t.result(timeout=30.0) for t in tickets]
        name = next(iter(small_resnet_reference))
        for result in results:
            assert np.allclose(result[name], small_resnet_reference[name], atol=1e-2)
        assert all(t.state is TicketState.DONE for t in tickets)

    def test_burst_is_shed_with_overloaded(self, system):
        engine = system.serving_engine(policy=ServingPolicy(capacity=4))
        # Not started: the queue fills deterministically, like a stalled worker.
        tickets, report = open_loop_burst(engine, [feeds_for(i) for i in range(20)])
        assert report.shed == 16
        assert len(tickets) == 4
        assert engine.queue_depth == 4  # bounded, not 20
        shed = engine.registry.counter("mvtee_requests_shed_total").total()
        assert shed == 16
        engine.start()
        settle_burst(tickets, report, timeout=30.0)
        engine.stop()
        assert report.completed == 4
        assert report.shed_rate == pytest.approx(16 / 20)

    def test_queued_past_deadline_times_out_without_executing(self, system):
        engine = system.serving_engine()
        ticket = engine.submit(feeds_for(0), deadline_s=0.001)
        time.sleep(0.01)  # expire while no worker is running
        engine.start()
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=30.0)
        engine.stop()
        assert ticket.state is TicketState.TIMED_OUT
        assert engine.registry.counter("mvtee_requests_timeout_total").total() == 1

    def test_detection_fails_the_batch(self, system):
        system.monitor.response_action = ResponseAction.HALT
        victim = system.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        with system.serving_engine() as engine:
            ticket = engine.submit(feeds_for(1))
            with pytest.raises(MonitorError):
                ticket.result(timeout=30.0)
        assert ticket.state is TicketState.FAILED
        assert engine.registry.counter("mvtee_requests_failed_total").total() == 1

    def test_submit_after_stop_raises(self, system):
        engine = system.serving_engine().start()
        engine.stop()
        with pytest.raises(EngineStopped):
            engine.submit(feeds_for(0))

    def test_malformed_feeds_rejected_at_submit(self, system):
        with system.serving_engine() as engine:
            with pytest.raises(ValueError):
                engine.submit({"wrong": np.zeros((1,), dtype=np.float32)})
        assert engine.queue_depth == 0  # never occupied a slot

    def test_stop_drains_admitted_requests(self, system):
        engine = system.serving_engine()
        tickets = [engine.submit(feeds_for(i)) for i in range(3)]
        engine.start()
        engine.stop()  # close + drain + join
        assert all(t.state is TicketState.DONE for t in tickets)

    def test_all_serving_metrics_exposed(self, system):
        engine = system.serving_engine(policy=ServingPolicy(capacity=2))
        # Exercise every instrument: a served request, a shed burst, a timeout.
        expired = engine.submit(feeds_for(0), deadline_s=0.0)
        ok = engine.submit(feeds_for(1))
        with pytest.raises(Overloaded):
            engine.submit(feeds_for(2))
        engine.start()
        assert ok.result(timeout=30.0)
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=30.0)
        engine.stop()
        exposition = engine.render_prometheus()
        for name in SERVING_METRIC_NAMES:
            assert name in exposition, f"{name} missing from exposition"
        assert "mvtee_requests_served_total 1" in exposition
        assert "mvtee_requests_shed_total 1" in exposition
        assert "mvtee_requests_timeout_total 1" in exposition

    def test_concurrent_submitters(self, system):
        with system.serving_engine(
            policy=ServingPolicy(capacity=128, max_batch_size=8)
        ) as engine:
            tickets: list = []
            lock = threading.Lock()

            def client(seed):
                for i in range(5):
                    ticket = engine.submit(feeds_for(seed * 10 + i))
                    with lock:
                        tickets.append(ticket)

            threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for ticket in tickets:
                ticket.result(timeout=30.0)
        assert len(tickets) == 20
        assert all(t.state is TicketState.DONE for t in tickets)


class _ProxySystem:
    """Duck-typed system wrapper: a real deployment behind a hook."""

    def __init__(self, system):
        self._system = system
        self.monitor = system.monitor

    def infer_batches(self, batches, options=None):
        return self._system.infer_batches(batches, options)


class _GatedSystem(_ProxySystem):
    """Rendezvous inside infer_batches: proves batches truly overlap."""

    def __init__(self, system, parties):
        super().__init__(system)
        self.barrier = threading.Barrier(parties)
        self.engine = None
        self.inflight_seen: list[float] = []
        self._lock = threading.Lock()

    def infer_batches(self, batches, options=None):
        # Blocks until `parties` batches are simultaneously in flight;
        # with fewer engine workers than parties this times out and the
        # batch fails, so a passing test is proof of overlap.
        self.barrier.wait(timeout=10.0)
        if self.engine is not None:
            with self._lock:
                self.inflight_seen.append(
                    self.engine.registry.gauge("mvtee_inflight_batches").value()
                )
        return super().infer_batches(batches, options)


class _BlockingSystem(_ProxySystem):
    """Holds every batch until released (a wedged pipeline stand-in)."""

    def __init__(self, system):
        super().__init__(system)
        self.entered = threading.Event()
        self.release = threading.Event()

    def infer_batches(self, batches, options=None):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return super().infer_batches(batches, options)


class _FlakyDispatcher(ParallelStageExecutor):
    """Raises an unexpected error on the first stage dispatch only."""

    def __init__(self):
        super().__init__(2)
        self._fired = False

    def dispatch(self, monitor, connections, batch_id, feeds, sinks, *, deadline=None):
        if not self._fired:
            self._fired = True
            raise RuntimeError("injected dispatcher fault")
        return super().dispatch(
            monitor, connections, batch_id, feeds, sinks, deadline=deadline
        )


class TestInflightOverlap:
    def test_num_workers_overlap_batches(self, system):
        gated = _GatedSystem(system, parties=2)
        engine = ServingEngine(
            gated, policy=ServingPolicy(max_batch_size=1, num_workers=2)
        )
        gated.engine = engine
        tickets = [engine.submit(feeds_for(i)) for i in range(2)]
        engine.start()
        for ticket in tickets:
            ticket.result(timeout=30.0)
        engine.stop()
        assert all(t.state is TicketState.DONE for t in tickets)
        # Both workers were inside infer_batches at the rendezvous.
        assert max(gated.inflight_seen) == 2

    def test_ordered_equivalence_across_worker_counts(self, system):
        inputs = [feeds_for(i) for i in range(12)]

        def serve(num_workers):
            policy = ServingPolicy(
                capacity=64, max_batch_size=2, num_workers=num_workers
            )
            with system.serving_engine(policy=policy) as engine:
                tickets = [engine.submit(dict(feeds)) for feeds in inputs]
                return [t.result(timeout=60.0) for t in tickets]

        serial = serve(1)
        overlapped = serve(4)
        assert len(serial) == len(overlapped) == len(inputs)
        for reference, result in zip(serial, overlapped):
            assert set(reference) == set(result)
            for name in reference:
                # Bit-identical per ticket, not merely close: overlap
                # must not change what any caller receives.
                assert np.array_equal(reference[name], result[name])

    def test_inflight_metrics_preregistered(self, system):
        engine = system.serving_engine()
        exposition = engine.render_prometheus()
        assert "mvtee_inflight_batches" in exposition
        assert "mvtee_batch_queue_stall_seconds" in exposition


class TestWorkerFaultContainment:
    def test_unexpected_error_fails_batch_but_worker_survives(self, system):
        recorder = FlightRecorder()
        engine = system.serving_engine(
            policy=ServingPolicy(max_batch_size=8, num_workers=1),
            sinks=Sinks(recorder=recorder),
        )
        engine._executor = _FlakyDispatcher()
        with engine:
            doomed = engine.submit(feeds_for(0))
            with pytest.raises(RuntimeError, match="injected dispatcher fault"):
                doomed.result(timeout=30.0)
            assert doomed.state is TicketState.FAILED
            # The worker thread survived the unexpected error and the
            # very next batch serves normally.
            healthy = engine.submit(feeds_for(1))
            assert healthy.result(timeout=30.0)
        assert healthy.state is TicketState.DONE
        assert engine.registry.counter("mvtee_requests_failed_total").total() == 1
        events = recorder.events(KIND_ENGINE_ERROR)
        assert len(events) == 1
        assert events[0].data["error"] == "RuntimeError"

    def test_deadline_applies_to_single_variant_stage(self, system):
        # Partition 0 is single-variant: before routing the fast path
        # through the dispatcher its stage ignored the batch deadline.
        for connection in system.monitor.stage_connections(0):
            connection.host.simulated_latency = 0.2
            connection.host.realtime_latency = True
        with system.serving_engine() as engine:
            ticket = engine.submit(feeds_for(0), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=30.0)
        assert ticket.state is TicketState.TIMED_OUT


class TestStopLifecycle:
    def test_stop_without_start_fails_queued_tickets(self, system):
        engine = system.serving_engine()
        tickets = [engine.submit(feeds_for(i)) for i in range(3)]
        engine.stop()
        for ticket in tickets:
            with pytest.raises(EngineStopped):
                ticket.result(timeout=1.0)
        assert all(t.state is TicketState.FAILED for t in tickets)
        assert engine.registry.counter("mvtee_requests_failed_total").total() == 3

    def test_stop_join_timeout_keeps_worker_handle(self, system):
        blocking = _BlockingSystem(system)
        engine = ServingEngine(
            blocking, policy=ServingPolicy(max_batch_size=8, num_workers=1)
        )
        ticket = engine.submit(feeds_for(0))
        engine.start()
        assert blocking.entered.wait(timeout=10.0)
        engine.stop(timeout=0.05)  # worker is wedged inside the batch
        assert engine._workers, "wedged worker handle must be kept for re-join"
        blocking.release.set()
        assert ticket.result(timeout=30.0)
        engine.stop(timeout=10.0)
        assert not engine._workers
        assert ticket.state is TicketState.DONE


class _StubHost:
    def __init__(self, crashed=False):
        self.crashed = crashed


class _StubConnection:
    def __init__(self, variant_id, partition_index=1, crashed=False):
        self.variant_id = variant_id
        self.partition_index = partition_index
        self.host = _StubHost(crashed)


class _StubMonitor:
    """Duck-typed monitor: scripted per-variant outcomes, thread-safe log."""

    def __init__(self, scripts: dict[str, list], delay_s: float = 0.0):
        # scripts: variant_id -> list of outputs-or-None popped per call.
        self.scripts = scripts
        self.delay_s = delay_s
        self.sinks = Sinks(metrics=MetricsRegistry())
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def request_inference(self, connection, batch_id, feeds, sinks):
        with self._lock:
            self.calls.append(connection.variant_id)
            outcome = self.scripts[connection.variant_id].pop(0)
        if self.delay_s:
            time.sleep(self.delay_s)
        if outcome is None:
            return VariantOutput(
                variant_id=connection.variant_id, outputs=None, error="transient glitch"
            )
        return VariantOutput(variant_id=connection.variant_id, outputs=outcome)


class TestParallelStageExecutor:
    def test_results_keep_connection_order(self):
        outputs = {v: {"t": np.full((1,), i, dtype=np.float32)} for i, v in enumerate("abc")}
        monitor = _StubMonitor({v: [outputs[v]] for v in "abc"})
        connections = [_StubConnection(v) for v in "abc"]
        with ParallelStageExecutor(4) as executor:
            results = executor.dispatch(monitor, connections, 0, {}, monitor.sinks)
        assert [r.variant_id for r in results] == ["a", "b", "c"]

    def test_transient_fault_retried_once(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [None, good]})
        connections = [_StubConnection("a"), _StubConnection("b")]
        with ParallelStageExecutor(4) as executor:
            results = executor.dispatch(monitor, connections, 0, {}, monitor.sinks)
        assert all(r.outputs is not None for r in results)
        assert monitor.calls.count("b") == 2  # failed once, retried once
        retries = monitor.sinks.metrics.counter("mvtee_dispatch_retries_total")
        assert retries.total() == 1

    def test_crashed_host_not_retried(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [None]})
        connections = [_StubConnection("a"), _StubConnection("b", crashed=True)]
        with ParallelStageExecutor(4) as executor:
            results = executor.dispatch(monitor, connections, 0, {}, monitor.sinks)
        assert results[1].outputs is None
        assert monitor.calls.count("b") == 1

    def test_deadline_enforced(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [good]}, delay_s=0.2)
        connections = [_StubConnection("a"), _StubConnection("b")]
        with ParallelStageExecutor(4) as executor:
            with pytest.raises(DeadlineExceeded):
                executor.dispatch(
                    monitor,
                    connections,
                    0,
                    {},
                    monitor.sinks,
                    deadline=time.monotonic() + 0.02,
                )

    def test_missed_deadline_cancels_unstarted_replicas(self):
        class RecordingClock(Clock):
            def __init__(self):
                self.futures = []

            def submit(self, pool, fn, *args):
                future = super().submit(pool, fn, *args)
                self.futures.append(future)
                return future

        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({v: [good] for v in "abc"}, delay_s=0.2)
        connections = [_StubConnection(v) for v in "abc"]
        clock = RecordingClock()
        executor = ParallelStageExecutor(1, clock=clock)
        try:
            with pytest.raises(DeadlineExceeded):
                executor.dispatch(
                    monitor,
                    connections,
                    0,
                    {},
                    monitor.sinks,
                    deadline=time.monotonic() + 0.02,
                )
            # The one pool thread runs tasks in order: once a sentinel
            # submitted now has run, every replica request still queued
            # would have run before it.
            executor._pool.submit(lambda: None).result(timeout=5.0)
        finally:
            executor.shutdown()
        assert [f.cancelled() for f in clock.futures] == [False, True, True]
        assert monitor.calls == ["a"]

    def test_after_stage_errors_are_counted_and_recorded(self):
        def broken_poll():
            raise RuntimeError("supervisor tick failed")

        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good]})
        sinks = Sinks(metrics=MetricsRegistry(), recorder=FlightRecorder())
        with ParallelStageExecutor(2, after_stage=broken_poll) as executor:
            results = executor.dispatch(monitor, [_StubConnection("a")], 7, {}, sinks)
        assert results[0].outputs is not None
        errors = sinks.metrics.counter("mvtee_after_stage_errors_total")
        assert errors.value(partition=1) == 1
        (event,) = sinks.recorder.events(KIND_ENGINE_ERROR)
        assert event.data["error"] == "RuntimeError"
        assert event.data["batch"] == 7

    def test_single_connection_stays_serial(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good]})
        with ParallelStageExecutor(4) as executor:
            results = executor.dispatch(monitor, [_StubConnection("a")], 0, {}, monitor.sinks)
        assert results[0].outputs is not None

    def test_single_connection_deadline_enforced(self):
        # Regression: the 1-connection fast path used to bypass the
        # deadline entirely and run the slow variant to completion.
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good]}, delay_s=0.2)
        with ParallelStageExecutor(2) as executor:
            with pytest.raises(DeadlineExceeded):
                executor.dispatch(
                    monitor,
                    [_StubConnection("a")],
                    0,
                    {},
                    monitor.sinks,
                    deadline=time.monotonic() + 0.02,
                )

    def test_bound_dispatcher_carries_deadline_without_shared_state(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _StubMonitor({"a": [good], "b": [good]}, delay_s=0.2)
        connections = [_StubConnection("a"), _StubConnection("b")]
        with ParallelStageExecutor(4) as executor:
            bound = executor.bind(time.monotonic() + 0.02)
            with pytest.raises(DeadlineExceeded):
                bound.dispatch(monitor, connections, 0, {}, monitor.sinks)
            assert not hasattr(executor, "deadline")  # no shared deadline state

    def test_dispatcher_threads_run_concurrently(self, system):
        # Three replicas sleeping 30ms each: serial floor is 90ms, the
        # parallel run waits only for the slowest.  On virtual time only
        # the sleeps count, so CPU contention cannot blur the margin.
        clock = VirtualClock()
        for connection in system.monitor.stage_connections(1):
            connection.host.simulated_latency = 0.03
            connection.host.realtime_latency = True
            connection.host.clock = clock
        with clock.participate():
            with ParallelStageExecutor(4, clock=clock) as executor:
                options = InferenceOptions(dispatcher=executor)
                start = clock.now()
                system.infer_batches([feeds_for(0)], options)
                parallel_s = clock.now() - start
            start = clock.now()
            system.infer_batches([feeds_for(0)])
            serial_s = clock.now() - start
        assert serial_s == pytest.approx(0.09)
        assert parallel_s == pytest.approx(0.03)


class _InlineConnection(_StubConnection):
    """A stand-in whose round trip runs in this interpreter."""

    waits = False


class _WaitingConnection(_StubConnection):
    waits = True


class _ThreadLog(_StubMonitor):
    """Records which thread ran each round trip."""

    def __init__(self, scripts, advance=None):
        super().__init__(scripts)
        self.threads: dict[str, str] = {}
        self.advance = advance

    def request_inference(self, connection, batch_id, feeds, sinks):
        self.threads[connection.variant_id] = threading.current_thread().name
        if self.advance is not None:
            self.advance()
        return super().request_inference(connection, batch_id, feeds, sinks)


class _ConcurrencyProbe:
    """The most threads seen inside each wrapped callable at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = collections.Counter()
        self.peak = collections.Counter()

    def wrap(self, name, fn):
        def probed(*args, **kwargs):
            with self._lock:
                self._inside[name] += 1
                self.peak[name] = max(self.peak[name], self._inside[name])
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._inside[name] -= 1

        return probed


class TestInlineDispatch:
    def test_waiting_round_trips_pool_the_others_run_inline(self):
        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _ThreadLog({v: [good] for v in "abcd"})
        connections = [
            _InlineConnection("a"),
            _WaitingConnection("b"),
            _StubConnection("c"),  # cannot be classified: pooled
            _InlineConnection("d"),
        ]
        with ParallelStageExecutor(4) as executor:
            results = executor.dispatch(monitor, connections, 0, {}, monitor.sinks)
        assert [r.variant_id for r in results] == ["a", "b", "c", "d"]
        here = threading.current_thread().name
        assert monitor.threads["a"] == monitor.threads["d"] == here
        assert monitor.threads["b"].startswith("mvtee-variant")
        assert monitor.threads["c"].startswith("mvtee-variant")

    def test_deadline_passing_in_an_inline_replica_stops_the_next(self):
        now = [0.0]

        def outlast_the_deadline():
            now[0] += 1.0

        good = {"t": np.ones((1,), dtype=np.float32)}
        monitor = _ThreadLog({v: [good] for v in "ab"}, advance=outlast_the_deadline)
        connections = [_InlineConnection("a"), _InlineConnection("b")]
        with ParallelStageExecutor(2, clock=lambda: now[0]) as executor:
            with pytest.raises(DeadlineExceeded, match="variant b"):
                executor.dispatch(
                    monitor, connections, 0, {}, monitor.sinks, deadline=0.5
                )
        assert monitor.calls == ["a"]

    def test_engine_burst_runs_one_round_trip_at_a_time(self, system, monkeypatch):
        probe = _ConcurrencyProbe()
        monkeypatch.setattr(
            VariantHost, "handle_record", probe.wrap("handle_record", VariantHost.handle_record)
        )
        monkeypatch.setattr(
            SecureChannel, "protect", probe.wrap("protect", SecureChannel.protect)
        )
        with system.serving_engine(policy=ServingPolicy(num_workers=2)) as engine:
            tickets, burst = open_loop_burst(engine, [feeds_for(s) for s in range(20)])
            settle_burst(tickets, burst, timeout=120.0)
        assert burst.completed == 20
        assert probe.peak["handle_record"] == 1
        assert probe.peak["protect"] == 1

    def test_released_lets_another_thread_hold_the_lock(self):
        clock = Clock()
        entered = threading.Event()

        def other():
            with INTERPRETER_LOCK.held(clock):
                entered.set()

        with INTERPRETER_LOCK.released():  # not held: nothing to give up
            pass
        with INTERPRETER_LOCK.held(clock):
            thread = threading.Thread(target=other)
            thread.start()
            assert not entered.wait(0.05)
            with INTERPRETER_LOCK.released():
                assert entered.wait(5.0)
            thread.join(5.0)
        assert not thread.is_alive()


class TestServingPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"capacity": -1},
            {"max_batch_size": 0},
            {"max_wait_s": -0.001},
            {"max_workers": 0},
            {"num_workers": 0},
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            ServingPolicy(**kwargs)

    def test_boundary_values_accepted(self):
        policy = ServingPolicy(
            capacity=1, max_batch_size=1, max_wait_s=0.0, max_workers=1,
            num_workers=1,
        )
        assert policy.capacity == 1


class TestResizeAndQuiesce:
    def test_resize_up_spawns_workers_and_updates_gauge(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=1)
        ).start()
        try:
            assert engine.num_workers == 1
            engine.resize(3)
            assert engine.num_workers == 3
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                alive = sum(w.is_alive() for w in engine._workers.values())
                if alive == 3:
                    break
                time.sleep(0.01)
            assert sum(w.is_alive() for w in engine._workers.values()) == 3
            assert engine.registry.gauge("mvtee_engine_workers").value() == 3
            assert engine.submit(feeds_for(0)).result(timeout=30.0)
        finally:
            engine.stop()

    def test_resize_down_retires_extra_workers(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=3)
        ).start()
        try:
            engine.resize(1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                alive = sum(w.is_alive() for w in engine._workers.values())
                if alive == 1:
                    break
                time.sleep(0.01)
            assert sum(w.is_alive() for w in engine._workers.values()) == 1
            # The surviving worker still serves.
            assert engine.submit(feeds_for(1)).result(timeout=30.0)
        finally:
            engine.stop()

    def test_resize_validates_and_refuses_after_stop(self, system):
        engine = system.serving_engine()
        with pytest.raises(ValueError, match="num_workers"):
            engine.resize(0)
        engine.stop()
        with pytest.raises(EngineStopped):
            engine.resize(2)

    def test_quiesce_drains_inflight_and_holds_admission_open(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(max_batch_size=1, num_workers=2)
        ).start()
        try:
            before = engine.submit(feeds_for(0))
            assert before.result(timeout=30.0)
            with engine.quiesce(timeout=30.0):
                # Nothing is in flight; submissions queue but do not run.
                queued = engine.submit(feeds_for(1))
                time.sleep(0.15)
                assert not queued.done()
                assert engine.queue_depth >= 1
            # Released: the queued request now executes normally.
            assert queued.result(timeout=30.0)
            assert queued.state is TicketState.DONE
        finally:
            engine.stop()

    def test_quiesce_times_out_when_batch_is_wedged(self, system):
        blocking = _BlockingSystem(system)
        engine = ServingEngine(
            blocking, policy=ServingPolicy(max_batch_size=8, num_workers=1)
        )
        ticket = engine.submit(feeds_for(0))
        engine.start()
        try:
            assert blocking.entered.wait(timeout=10.0)
            with pytest.raises(TimeoutError, match="quiesce"):
                with engine.quiesce(timeout=0.1):
                    pass
            blocking.release.set()
            assert ticket.result(timeout=30.0)
            # The failed quiesce left the engine unpaused.
            assert engine.submit(feeds_for(1)).result(timeout=30.0)
        finally:
            engine.stop()

    def test_stop_wakes_a_paused_engine_and_drains(self, system):
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=2)
        ).start()
        with engine.quiesce(timeout=10.0):
            pending = engine.submit(feeds_for(0))
            # Stop overrides the pause: workers wake, drain the admitted
            # request, and exit -- nothing deadlocks, nothing is lost.
            engine.stop(timeout=10.0)
        assert not engine._workers
        assert pending.state is TicketState.DONE
