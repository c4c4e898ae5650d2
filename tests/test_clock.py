"""The clock seam: real-time defaults and the virtual-time contract.

A :class:`VirtualClock` advances only while no participant thread is
running, to the earliest pending wake-up; CPU work costs no virtual
time and every wake-up is a hand-off.  These tests pin that contract
down without a deployment.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro.clock import REAL_CLOCK, Clock, VirtualClock, as_clock
from repro.serving import OpenLoopLoadGenerator, Ticket, TicketState


def joined(clock, thread):
    clock.join(thread, timeout=60.0)
    assert not thread.is_alive()


class TestAsClock:
    def test_defaults_to_real_time(self):
        assert as_clock(None) is REAL_CLOCK
        assert not REAL_CLOCK.virtual

    def test_clock_passes_through(self):
        clock = VirtualClock()
        assert as_clock(clock) is clock

    def test_bare_callable_keeps_real_waits(self):
        clock = as_clock(lambda: 42.0)
        assert isinstance(clock, Clock) and not clock.virtual
        assert clock() == 42.0
        assert isinstance(clock.event(), threading.Event)

    def test_rejects_non_callables(self):
        with pytest.raises(TypeError):
            as_clock(3.0)


class TestVirtualClock:
    def test_lone_participant_sleep_jumps_time(self):
        clock = VirtualClock()
        with clock.participate():
            clock.sleep(2.5)
            assert clock.now() == 2.5

    def test_running_participant_holds_time_still(self):
        clock = VirtualClock()
        release = threading.Event()
        worked_until, woke_at = [], []

        def sleeper():
            clock.sleep(1.0)
            woke_at.append(clock.now())

        def worker():
            # Real-time blocking stands in for CPU work: it is not a
            # clock wait, so the participant keeps counting as running.
            release.wait(10.0)
            worked_until.append(clock.now())

        with clock.participate():
            threading.Timer(0.2, release.set).start()
            busy = clock.spawn(worker)
            napper = clock.spawn(sleeper)
            clock.sleep(0.5)  # cannot complete while ``worker`` runs
            assert clock.now() == 0.5
            joined(clock, busy)
            joined(clock, napper)
        assert worked_until == [0.0]
        assert woke_at == [1.0]

    def test_wakeups_fire_in_deadline_order(self):
        clock = VirtualClock()
        order = []
        lock = threading.Lock()

        def nap(seconds):
            clock.sleep(seconds)
            with lock:
                order.append((seconds, clock.now()))

        with clock.participate():
            threads = [clock.spawn(nap, s) for s in (0.3, 0.1, 0.2)]
            for thread in threads:
                joined(clock, thread)
        assert order == [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]

    def test_event_set_hands_off_without_time_passing(self):
        clock = VirtualClock()
        event = clock.event()
        seen = []

        def waiter():
            seen.append(event.wait(timeout=5.0))
            seen.append(clock.now())

        with clock.participate():
            thread = clock.spawn(waiter)
            clock.sleep(0.25)
            event.set()
            joined(clock, thread)
        assert seen == [True, 0.25]

    def test_event_wait_times_out_on_virtual_time(self):
        clock = VirtualClock()
        event = clock.event()
        with clock.participate():
            assert event.wait(timeout=3.0) is False
            assert clock.now() == 3.0

    def test_condition_timeout_and_notify(self):
        clock = VirtualClock()
        cond = clock.condition()
        results = []

        def consumer():
            with cond:
                results.append(cond.wait(0.5))  # times out
                results.append(cond.wait(10.0))  # notified at t=0.7
                results.append(clock.now())

        with clock.participate():
            thread = clock.spawn(consumer)
            clock.sleep(0.7)
            with cond:
                cond.notify()
            joined(clock, thread)
        assert results == [False, True, pytest.approx(0.7)]

    def test_submitted_task_result_times_out_in_virtual_time(self):
        clock = VirtualClock()
        with ThreadPoolExecutor(max_workers=2) as pool, clock.participate():
            slow = clock.submit(pool, lambda: clock.sleep(5.0) or "late")
            fast = clock.submit(pool, lambda: "now")
            assert fast.result(timeout=1.0) == "now"
            with pytest.raises(FutureTimeout):
                slow.result(timeout=1.0)
            assert clock.now() == 1.0
            assert slow.result() == "late"
            assert clock.now() == 5.0

    def test_locked_hands_the_lock_over_in_virtual_time(self):
        clock = VirtualClock()
        lock = threading.Lock()
        spans = []

        def holder(tag):
            with clock.locked(lock):
                start = clock.now()
                clock.sleep(0.1)
                spans.append((tag, start, clock.now()))

        with clock.participate():
            threads = [clock.spawn(holder, tag) for tag in ("a", "b")]
            for thread in threads:
                joined(clock, thread)
        # Serialised: the second holder starts when the first releases.
        (_, s1, e1), (_, s2, e2) = sorted(spans, key=lambda span: span[1])
        assert (s1, e1) == (0.0, pytest.approx(0.1))
        assert (s2, e2) == (pytest.approx(0.1), pytest.approx(0.2))

    def test_many_producers_and_consumers_lose_no_handoff(self):
        # More participants than cores, a tiny switch interval: a lost
        # wake-up or a miscounted participant shows up as a missing item,
        # a wrong final time, or a join that times out.
        clock = VirtualClock()
        cond = clock.condition()
        items, served, idled_out = [], [], []
        producers, per_producer = 8, 20

        def producer(k):
            for i in range(per_producer):
                clock.sleep(0.01 * (k + 1))
                with cond:
                    items.append((k, i))
                    cond.notify()

        def consumer():
            while True:
                with cond:
                    while not items:
                        if not cond.wait(1.0):
                            idled_out.append(clock.now())
                            return  # idle for a virtual second: done
                    item = items.pop(0)
                served.append(item)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with clock.participate():
                threads = [clock.spawn(producer, k) for k in range(producers)]
                threads += [clock.spawn(consumer) for _ in range(2)]
                for thread in threads:
                    joined(clock, thread)
        finally:
            sys.setswitchinterval(previous)
        expected = [(k, i) for k in range(producers) for i in range(per_producer)]
        assert sorted(served) == expected
        # The slowest producer ends at 20 x 0.08 s; the last consumer
        # then idles out one virtual second later.
        assert max(idled_out) == pytest.approx(per_producer * 0.08 + 1.0)


class _SlowEngine:
    """Admits every request; finishes each ``service_s`` later."""

    queue_depth = 0

    def __init__(self, clock, service_s):
        self.clock = clock
        self.service_s = service_s
        self.tickets = []

    def submit(self, feeds, *, deadline_s=None):
        ticket = Ticket(
            len(self.tickets), feeds, deadline=None, enqueued_at=self.clock.now(),
            clock=self.clock,
        )
        self.tickets.append(ticket)

        def serve():
            self.clock.sleep(self.service_s)
            ticket._finish(TicketState.DONE, result={})

        self.clock.spawn(serve)
        return ticket


class _StallingEngine(_SlowEngine):
    """A _SlowEngine whose ``stall_on``-th submit blocks for ``stall_s``."""

    def __init__(self, clock, service_s, *, stall_on, stall_s):
        super().__init__(clock, service_s)
        self.stall_on = stall_on
        self.stall_s = stall_s

    def submit(self, feeds, *, deadline_s=None):
        if len(self.tickets) == self.stall_on:
            self.clock.sleep(self.stall_s)
        return super().submit(feeds, deadline_s=deadline_s)


class TestOpenLoopStall:
    def test_stall_counts_missed_arrivals_and_times_from_due(self):
        # 4 rps: arrivals due every 0.25 s.  The third submit (due 0.5)
        # blocks until 2.5, so the arrival due at 0.75 is submitted at
        # 2.5 and the seven due at 1.0 .. 2.5 are skipped.
        clock = VirtualClock()
        engine = _StallingEngine(clock, service_s=0.05, stall_on=2, stall_s=2.0)
        loadgen = OpenLoopLoadGenerator(engine, lambda seq: {}, rate_rps=4.0, clock=clock)
        with clock.participate():
            loadgen.start()
            clock.sleep(3.1)
            loadgen.stop(drain_s=1.0)
        assert loadgen.missed_arrivals == 7
        report = loadgen.report()
        assert report.missed_arrivals == 7
        assert report.to_json()["missed_arrivals"] == 7
        assert loadgen.report(mark=loadgen.mark()).missed_arrivals == 0
        by_submission = {round(s.submitted_at, 6): s for s in loadgen.samples_since()}
        assert sorted(by_submission) == [0.0, 0.25, 0.5, 2.5, 2.75, 3.0]
        # Latency runs from the due instant, so the stall shows in both
        # the request that stalled and the one it delayed.
        assert by_submission[0.5].latency_s == pytest.approx(2.05)
        assert by_submission[2.5].latency_s == pytest.approx(2.5 + 0.05 - 0.75)
        assert by_submission[2.75].latency_s == pytest.approx(0.05)


class TestOpenLoopStop:
    def test_stop_waits_for_an_admitted_ticket(self):
        clock = VirtualClock()
        engine = _SlowEngine(clock, service_s=0.5)
        loadgen = OpenLoopLoadGenerator(
            engine, lambda seq: {}, rate_rps=1.0, clock=clock
        )
        with clock.participate():
            loadgen.start()
            clock.sleep(0.1)  # one request admitted at t=0, in service
            assert len(engine.tickets) == 1 and not engine.tickets[0].done()
            loadgen.stop(drain_s=2.0)
            stopped_at = clock.now()
        # The drain waited for the ticket instead of returning at once.
        assert stopped_at >= 0.5
        assert loadgen.counts_since()["ok"] == 1
        assert loadgen.samples_since()[0].latency_s == pytest.approx(0.5)

    def test_stop_gives_up_after_drain_s(self):
        clock = VirtualClock()
        engine = _SlowEngine(clock, service_s=30.0)
        loadgen = OpenLoopLoadGenerator(
            engine, lambda seq: {}, rate_rps=1.0, clock=clock
        )
        with clock.participate():
            loadgen.start()
            clock.sleep(0.1)
            loadgen.stop(drain_s=1.0)
            assert 1.1 <= clock.now() < 1.2
            assert loadgen.counts_since()["ok"] == 0
            clock.sleep(30.0)  # let the stub's server thread finish
