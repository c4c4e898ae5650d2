"""Load generation and latency reporting for the serving engine.

Two driving disciplines:

- :class:`ClosedLoopLoadGenerator` -- N client threads, each submitting
  one request and blocking on its ticket before the next (classic
  closed loop; offered load tracks service rate, so it measures
  achievable throughput and the latency distribution under it).
- :func:`open_loop_burst` -- fire a burst of submissions without
  waiting (open loop; offered load is independent of service rate, so
  it exercises admission control and load shedding).
- :class:`OpenLoopLoadGenerator` -- a *paced* background submitter
  (fixed offered rate, fire-and-record) keeping a timestamped outcome
  trace; the traffic harness chaos campaigns observe the SLO floor
  through.

All produce a :class:`LoadReport` with p50/p95/p99 latency, throughput
and shed rate -- the numbers the serving benchmark records.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.clock import Clock, as_clock
from repro.mvx.monitor import MonitorError
from repro.serving.engine import ServingEngine, Ticket
from repro.serving.errors import DeadlineExceeded, EngineStopped, Overloaded

__all__ = [
    "ClosedLoopLoadGenerator",
    "LoadReport",
    "OpenLoopLoadGenerator",
    "TrafficSample",
    "open_loop_burst",
    "percentile",
    "settle_burst",
]


def percentile(latencies_s: list[float], q: float) -> float:
    """The q-th percentile (0..100) of a latency sample; 0.0 if empty."""
    if not latencies_s:
        return 0.0
    return float(np.percentile(np.asarray(latencies_s, dtype=np.float64), q))


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    timed_out: int = 0
    #: Arrivals an open-loop generator skipped while stalled (not submitted).
    missed_arrivals: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions rejected by admission control."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies_s, 50)

    @property
    def p95_s(self) -> float:
        return percentile(self.latencies_s, 95)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 99)

    def to_json(self) -> dict:
        """Flat JSON payload for ``benchmarks/results``."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "missed_arrivals": self.missed_arrivals,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "shed_rate": self.shed_rate,
            "p50_ms": self.p50_s * 1e3,
            "p95_ms": self.p95_s * 1e3,
            "p99_ms": self.p99_s * 1e3,
        }


class ClosedLoopLoadGenerator:
    """N synchronous clients hammering one engine."""

    def __init__(
        self,
        engine: ServingEngine,
        feeds_factory: Callable[[int, int], dict[str, np.ndarray]],
        *,
        clients: int = 4,
        requests_per_client: int = 8,
        deadline_s: float | None = None,
    ):
        self.engine = engine
        self.feeds_factory = feeds_factory
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.deadline_s = deadline_s

    def run(self) -> LoadReport:
        """Drive every client to completion and aggregate the outcome."""
        report = LoadReport()
        lock = threading.Lock()

        def client(client_index: int) -> None:
            for request_index in range(self.requests_per_client):
                feeds = self.feeds_factory(client_index, request_index)
                start = time.monotonic()
                with lock:
                    report.submitted += 1
                try:
                    ticket = self.engine.submit(feeds, deadline_s=self.deadline_s)
                    ticket.result()
                except Overloaded:
                    with lock:
                        report.shed += 1
                    continue
                except DeadlineExceeded:
                    with lock:
                        report.timed_out += 1
                    continue
                except MonitorError:
                    with lock:
                        report.failed += 1
                    continue
                elapsed = time.monotonic() - start
                with lock:
                    report.completed += 1
                    report.latencies_s.append(elapsed)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
            for i in range(self.clients)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.wall_s = time.monotonic() - start
        return report


def open_loop_burst(
    engine: ServingEngine,
    feeds_list: list[dict[str, np.ndarray]],
    *,
    deadline_s: float | None = None,
) -> tuple[list[Ticket], LoadReport]:
    """Submit a burst without waiting; returns (admitted tickets, report).

    The report counts submissions and sheds at fire time;
    :func:`settle_burst` folds the admitted tickets' outcomes in once
    they finish.
    """
    report = LoadReport()
    tickets = []
    start = time.monotonic()
    for feeds in feeds_list:
        report.submitted += 1
        try:
            tickets.append(engine.submit(feeds, deadline_s=deadline_s))
        except Overloaded:
            report.shed += 1
    report.wall_s = time.monotonic() - start
    return tickets, report


def settle_burst(
    tickets: list[Ticket], report: LoadReport, *, timeout: float | None = None
) -> LoadReport:
    """Wait for a burst's admitted tickets and fold their outcomes in."""
    for ticket in tickets:
        error = ticket.exception(timeout)
        if error is None:
            report.completed += 1
        elif isinstance(error, DeadlineExceeded):
            report.timed_out += 1
        else:
            report.failed += 1
    return report


# ----------------------------------------------------------------------
# Paced open-loop driving (the chaos-campaign traffic harness)
# ----------------------------------------------------------------------

#: Outcome labels carried by :class:`TrafficSample`.
OUTCOME_OK = "ok"
OUTCOME_CORRUPT = "corrupt"
OUTCOME_FAILED = "failed"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_SHED = "shed"


@dataclass(frozen=True)
class TrafficSample:
    """One request's fate in an open-loop trace (timestamps on its clock).

    ``latency_s`` runs from the instant the request was due, not from
    its submission, so a stall of the generator counts against every
    request it delayed.
    """

    submitted_at: float
    finished_at: float
    outcome: str
    latency_s: float


class OpenLoopLoadGenerator:
    """Background submitter offering a fixed rate regardless of service rate.

    Every request's outcome lands in a timestamped trace, so a caller
    can correlate an *injection window* with exactly the requests that
    flew through it (:meth:`mark` / :meth:`samples_since`) and compute
    rolling percentiles for recovery tracking (:meth:`p99_since`).

    ``expect`` is an output acceptor: called with each completed
    result's outputs, returning False marks the sample ``corrupt`` --
    the silent-corruption net of a chaos campaign (a wrong answer
    *served to a client* with no detection is the one unforgivable
    outcome).

    ``clock`` runs the arrival schedule, the latency stamps and the
    stop/drain waits; pass the engine's clock (real time by default).
    """

    def __init__(
        self,
        engine: ServingEngine,
        feeds_factory: Callable[[int], dict[str, np.ndarray]],
        *,
        rate_rps: float = 50.0,
        deadline_s: float | None = None,
        expect: Callable[[dict[str, np.ndarray]], bool] | None = None,
        clock: Clock | Callable[[], float] | None = None,
    ):
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
        self.engine = engine
        self.feeds_factory = feeds_factory
        self.rate_rps = rate_rps
        self.deadline_s = deadline_s
        self.expect = expect
        self._clock = as_clock(clock)
        self._samples: list[TrafficSample] = []
        self._lock = threading.Lock()
        #: Admitted tickets whose outcome is not yet in the trace.
        self._unsettled = 0
        #: (trace length at the time, arrivals skipped) per stall.
        self._missed: list[tuple[int, int]] = []
        self._stop = self._clock.event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "OpenLoopLoadGenerator":
        """Begin submitting; idempotent while running."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = self._clock.spawn(self._run, name="openloop-loadgen")
        return self

    def stop(self, *, drain_s: float = 2.0) -> None:
        """Stop submitting and give in-flight tickets time to settle.

        Waits up to ``drain_s`` until the engine's queue is empty and
        every admitted ticket's outcome has landed in the trace.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            self._clock.join(thread, 5.0)
        self._thread = None
        deadline = self._clock.now() + drain_s
        while self._clock.now() < deadline:
            with self._lock:
                unsettled = self._unsettled
            if unsettled == 0 and getattr(self.engine, "queue_depth", 0) == 0:
                break
            self._clock.sleep(0.02)

    def __enter__(self) -> "OpenLoopLoadGenerator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission loop ------------------------------------------------

    def _run(self) -> None:
        period = 1.0 / self.rate_rps
        next_at = self._clock.now()
        sequence = 0
        while not self._stop.is_set():
            now = self._clock.now()
            if now < next_at:
                self._stop.wait(min(next_at - now, 0.05))
                continue
            due = next_at
            next_at += period
            # A long stall (engine quiesced, machine paged out) must not
            # turn into a catch-up burst that floods the queue: past 1 s
            # behind, the arrivals due since are counted as missed.
            if due < now - 1.0 and next_at <= now:
                skipped = int((now - next_at) // period) + 1
                next_at += skipped * period
                with self._lock:
                    self._missed.append((len(self._samples), skipped))
            feeds = self.feeds_factory(sequence)
            sequence += 1
            submitted = self._clock.now()
            try:
                ticket = self.engine.submit(feeds, deadline_s=self.deadline_s)
            except Overloaded:
                self._append(
                    TrafficSample(submitted, self._clock.now(), OUTCOME_SHED, 0.0)
                )
                continue
            except EngineStopped:
                return
            with self._lock:
                self._unsettled += 1
            ticket.add_done_callback(
                lambda t, _submitted=submitted, _due=due: self._settle(t, _submitted, _due)
            )

    def _settle(self, ticket: Ticket, submitted: float, due: float) -> None:
        finished = self._clock.now()
        try:
            result = ticket.result(0)
        except DeadlineExceeded:
            outcome = OUTCOME_TIMEOUT
        except Exception:
            outcome = OUTCOME_FAILED
        else:
            try:
                ok = self.expect is None or bool(self.expect(result))
            except Exception:
                ok = False
            outcome = OUTCOME_OK if ok else OUTCOME_CORRUPT
        with self._lock:
            self._unsettled -= 1
            self._samples.append(
                TrafficSample(submitted, finished, outcome, finished - due)
            )

    def _append(self, sample: TrafficSample) -> None:
        with self._lock:
            self._samples.append(sample)

    # -- trace access ---------------------------------------------------

    @property
    def missed_arrivals(self) -> int:
        """Arrivals never submitted because the generator fell over 1 s behind."""
        with self._lock:
            return sum(count for _, count in self._missed)

    def mark(self) -> int:
        """An opaque position in the trace; pass to ``*_since``."""
        with self._lock:
            return len(self._samples)

    def samples_since(
        self, mark: int = 0, *, outcome: str | None = None
    ) -> list[TrafficSample]:
        """Samples recorded after ``mark``, optionally one outcome only."""
        with self._lock:
            samples = self._samples[mark:]
        if outcome is not None:
            samples = [s for s in samples if s.outcome == outcome]
        return samples

    def counts_since(self, mark: int = 0) -> dict[str, int]:
        """Outcome histogram of the trace after ``mark``."""
        counts = {
            OUTCOME_OK: 0,
            OUTCOME_CORRUPT: 0,
            OUTCOME_FAILED: 0,
            OUTCOME_TIMEOUT: 0,
            OUTCOME_SHED: 0,
        }
        for sample in self.samples_since(mark):
            counts[sample.outcome] = counts.get(sample.outcome, 0) + 1
        return counts

    def p99_since(self, mark: int = 0, *, last: int | None = None) -> float | None:
        """p99 latency of completed-ok samples after ``mark``.

        ``last`` keeps only the most recent N such samples (a rolling
        recovery window).  None when no sample qualifies yet.
        """
        latencies = [
            s.latency_s for s in self.samples_since(mark, outcome=OUTCOME_OK)
        ]
        if last is not None:
            latencies = latencies[-last:]
        if not latencies:
            return None
        return percentile(latencies, 99)

    def report(self, mark: int = 0) -> LoadReport:
        """Fold the trace after ``mark`` into a :class:`LoadReport`."""
        samples = self.samples_since(mark)
        with self._lock:
            missed = sum(count for at, count in self._missed if at >= mark)
        report = LoadReport(submitted=len(samples), missed_arrivals=missed)
        for sample in samples:
            if sample.outcome in (OUTCOME_OK, OUTCOME_CORRUPT):
                report.completed += 1
                report.latencies_s.append(sample.latency_s)
            elif sample.outcome == OUTCOME_SHED:
                report.shed += 1
            elif sample.outcome == OUTCOME_TIMEOUT:
                report.timed_out += 1
            else:
                report.failed += 1
        if samples:
            report.wall_s = max(s.finished_at for s in samples) - min(
                s.submitted_at for s in samples
            )
        return report
