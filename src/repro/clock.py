"""Injectable time: one seam for ``now``, sleeps and timed waits.

Everything on the serving request path that reads the time or waits
for it takes a ``clock=``.  Two implementations:

- :data:`REAL_CLOCK` (:class:`Clock`) -- ``time.monotonic``, real
  sleeps, plain ``threading`` primitives.  The default everywhere; with
  no clock passed, behaviour and timing are exactly those of the
  standard library.
- :class:`VirtualClock` -- simulated time for deterministic tests.

A clock is callable (``clock()`` is ``clock.now()``), so it drops in
wherever a bare ``Callable[[], float]`` was accepted; :func:`as_clock`
wraps such a callable (a test's fake clock) into a clock whose waits
stay real.

Virtual-time contract
---------------------

A :class:`VirtualClock` counts *participants*: threads doing request
work.  A thread participates inside :meth:`Clock.participate`, for the
whole body of a thread started by :meth:`Clock.spawn`, and for the
whole body of a task started by :meth:`Clock.submit`; the spawner or
submitter takes the participation *before* the thread or task starts,
so no gap opens in which time could slip.  A participant stops
counting only while it is parked in one of the clock's waits
(:meth:`~Clock.sleep`, a :meth:`~Clock.condition` / :meth:`~Clock.event`
wait, a :meth:`~Clock.locked` acquire, a :meth:`~Clock.join`).

Virtual time advances -- to the earliest pending wake-up, never
further -- only when no participant is running.  Work that holds the
CPU therefore costs no virtual time; only explicit sleeps and timed
waits do, so a run's virtual timeline does not depend on how fast the
host is.  Waking is a hand-off: a notify, ``set()`` or lock release
counts the woken thread as running before the notifier can park, so
time cannot advance between a signal and its receipt.

Two rules keep a virtual run from stalling:

- a participant must block only through the clock (a plain
  ``threading`` wait that needs virtual time to pass never returns,
  because the blocked thread still counts as running);
- a pool given to :meth:`Clock.submit` needs a free thread for every
  task submitted at once: a task queued behind a saturated pool counts
  as running but cannot run.

Forked worker processes cannot share a virtual clock; virtual time is
for in-process deployments only.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import itertools
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable

__all__ = ["REAL_CLOCK", "Clock", "VirtualClock", "as_clock"]


class Clock:
    """Real monotonic time; every method is the standard-library call."""

    #: True for simulated time (see :class:`VirtualClock`).
    virtual = False

    def now(self) -> float:
        """The current time in seconds."""
        return time.monotonic()

    def __call__(self) -> float:
        return self.now()

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds``."""
        if seconds > 0:
            time.sleep(seconds)

    def condition(self, lock=None) -> threading.Condition:
        """A condition variable whose timed waits run on this clock."""
        return threading.Condition(lock)

    def event(self) -> threading.Event:
        """An event whose timed waits run on this clock."""
        return threading.Event()

    def locked(self, lock):
        """A context manager holding ``lock``; blocking is on this clock."""
        return lock

    def participate(self):
        """A context in which the current thread counts as doing work."""
        return contextlib.nullcontext()

    def spawn(self, target: Callable, *args, name: str | None = None) -> threading.Thread:
        """Start a daemon thread running ``target(*args)`` as a participant."""
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        thread.start()
        return thread

    def submit(self, pool, fn: Callable, *args):
        """Submit ``fn(*args)`` to a thread pool as a participant task.

        Returns a future whose ``result(timeout)`` waits on this clock
        and raises ``concurrent.futures.TimeoutError`` on expiry.
        """
        return pool.submit(fn, *args)

    def join(self, thread: threading.Thread, timeout: float | None = None) -> None:
        """Wait for ``thread`` to exit, at most ``timeout`` seconds."""
        thread.join(timeout)


class _CallableClock(Clock):
    """A bare ``() -> float`` callable as the time source; waits stay real."""

    def __init__(self, fn: Callable[[], float]):
        self._fn = fn

    def now(self) -> float:
        return self._fn()


#: The default clock: ``time.monotonic`` and real waits.
REAL_CLOCK = Clock()


def as_clock(clock) -> Clock:
    """Normalise a ``clock=`` argument (None, a :class:`Clock`, a callable)."""
    if clock is None or clock is time.monotonic:
        return REAL_CLOCK
    if isinstance(clock, Clock):
        return clock
    if callable(clock):
        return _CallableClock(clock)
    raise TypeError(f"clock must be a Clock or a callable, got {clock!r}")


# ----------------------------------------------------------------------
# Virtual time
# ----------------------------------------------------------------------


class _Waiter:
    """One parked thread: woken by a notify or by its virtual deadline."""

    __slots__ = ("counted", "resolved", "notified", "_gate")

    def __init__(self, counted: bool):
        #: The parked thread was a running participant (re-counted on wake).
        self.counted = counted
        self.resolved = False
        self.notified = False
        self._gate = threading.Lock()
        self._gate.acquire()

    def block(self) -> None:
        self._gate.acquire()


class _VirtualCondition(threading.Condition):
    """``threading.Condition`` whose waits park on a :class:`VirtualClock`."""

    def __init__(self, clock: "VirtualClock", lock=None):
        super().__init__(lock)
        self._clock = clock
        self._parked: collections.deque[_Waiter] = collections.deque()

    def wait(self, timeout: float | None = None) -> bool:
        if not self._is_owned():
            raise RuntimeError("cannot wait on un-acquired lock")
        waiter = self._clock._park(timeout)
        self._parked.append(waiter)
        saved = self._release_save()
        try:
            waiter.block()
        finally:
            self._acquire_restore(saved)
            with contextlib.suppress(ValueError):
                self._parked.remove(waiter)
        return waiter.notified

    def wait_for(self, predicate, timeout: float | None = None):
        end = None if timeout is None else self._clock.now() + timeout
        result = predicate()
        while not result:
            remaining = None if end is None else end - self._clock.now()
            if remaining is not None and remaining <= 0:
                break
            self.wait(remaining)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        if not self._is_owned():
            raise RuntimeError("cannot notify on un-acquired lock")
        woken = 0
        while self._parked and woken < n:
            if self._clock._wake(self._parked.popleft()):
                woken += 1

    def notify_all(self) -> None:
        self.notify(len(self._parked))


class _VirtualEvent:
    """``threading.Event`` over a :class:`_VirtualCondition`."""

    def __init__(self, clock: "VirtualClock"):
        self._cond = _VirtualCondition(clock, threading.Lock())
        self._flag = False

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        with self._cond:
            self._flag = True
            self._cond.notify_all()

    def clear(self) -> None:
        with self._cond:
            self._flag = False

    def wait(self, timeout: float | None = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._flag, timeout)


class _VirtualMutex:
    """A hand-off mutex: a release counts the next acquirer as running."""

    def __init__(self, clock: "VirtualClock"):
        self._cond = _VirtualCondition(clock, threading.Lock())
        self._held = False

    def __enter__(self):
        with self._cond:
            while self._held:
                self._cond.wait()
            self._held = True
        return self

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._held = False
            self._cond.notify()


class _VirtualTask:
    """A submitted task's future, waited on in virtual time."""

    def __init__(self, future, done: _VirtualEvent):
        self._future = future
        self._done = done

    def result(self, timeout: float | None = None):
        if not self._done.wait(timeout):
            raise FutureTimeout()
        # The task body set ``done`` as its last step; the pool sets the
        # future's result right after, without needing virtual time.
        return self._future.result()


class VirtualClock(Clock):
    """Simulated time that advances only while no participant is running.

    Starts at 0.0; see the module docstring for the contract.
    """

    virtual = True

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()
        self._running = 0
        self._timers: list[tuple[float, int, _Waiter]] = []
        self._seq = itertools.count()
        self._tls = threading.local()
        #: Hand-off mutexes standing in for plain locks under ``locked``.
        self._mutexes: dict[int, tuple[object, _VirtualMutex]] = {}

    def now(self) -> float:
        return self._now

    # -- participation --------------------------------------------------

    def _depth(self) -> int:
        return getattr(self._tls, "depth", 0)

    def _hold(self) -> None:
        """Count one more running participant (on behalf of a new one)."""
        with self._lock:
            self._running += 1

    def _release(self) -> None:
        with self._lock:
            self._running -= 1
            self._advance()

    def _run_held(self, fn: Callable, args: tuple, done: _VirtualEvent | None = None):
        """Body of a spawned thread / submitted task: adopt the hold."""
        self._tls.depth = 1
        try:
            return fn(*args)
        finally:
            if done is not None:
                done.set()
            self._tls.depth = 0
            self._release()

    @contextlib.contextmanager
    def participate(self):
        depth = self._depth()
        if depth == 0:
            self._hold()
        self._tls.depth = depth + 1
        try:
            yield self
        finally:
            self._tls.depth = depth
            if depth == 0:
                self._release()

    def spawn(self, target: Callable, *args, name: str | None = None) -> threading.Thread:
        self._hold()
        thread = threading.Thread(
            target=self._run_held, args=(target, args), name=name, daemon=True
        )
        try:
            thread.start()
        except BaseException:
            self._release()
            raise
        return thread

    def submit(self, pool, fn: Callable, *args) -> _VirtualTask:
        done = _VirtualEvent(self)
        self._hold()
        try:
            future = pool.submit(self._run_held, fn, args, done)
        except BaseException:
            self._release()
            raise
        return _VirtualTask(future, done)

    # -- parking --------------------------------------------------------

    def _park(self, timeout: float | None) -> _Waiter:
        """Register the calling thread as parked; the caller then blocks."""
        counted = self._depth() > 0
        with self._lock:
            deadline = None if timeout is None else self._now + max(0.0, timeout)
            waiter = _Waiter(counted)
            if deadline is not None and deadline <= self._now:
                waiter.resolved = True
                waiter._gate.release()
                return waiter
            if deadline is not None:
                heapq.heappush(self._timers, (deadline, next(self._seq), waiter))
            if counted:
                self._running -= 1
            self._advance()
        return waiter

    def _wake(self, waiter: _Waiter) -> bool:
        """Notify one parked waiter; False if it had already woken."""
        with self._lock:
            return self._resolve(waiter, notified=True)

    def _resolve(self, waiter: _Waiter, *, notified: bool) -> bool:
        if waiter.resolved:
            return False
        waiter.resolved = True
        waiter.notified = notified
        if waiter.counted:
            self._running += 1
        waiter._gate.release()
        return True

    def _advance(self) -> None:
        """With nobody running, jump to the earliest deadline and wake it."""
        while self._running == 0 and self._timers:
            deadline, _, waiter = self._timers[0]
            if waiter.resolved:
                heapq.heappop(self._timers)
                continue
            self._now = max(self._now, deadline)
            while self._timers and self._timers[0][0] <= self._now:
                _, _, due = heapq.heappop(self._timers)
                self._resolve(due, notified=False)

    # -- waits ----------------------------------------------------------

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._park(seconds).block()

    def condition(self, lock=None) -> _VirtualCondition:
        return _VirtualCondition(self, lock)

    def event(self) -> _VirtualEvent:
        return _VirtualEvent(self)

    @contextlib.contextmanager
    def locked(self, lock):
        # Participants queue on a hand-off mutex; the real lock is still
        # taken so callers outside the clock stay mutually excluded.
        # The entry keeps ``lock`` alive, so its id cannot be reused.
        with self._lock:
            entry = self._mutexes.get(id(lock))
            if entry is None:
                entry = self._mutexes[id(lock)] = (lock, _VirtualMutex(self))
        with entry[1]:
            with lock:
                yield

    def join(self, thread: threading.Thread, timeout: float | None = None) -> None:
        end = None if timeout is None else self._now + timeout
        while thread.is_alive():
            remaining = None if end is None else end - self._now
            if remaining is not None and remaining <= 0:
                return
            self.sleep(0.01 if remaining is None else min(0.01, remaining))
