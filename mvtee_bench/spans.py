"""Spans around calls into the program's layers, for the traced run.

:func:`install` replaces public functions and methods of the ``repro``
layers with timing wrappers; :meth:`SpanRecorder.remove` puts the
originals back.  Each span records its name, start, end, parent span,
thread and the batch or request it served.  Parents follow the calling
context, and the context travels with work handed to a thread pool, so
a round trip run on a dispatcher pool thread is a child of the
``dispatch`` that submitted it.  Spans stay in memory until
:meth:`SpanRecorder.write` dumps them as JSON lines.

Only the benchmark process records: a forked variant worker inherits
the wrappers but calls straight through them.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np


__all__ = ["Span", "SpanRecorder", "covered", "install", "layer_metrics", "self_time"]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


class Span:
    """One timed call."""

    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "served", "nbytes", "link")

    def __init__(self, sid: int, name: str, parent: "Span | None", served=None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.served = served
        self.nbytes = 0
        #: Request spans: the ``infer_batches`` span that carried the request.
        self.link: Span | None = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        # A span that names no batch or request served its nearest
        # ancestor's.
        owner = self
        while owner is not None and owner.served is None:
            owner = owner.parent
        doc = {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else self.parent.sid,
            "thread": self.thread,
            "served": None if owner is None else owner.served,
        }
        if self.nbytes:
            doc["bytes"] = self.nbytes
        if self.link is not None:
            doc["batch_span"] = self.link.sid
        return doc


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part its children's union covers."""
    return span.duration - covered(span.start, span.end, [(c.start, c.end) for c in children])


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests: list[Span] = []
        #: Start of the measured window (spans before it are set-up).
        self.since = 0.0
        self._pending: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name: str, *, served=None, nbytes_arg: int | None = None, on_enter=None):
        """A wrapper of ``fn`` that records one ``name`` span per call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            span = Span(
                next(recorder._ids),
                name,
                _CURRENT.get(),
                None if served is None else served(args, kwargs),
            )
            if nbytes_arg is not None:
                span.nbytes = len(args[nbytes_arg])
            if on_enter is not None:
                on_enter(span, args)
            token = _CURRENT.set(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
                recorder.spans.append(span)

        return traced

    def wrap_submit(self, fn):
        """``ServingEngine.submit``: a request span from submit to completion.

        The request is keyed by its first input array, which the engine
        passes on unchanged to ``infer_batches``.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(engine, feeds, *args, **kwargs):
            request = Span(next(recorder._ids), "request", None)
            request.served = f"request:{request.sid}"
            key = id(next(iter(feeds.values())))
            recorder._pending[key] = request
            request.start = time.perf_counter()
            try:
                ticket = fn(engine, feeds, *args, **kwargs)
            except BaseException:
                recorder._pending.pop(key, None)
                raise
            ticket.add_done_callback(lambda _ticket: recorder._finish_request(request))
            return ticket

        return traced

    def link_requests(self, span: Span, args) -> None:
        """``infer_batches`` entry: attach the call to the requests it carries."""
        batches = args[1]
        served = []
        for feeds in batches:
            request = self._pending.pop(id(next(iter(feeds.values()))), None)
            if request is not None:
                request.link = span
                served.append(request.served)
        span.served = served or f"batches:{len(batches)}"
        span.nbytes = len(batches)

    def _finish_request(self, request: Span) -> None:
        request.end = time.perf_counter()
        self.requests.append(request)
        self.spans.append(request)

    def mark(self) -> None:
        """Start the measured window now."""
        self.since = time.perf_counter()

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a class or module member) by ``make(original)``."""
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch_everywhere(self, original, name: str, **options) -> None:
        """Wrap a function in every ``repro`` module that imported it by name."""
        wrapped = self.wrap(original, name, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))

    def remove(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> int:
        """Dump every span as one JSON line; returns the span count."""
        spans = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w") as out:
            for span in spans:
                out.write(json.dumps(span.to_json()) + "\n")
        return len(spans)


def _batch_arg(index: int):
    return lambda args, kwargs: f"batch:{args[index]}"


def _propagating_submit(original):
    @functools.wraps(original)
    def submit(pool, fn, /, *args, **kwargs):
        return original(pool, contextvars.copy_context().run, fn, *args, **kwargs)

    return submit


def install(recorder: SpanRecorder) -> SpanRecorder:
    """Wrap every traced layer's public calls; returns ``recorder``."""
    import repro.mvx.system as system_module
    from repro.cluster import ClusterSupervisor, ProcessTransport
    from repro.mvx.monitor import Monitor, VariantConnection
    from repro.mvx.system import MvteeSystem
    from repro.mvx.transport import DirectTransport
    from repro.mvx.variant_host import VariantHost
    from repro.mvx.voting import vote
    from repro.mvx.wire import decode_message, encode_message
    from repro.observability.recorder import FlightRecorder
    from repro.runtime.compiled import CompiledRuntime
    from repro.runtime.interpreter import InterpreterRuntime
    from repro.serving.engine import ServingEngine
    from repro.serving.executor import BoundDispatcher
    from repro.tee.channel import SecureChannel

    wrap = recorder.wrap
    recorder.patch(ThreadPoolExecutor, "submit", _propagating_submit)
    # Set-up layers, called by name from MvteeSystem.deploy.
    for attr, name in (
        ("find_balanced_partition", "setup.partition"),
        ("verify_partition_set", "setup.partition"),
        ("build_pool", "setup.variants"),
        ("bootstrap_deployment", "setup.bootstrap"),
    ):
        recorder.patch(system_module, attr, lambda fn, name=name: wrap(fn, name))
    recorder.patch(ClusterSupervisor, "start", lambda fn: wrap(fn, "setup.cluster_start"))
    # Serving.
    recorder.patch(ServingEngine, "submit", recorder.wrap_submit)
    recorder.patch(
        MvteeSystem,
        "infer_batches",
        lambda fn: wrap(fn, "infer_batches", on_enter=recorder.link_requests),
    )
    recorder.patch(BoundDispatcher, "dispatch", lambda fn: wrap(fn, "dispatch", served=_batch_arg(3)))
    # MVX.
    recorder.patch(Monitor, "execute_stage", lambda fn: wrap(fn, "execute_stage", served=_batch_arg(1)))
    recorder.patch(
        VariantConnection,
        "request",
        lambda fn: wrap(
            fn, "roundtrip", served=lambda args, kwargs: f"batch:{args[2].get('batch_id')}"
        ),
    )
    recorder.patch_everywhere(vote, "vote")
    # Record layer, wire format, transports, variant host, runtimes.
    recorder.patch(SecureChannel, "protect", lambda fn: wrap(fn, "protect", nbytes_arg=1))
    recorder.patch(SecureChannel, "open", lambda fn: wrap(fn, "open"))
    recorder.patch_everywhere(encode_message, "encode")
    recorder.patch_everywhere(decode_message, "decode")
    recorder.patch(DirectTransport, "exchange", lambda fn: wrap(fn, "exchange"))
    recorder.patch(ProcessTransport, "exchange", lambda fn: wrap(fn, "exchange"))
    recorder.patch(VariantHost, "handle_record", lambda fn: wrap(fn, "handle_record"))
    recorder.patch(InterpreterRuntime, "run", lambda fn: wrap(fn, "runtime.run"))
    recorder.patch(CompiledRuntime, "run", lambda fn: wrap(fn, "runtime.run"))
    recorder.patch(FlightRecorder, "record", lambda fn: wrap(fn, "recorder"))
    return recorder


def layer_metrics(recorder: SpanRecorder, requests_served: int) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    Times are per request served in the measured window unless the name
    says otherwise; ``setup.*`` are one-off set-up times.  A layer that
    did no work on the workload reads 0.
    """
    measured = [s for s in recorder.spans if s.start >= recorder.since]
    setup = [s for s in recorder.spans if s.start < recorder.since]
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in measured:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent.sid].append(span)
    per = 1.0 / max(1, requests_served)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name]) * per

    def self_total(name: str, *child_names: str) -> float:
        return per * sum(
            self_time(s, [c for c in children[s.sid] if c.name in child_names])
            for s in by_name[name]
        )

    def setup_total(name: str) -> float:
        return sum((s.duration for s in setup if s.name == name), 0.0)

    requests = [r for r in recorder.requests if r.start >= recorder.since and r.link is not None]
    waits = [r.link.start - r.start for r in requests]
    engine_self = per * sum(
        r.duration - covered(r.start, r.end, [(r.start, r.link.start), (r.link.start, r.link.end)])
        for r in requests
    )
    calls = by_name["infer_batches"]
    return {
        "serving.queue_wait_p50_s": float(np.percentile(waits, 50)) if waits else 0.0,
        "serving.batch_size_mean": (
            sum(s.nbytes for s in calls) / len(calls) if calls else 0.0
        ),
        "serving.engine_self_s": engine_self,
        "serving.dispatch_self_s": self_total("dispatch", "roundtrip"),
        "mvx.run_self_s": self_total("infer_batches", "execute_stage"),
        "mvx.stage_self_s": self_total("execute_stage", "dispatch", "roundtrip", "vote"),
        "mvx.roundtrip_s": total("roundtrip"),
        "mvx.vote_s": total("vote"),
        "channel.protect_s": total("protect"),
        "channel.open_s": total("open"),
        "channel.mib_per_request": per * sum(s.nbytes for s in by_name["protect"]) / 2**20,
        "wire.encode_s": total("encode"),
        "wire.decode_s": total("decode"),
        "transport.exchange_self_s": self_total("exchange", "handle_record"),
        "host.handle_self_s": self_total(
            "handle_record", "open", "protect", "decode", "encode", "runtime.run"
        ),
        "runtime.run_s": total("runtime.run"),
        "observability.recorder_s": total("recorder"),
        "setup.partition_s": setup_total("setup.partition"),
        "setup.variants_s": setup_total("setup.variants"),
        "setup.bootstrap_s": setup_total("setup.bootstrap"),
        "setup.cluster_start_s": setup_total("setup.cluster_start"),
    }
