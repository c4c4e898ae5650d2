"""Observability subsystem: spans, metrics registry, unified inference API."""

import json
import time

import numpy as np
import pytest

from repro.mvx import (
    InferenceOptions,
    InferenceService,
    MvteeSystem,
    MvxConfig,
    run,
    validate_feeds,
)
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    InMemorySpanExporter,
    JsonlSpanExporter,
    MetricsRegistry,
    NullTracer,
    Sinks,
    Tracer,
    format_span_tree,
)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestSpanNesting:
    def test_context_manager_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert tracer.roots == [outer]
        assert outer.children == [inner]

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        anchor = tracer.start_span("anchor")
        with tracer.span("root"):
            with tracer.span("child", parent=anchor) as child:
                # The explicit-parent span still anchors implicit children.
                with tracer.span("grandchild") as grandchild:
                    pass
        tracer.end_span(anchor)
        assert anchor.children == [child]
        assert child.children == [grandchild]

    def test_timing_and_idempotent_end(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            time.sleep(0.002)
        first_end = span.end_time
        assert span.ended and span.duration >= 0.002
        span.end()
        assert span.end_time == first_end

    def test_error_recording(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        (span,) = tracer.roots
        assert span.status == "error"
        assert span.attributes["error"] == "kaput"

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert len(tracer.find("b")) == 2
        assert [s.name for s in tracer.roots[0].walk()] == ["a", "b", "b"]

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("invisible") as span:
            pass
        assert span.ended
        assert tracer.roots == []


class TestExporters:
    def test_in_memory_ring_buffer_evicts_oldest(self):
        exporter = InMemorySpanExporter(capacity=2)
        tracer = Tracer(exporters=[exporter])
        for i in range(3):
            with tracer.span(f"root-{i}"):
                pass
        assert [s.name for s in exporter.spans] == ["root-1", "root-2"]

    def test_only_roots_are_exported(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporters=[exporter])
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [s.name for s in exporter.spans] == ["root"]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(exporters=[JsonlSpanExporter(path)])
        with tracer.span("root", partition=3):
            with tracer.span("child"):
                pass
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["name"] == "root"
        assert doc["attributes"] == {"partition": 3}
        assert [c["name"] for c in doc["children"]] == ["child"]

    def test_format_tree(self):
        tracer = Tracer()
        with tracer.span("infer", num_batches=2):
            with tracer.span("batch", batch=0):
                pass
        rendered = tracer.format_tree()
        assert "infer" in rendered and "num_batches=2" in rendered
        assert "\n  batch" in rendered
        assert format_span_tree(tracer.roots[0]).startswith("infer")


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestCounterSemantics:
    def test_inc_and_labels(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(2, partition=1)
        assert counter.value() == 1
        assert counter.value(partition=1) == 2
        assert counter.total() == 3

    def test_decrease_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("hits").inc(-1)


class TestGaugeSemantics:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(5, queue="a")
        gauge.inc(2, queue="a")
        gauge.dec(3, queue="a")
        assert gauge.value(queue="a") == 4
        assert gauge.value(queue="b") == 0


class TestHistogramSemantics:
    def test_observe_sum_count(self):
        hist = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(55.55)

    def test_buckets_are_cumulative(self):
        hist = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            hist.observe(v)
        samples = {
            (name, labels): value for name, labels, value in hist.samples()
        }
        assert samples[("lat_bucket", '{le="0.1"}')] == 1
        assert samples[("lat_bucket", '{le="1"}')] == 2
        assert samples[("lat_bucket", '{le="10"}')] == 3
        assert samples[("lat_bucket", '{le="+Inf"}')] == 4
        assert samples[("lat_count", "")] == 4


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("a")

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests").inc(3, route="infer")
        registry.gauge("depth").set(2)
        registry.histogram("lat_seconds", buckets=(0.5, 1.0)).observe(0.25)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests\n# TYPE req_total counter\n" in text
        assert 'req_total{route="infer"} 3\n' in text
        assert "# TYPE depth gauge\ndepth 2\n" in text
        assert "# TYPE lat_seconds histogram\n" in text
        assert 'lat_seconds_bucket{le="0.5"} 1\n' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1\n' in text
        assert "lat_seconds_sum 0.25\n" in text
        assert "lat_seconds_count 1\n" in text

    def test_json_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        doc = registry.render_json()
        assert doc["req_total"]["kind"] == "counter"
        assert doc["req_total"]["values"][""] == 2
        assert doc["lat"]["values"][""]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.names() == []


# ----------------------------------------------------------------------
# validate_feeds error paths (trust-boundary hardening, §6.5)
# ----------------------------------------------------------------------


class TestValidateFeeds:
    def test_valid_feeds_accepted(self, deployed_system, small_input):
        validate_feeds(deployed_system.monitor, {"input": small_input})

    def test_missing_input_rejected(self, deployed_system):
        with pytest.raises(ValueError, match="missing input tensors"):
            validate_feeds(deployed_system.monitor, {})

    def test_unexpected_input_rejected(self, deployed_system, small_input):
        with pytest.raises(ValueError, match="unexpected input tensors"):
            validate_feeds(
                deployed_system.monitor,
                {"input": small_input, "backdoor": small_input},
            )

    def test_wrong_shape_rejected(self, deployed_system, small_input):
        with pytest.raises(ValueError, match="has shape"):
            validate_feeds(
                deployed_system.monitor, {"input": small_input[:, :, :8, :8]}
            )

    def test_wrong_dtype_rejected(self, deployed_system, small_input):
        with pytest.raises(ValueError, match="has dtype"):
            validate_feeds(
                deployed_system.monitor, {"input": small_input.astype(np.float64)}
            )

    def test_non_ndarray_rejected(self, deployed_system, small_input):
        with pytest.raises(ValueError, match="not an ndarray"):
            validate_feeds(
                deployed_system.monitor, {"input": small_input.tolist()}
            )


# ----------------------------------------------------------------------
# Unified inference API + end-to-end span/metric acceptance
# ----------------------------------------------------------------------


def _batches(n, rng):
    return [
        {"input": rng.normal(size=(1, 3, 16, 16)).astype(np.float32)}
        for _ in range(n)
    ]


class TestUnifiedInferenceApi:
    def test_async_run_produces_full_span_tree(self, small_resnet):
        # The checkpoint discipline is the provisioned config's: an
        # async deployment runs async.
        system = MvteeSystem.deploy(
            small_resnet,
            num_partitions=3,
            config=MvxConfig.selective(3, {1: 3}, execution_mode="async"),
            seed=0,
            verify_partitions=False,
            verify_variants=False,
        )
        rng = np.random.default_rng(7)
        tracer = Tracer()
        registry = MetricsRegistry()
        options = InferenceOptions(sinks=Sinks(tracer=tracer, metrics=registry))
        results = system.infer_batches(_batches(3, rng), options)
        stats = system.last_stats
        assert len(results) == 3
        (root,) = tracer.roots
        assert root.name == "infer"
        assert root.attributes["execution_mode"] == "async"
        # Every batch, stage execution and checkpoint appears in the tree.
        assert len(root.find("batch")) == 3
        assert len(root.find("stage")) == stats.stage_executions
        assert len(root.find("checkpoint")) >= stats.checkpoints_evaluated > 0
        # Variant round trips nest under stages and carry attributes.
        variants = root.find("variant")
        assert variants and all(
            "variant" in s.attributes and "bytes_protected" in s.attributes
            for s in variants
        )

    def test_stage_histogram_times_every_stage(self, deployed_system):
        rng = np.random.default_rng(8)
        registry = MetricsRegistry()
        deployed_system.infer_batches(
            _batches(2, rng), InferenceOptions(sinks=Sinks(metrics=registry))
        )
        hist = registry.histogram("mvtee_stage_seconds")
        for index in range(len(deployed_system.partition_set)):
            assert hist.count(partition=index) == 2  # one per batch
            assert hist.sum(partition=index) > 0
        text = registry.render_prometheus()
        assert 'mvtee_stage_seconds_bucket{le="+Inf",partition="0"} 2' in text

    def test_detection_counters_flow_to_registry(self, small_resnet):
        from repro.mvx import MvteeSystem, ResponseAction
        from repro.runtime.faults import FaultInjector

        system = MvteeSystem.deploy(
            small_resnet,
            num_partitions=3,
            mvx_partitions={1: 3},
            seed=0,
            verify_partitions=False,
            verify_variants=False,
        )
        system.monitor.response_action = ResponseAction.DROP_VARIANT
        registry = MetricsRegistry()
        victim = system.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        rng = np.random.default_rng(9)
        system.infer_batches(
            _batches(2, rng), InferenceOptions(sinks=Sinks(metrics=registry))
        )
        assert registry.counter("mvtee_divergences_total").value(partition=1) >= 1
        assert (
            registry.counter("mvtee_recovery_actions_total").value(
                action="drop-variant"
            )
            >= 1
        )
        assert registry.counter("mvtee_checkpoints_total").total() >= 1

    def test_legacy_entry_points_are_gone(self):
        # PR 1's run_sequential/run_pipelined wrappers and the
        # infer_batches(pipelined=) flag completed their deprecation
        # cycle; the unified run(options) surface is the only spelling.
        import repro.mvx.scheduler as scheduler

        assert not hasattr(scheduler, "run_sequential")
        assert not hasattr(scheduler, "run_pipelined")

    def test_infer_batches_rejects_pipelined_kwarg(self, deployed_system):
        rng = np.random.default_rng(11)
        with pytest.raises(TypeError):
            deployed_system.infer_batches(_batches(1, rng), pipelined=True)


class TestServiceReadThrough:
    def test_service_metrics_read_through_registry(self, small_resnet):
        from repro.mvx import MvteeSystem

        system = MvteeSystem.deploy(
            small_resnet,
            num_partitions=3,
            mvx_partitions={1: 3},
            seed=0,
            verify_partitions=False,
            verify_variants=False,
        )
        registry = MetricsRegistry()
        tracer = Tracer()
        service = InferenceService(system, registry=registry, tracer=tracer)
        rng = np.random.default_rng(12)
        for feeds in _batches(3, rng):
            service.submit(feeds)
        service.drain()
        metrics = service.metrics()
        assert metrics.requests_served == 3
        assert metrics.batches_executed == 3
        assert registry.counter("mvtee_requests_served_total").total() == 3
        # The service's registry also carries the hot-path instruments...
        assert registry.histogram("mvtee_stage_seconds").count(partition=0) == 3
        # ... and the full exposition includes both.
        text = service.render_prometheus()
        assert "mvtee_requests_served_total 3" in text
        assert "mvtee_stage_seconds_bucket" in text
        # to_prometheus output format is unchanged (byte-stable surface).
        legacy = metrics.to_prometheus()
        assert legacy.startswith(
            "# TYPE mvtee_requests_served_total counter\n"
            "mvtee_requests_served_total 3\n"
        )
        assert 'mvtee_live_variants{partition="1"} 3\n' in legacy
        # Tracing flowed through the serving path too.
        assert tracer.find("stage")


# ----------------------------------------------------------------------
# Exposition escaping (Prometheus text format)
# ----------------------------------------------------------------------


class TestLabelEscaping:
    def test_special_characters_escaped(self):
        registry = MetricsRegistry()
        registry.counter("mvtee_test_total", "h").inc(
            reason='shed: queue "full"', path="C:\\temp", detail="line1\nline2"
        )
        text = registry.render_prometheus()
        assert 'reason="shed: queue \\"full\\""' in text
        assert 'path="C:\\\\temp"' in text
        assert 'detail="line1\\nline2"' in text
        # The raw newline must not split the sample line.
        sample_lines = [l for l in text.splitlines() if l.startswith("mvtee_test_total{")]
        assert len(sample_lines) == 1

    def test_plain_values_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("mvtee_test_total", "h").inc(partition="1", mode="sync")
        assert 'mode="sync",partition="1"' in registry.render_prometheus()


# ----------------------------------------------------------------------
# Histogram quantile estimation
# ----------------------------------------------------------------------


class TestHistogramQuantile:
    def _histogram(self, observations, buckets=(1.0, 2.0, 3.0, 4.0)):
        histogram = Histogram("h", buckets=buckets)
        for value in observations:
            histogram.observe(value)
        return histogram

    def test_known_distribution(self):
        # One observation per bucket: quantiles interpolate the edges.
        histogram = self._histogram([0.5, 1.5, 2.5, 3.5])
        assert histogram.quantile(0.25) == pytest.approx(1.0)
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        assert histogram.quantile(1.0) == pytest.approx(4.0)

    def test_interpolation_within_bucket(self):
        # 10 observations, all in the (1, 2] bucket: the median sits at
        # the bucket midpoint under linear interpolation.
        histogram = self._histogram([1.5] * 10)
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.quantile(0.1) == pytest.approx(1.1)

    def test_skewed_distribution(self):
        # 90 fast + 10 slow: p95 lands in the slow bucket.
        histogram = self._histogram([0.5] * 90 + [3.5] * 10)
        p95 = histogram.quantile(0.95)
        assert 3.0 < p95 <= 4.0
        assert histogram.quantile(0.5) == pytest.approx(5 / 9, rel=1e-6)

    def test_inf_bucket_clamps_to_largest_finite_bound(self):
        histogram = self._histogram([100.0], buckets=(1.0, 2.0))
        assert histogram.quantile(0.99) == 2.0

    def test_empty_series_is_nan(self):
        import math

        histogram = Histogram("h")
        assert math.isnan(histogram.quantile(0.5))
        histogram.observe(1.0, partition="0")
        assert math.isnan(histogram.quantile(0.5, partition="1"))
        assert not math.isnan(histogram.quantile(0.5, partition="0"))

    def test_invalid_quantile_rejected(self):
        from repro.observability import quantile_from_buckets

        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1], 1, 1.5)

    def test_aggregate_sums_label_sets(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5, partition="0")
        histogram.observe(0.5, partition="1")
        histogram.observe(1.5, partition="1")
        bounds, counts, total = histogram.aggregate()
        assert bounds == (1.0, 2.0)
        assert counts == [2, 3]
        assert total == 3


# ----------------------------------------------------------------------
# Tracer error paths
# ----------------------------------------------------------------------


class TestTracerErrorPaths:
    def test_exception_records_error_ends_span_pops_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner") as inner:
                    raise RuntimeError("boom")
        assert inner.status == "error"
        assert inner.attributes["error"] == "boom"
        assert inner.ended
        assert tracer.current() is None  # stack fully unwound
        (root,) = tracer.roots
        assert root.status == "error"
        assert root.ended

    def test_failed_root_is_still_exported(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer([exporter])
        with pytest.raises(ValueError):
            with tracer.span("root"):
                raise ValueError("bad")
        assert [s.name for s in exporter.spans] == ["root"]

    def test_jsonl_exporter_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer([JsonlSpanExporter(path)])
        with pytest.raises(RuntimeError):
            with tracer.span("root", partition=1):
                with tracer.span("child"):
                    raise RuntimeError("kaboom")
        with tracer.span("second"):
            pass
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["name"] for d in docs] == ["root", "second"]
        assert docs[0]["status"] == "error"
        assert docs[0]["attributes"] == {"partition": 1, "error": "kaboom"}
        assert docs[0]["children"][0]["name"] == "child"
        assert docs[0]["span_id"] == tracer.roots[0].span_id

    def test_null_tracer_is_a_true_no_op(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = NullTracer([JsonlSpanExporter(path)])
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                raise RuntimeError("x")
        with tracer.span("again") as span:
            span.set_attribute("k", "v")
        assert tracer.roots == []
        assert tracer.current() is None
        assert tracer.trace_id() is None
        assert tracer.current_span_id() is None
        assert not path.exists()  # nothing exported

    def test_trace_and_span_ids_inside_blocks(self):
        tracer = Tracer()
        assert tracer.trace_id() is None
        with tracer.span("root") as root:
            assert tracer.trace_id() == root.span_id
            with tracer.span("child") as child:
                assert tracer.trace_id() == root.span_id
                assert tracer.current_span_id() == child.span_id
        assert tracer.trace_id() is None


class TestConcurrentInstruments:
    """Read-side thread safety: render while writers mutate.

    Regression for torn reads / ``dictionary changed size during
    iteration`` once several engine workers write one registry while an
    operator scrape renders it.
    """

    def test_histogram_hammered_by_writers_and_renderers(self):
        import threading

        registry = MetricsRegistry()
        hist = registry.histogram("mvtee_test_hammer_seconds", "hammer")
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            n = 0
            try:
                while not stop.is_set():
                    # Rotating label sets force new series to appear
                    # mid-render, the exact torn-iteration hazard.
                    hist.observe(0.0001 * (n % 64), worker=worker, shard=n % 13)
                    n += 1
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def renderer() -> None:
            try:
                while not stop.is_set():
                    hist.to_json()
                    list(hist.samples())
                    hist.quantile(0.95)
                    hist.sum()
                    hist.count()
                    hist.label_sets()
                    registry.render_prometheus()
                    registry.render_json()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        threads += [threading.Thread(target=renderer) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors, errors
        assert hist.count(worker=0, shard=0) > 0

    def test_counter_and_gauge_reads_are_locked_snapshots(self):
        import threading

        counter = Counter("mvtee_test_total")
        gauge = Gauge("mvtee_test_gauge")
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            n = 0
            try:
                while not stop.is_set():
                    counter.inc(label=n % 31)
                    gauge.set(n, label=n % 31)
                    n += 1
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    counter.total()
                    counter.value(label=3)
                    list(counter.samples())
                    counter.to_json()
                    gauge.value(label=3)
                    list(gauge.samples())
                    gauge.to_json()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors, errors
        assert counter.total() > 0


class TestThreadLocalTracer:
    def test_span_stacks_are_per_thread(self):
        import threading

        tracer = Tracer()
        inner_parents: dict[str, str | None] = {}
        barrier = threading.Barrier(2)

        def worker(name: str) -> None:
            with tracer.span(name) as root:
                barrier.wait(timeout=10.0)
                # Each thread's implicit parent must be its own root,
                # not whichever span the other thread has open.
                with tracer.span(f"{name}-child"):
                    pass
                inner_parents[name] = (
                    root.children[0].name if root.children else None
                )

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert inner_parents == {"a": "a-child", "b": "b-child"}
        assert len(tracer.roots) == 2
