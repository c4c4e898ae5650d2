"""The Sinks bundle: one spelling on every surface, one bundle per run."""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.mvx import InferenceOptions, MvteeSystem
from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Sinks,
    Tracer,
)
from repro.serving import ServingEngine


@pytest.fixture()
def system(small_resnet):
    return MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions={1: 2},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )


def _feeds(seed: int = 0):
    return {
        "input": np.random.default_rng(seed)
        .normal(size=(1, 3, 16, 16))
        .astype(np.float32)
    }


class TestSinksBundle:
    def test_merged_over_fills_only_missing_fields(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        recorder = FlightRecorder()
        partial = Sinks(tracer=tracer)
        base = Sinks(tracer=Tracer(), metrics=metrics, recorder=recorder)
        merged = partial.merged_over(base)
        assert merged.tracer is tracer  # own field wins
        assert merged.metrics is metrics
        assert merged.recorder is recorder

    def test_with_metrics_replaces_only_metrics(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        bundle = Sinks(tracer=tracer).with_metrics(metrics)
        assert bundle.tracer is tracer
        assert bundle.metrics is metrics


class TestBackCompatSpellings:
    """``sinks=`` is the one spelling; the trio kwargs are gone."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda system: MvteeSystem.deploy(system.model, metrics=MetricsRegistry()),
            lambda system: system.serving_engine(registry=MetricsRegistry()),
            lambda system: ServingEngine(system, tracer=Tracer()),
            lambda system: InferenceOptions(recorder=FlightRecorder()),
        ],
        ids=["deploy", "serving_engine", "ServingEngine", "InferenceOptions"],
    )
    def test_trio_kwargs_are_rejected(self, system, make):
        with pytest.raises(TypeError):
            make(system)

    def test_deploy_sinks_spelling_is_warning_free(self, small_resnet):
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = MvteeSystem.deploy(
                small_resnet,
                num_partitions=3,
                mvx_partitions={1: 2},
                seed=0,
                verify_partitions=False,
                verify_variants=False,
                sinks=Sinks(metrics=registry),
            )
        assert system.monitor.metrics is registry

    def test_system_serving_engine_sinks_spelling(self, system):
        registry = MetricsRegistry()
        recorder = FlightRecorder()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = system.serving_engine(
                sinks=Sinks(metrics=registry, recorder=recorder)
            )
        assert engine.registry is registry
        assert engine.recorder is recorder
        with engine:
            assert engine.submit(_feeds()).result(timeout=30.0)


class _GatingDispatcher:
    """Serial dispatch that holds its run inside the first stage until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def dispatch(self, monitor, connections, batch_id, feeds, sinks):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return [monitor.request_inference(c, batch_id, feeds, sinks) for c in connections]


def _run_counts(registry: MetricsRegistry, recorder: FlightRecorder) -> tuple:
    return (
        registry.counter("mvtee_stage_executions_total").total(),
        registry.counter("mvtee_variant_requests_total").total(),
        len(recorder.events("checkpoint")),
    )


class TestRunScopedSinks:
    def test_overlapping_runs_keep_their_sinks_apart(self, system):
        # 3 stages; 1 + 2 + 1 variant round trips; one checkpoint.
        one_run = (3, 4, 1)
        registry_a, recorder_a = MetricsRegistry(), FlightRecorder()
        registry_b, recorder_b = MetricsRegistry(), FlightRecorder()
        gate = _GatingDispatcher()
        options_a = InferenceOptions(
            sinks=Sinks(metrics=registry_a, recorder=recorder_a), dispatcher=gate
        )
        run_a = threading.Thread(
            target=system.infer_batches, args=([_feeds(1)], options_a)
        )
        run_a.start()
        try:
            assert gate.entered.wait(timeout=30.0)
            # Run A is parked inside its first stage; run B runs through.
            system.infer_batches(
                [_feeds(2)],
                InferenceOptions(sinks=Sinks(metrics=registry_b, recorder=recorder_b)),
            )
            assert _run_counts(registry_b, recorder_b) == one_run
            assert _run_counts(registry_a, recorder_a) == (0, 0, 0)
        finally:
            gate.release.set()
            run_a.join(timeout=30.0)
        assert not run_a.is_alive()
        assert _run_counts(registry_a, recorder_a) == one_run
        assert _run_counts(registry_b, recorder_b) == one_run
