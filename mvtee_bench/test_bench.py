"""Self-tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest mvtee_bench -q
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import checks
import reference
import spans
from stats import tail_percentile


# -- the "highest percentile with ten samples beyond it" rule -------------


@pytest.mark.parametrize(
    "count, expected",
    [(39, None), (40, 75), (55, 81), (100, 90), (101, 90), (200, 95), (1000, 99), (5000, 99)],
)
def test_tail_percentile_known_counts(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_leaves_ten_beyond_and_is_the_highest():
    for count in range(40, 600):
        p = tail_percentile(count)
        assert count - math.ceil(p * count / 100) >= 10
        if p < 99:
            assert count - math.ceil((p + 1) * count / 100) < 10


# -- self time over a span tree -------------------------------------------


def _span(name, start, end, parent=None, thread=0):
    span = spans.Span(0, name, parent)
    span.start, span.end, span.thread = start, end, thread
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("dispatch", 0.0, 10.0)
    children = [
        _span("roundtrip", 1.0, 4.0, parent, thread=1),
        _span("roundtrip", 3.0, 6.0, parent, thread=2),  # overlaps the first
        _span("roundtrip", 8.0, 12.0, parent, thread=1),  # runs past the parent
    ]
    # Union inside the parent: [1, 6] + [8, 10] = 7.
    assert spans.covered(0.0, 10.0, [(c.start, c.end) for c in children]) == 7.0
    assert spans.self_time(parent, children) == pytest.approx(3.0)
    assert spans.self_time(parent, []) == 10.0


def test_children_on_pool_threads_link_to_the_submitting_span():
    recorder = spans.SpanRecorder()
    recorder.patch(ThreadPoolExecutor, "submit", spans._propagating_submit)
    child = recorder.wrap(lambda: time.sleep(0.05), "roundtrip")
    threads = set()

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda: (threads.add(threading.get_ident()), child())) for _ in range(2)]
            for future in futures:
                future.result()
        time.sleep(0.02)

    try:
        recorder.wrap(fan_out, "dispatch")()
    finally:
        recorder.remove()
    assert ThreadPoolExecutor.submit is vars(ThreadPoolExecutor)["submit"]
    parent = next(s for s in recorder.spans if s.name == "dispatch")
    kids = [s for s in recorder.spans if s.name == "roundtrip"]
    assert len(kids) == 2 and all(k.parent is parent for k in kids)
    assert len({k.thread for k in kids}) == 2 and parent.thread not in {k.thread for k in kids}
    # The two children overlap, so the parent's self time is well below
    # its duration minus their summed durations would suggest.
    union = spans.covered(parent.start, parent.end, [(k.start, k.end) for k in kids])
    assert union < sum(k.duration for k in kids)
    assert spans.self_time(parent, kids) == pytest.approx(parent.duration - union)
    assert spans.self_time(parent, kids) >= 0.02


def test_wrappers_are_removed():
    import repro.mvx.monitor as monitor_module
    from repro.mvx.voting import vote
    from repro.tee.channel import SecureChannel

    protect = vars(SecureChannel)["protect"]
    recorder = spans.install(spans.SpanRecorder())
    try:
        assert vars(SecureChannel)["protect"] is not protect
        assert monitor_module.vote is not vote
    finally:
        recorder.remove()
    assert vars(SecureChannel)["protect"] is protect
    assert monitor_module.vote is vote


# -- the numpy reference ----------------------------------------------------


def _interpreter(model, feeds):
    from repro.runtime import InterpreterRuntime, RuntimeConfig

    runtime = InterpreterRuntime(RuntimeConfig())
    runtime.prepare(model)
    return runtime.run(feeds)


@pytest.mark.parametrize(
    "name, options, shape",
    [
        ("tiny-mlp", {}, (1, 32)),
        ("small-resnet", {"input_size": 16, "blocks_per_stage": 1}, (1, 3, 16, 16)),
    ],
)
def test_reference_matches_the_plain_interpreter(name, options, shape):
    from repro.zoo import build_model

    model = build_model(name, **options)
    rng = np.random.default_rng(5)
    for _ in range(3):
        feeds = {"input": rng.standard_normal(shape, dtype=np.float32)}
        expected = _interpreter(model, feeds)
        got = reference.forward(model, feeds)
        for output, value in expected.items():
            assert np.abs(got[output] - value).max() <= checks.OUTPUT_TOLERANCE
            assert got[output].argmax() == value.argmax()


def test_reference_refuses_unknown_operators():
    from repro.zoo import build_model

    with pytest.raises(NotImplementedError, match="MaxPool"):
        reference.forward(build_model("tiny-cnn"), {"input": np.zeros((1, 3, 16, 16), np.float32)})


def test_output_checks_flag_wrong_outputs():
    from repro.zoo import build_model

    model = build_model("tiny-mlp")
    feeds = {"input": np.random.default_rng(9).standard_normal((1, 32), dtype=np.float32)}
    good = {k: v.astype(np.float32) for k, v in reference.forward(model, feeds).items()}
    assert checks.output_problems(model, [(feeds, good)]) == []
    (name, value), = good.items()
    swapped = value.copy()
    top, low = value.argmax(), value.argmin()
    swapped[0, [top, low]] = swapped[0, [low, top]]
    problems = checks.output_problems(model, [(feeds, {name: swapped})])
    assert any("argmax" in p for p in problems)
    assert any("differs" in p for p in problems)
    problems = checks.output_problems(model, [(feeds, {name: value * 2})])
    assert any("probability" in p for p in problems)
