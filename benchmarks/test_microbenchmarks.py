"""Microbenchmarks of MVTEE's real (non-simulated) primitives.

These time the actual library code paths with pytest-benchmark's normal
multi-round machinery: contraction speed, RA-TLS record protection,
checkpoint consistency evaluation, the end-to-end bootstrap, and a real
MVX inference on a small model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.aead import get_aead
from repro.mvx import InferenceOptions, MvteeSystem
from repro.mvx.consistency import ConsistencyPolicy
from repro.partition import ContractionSettings, random_contraction
from repro.serving import ParallelStageExecutor
from repro.zoo import build_model


@pytest.fixture(scope="module")
def resnet50_small():
    return build_model("resnet-50", input_size=64)


@pytest.fixture(scope="module")
def deployed():
    model = build_model("small-resnet", input_size=16, blocks_per_stage=1)
    return MvteeSystem.deploy(
        model,
        num_partitions=3,
        mvx_partitions={1: 3},
        seed=0,
        verify_partitions=False,
        verify_variants=False,
    )


def test_bench_random_contraction(benchmark, resnet50_small):
    result = benchmark(
        lambda: random_contraction(resnet50_small, ContractionSettings(5, seed=0))
    )
    assert len(result) == 5


def test_bench_record_protection_chacha(benchmark):
    aead = get_aead("chacha20-poly1305", bytes(32))
    payload = np.random.default_rng(0).bytes(256 * 1024)
    counter = iter(range(10**9))

    def protect():
        nonce = next(counter).to_bytes(12, "big")
        return aead.encrypt(nonce, payload)

    record = benchmark(protect)
    assert len(record) == len(payload) + 16


#: Record sizes for the seal/open rows: the per-record floor (1 KiB) and
#: the per-byte slope (64 KiB, 1 MiB).
RECORD_SIZES = {"1kib": 1 << 10, "64kib": 1 << 16, "1mib": 1 << 20}


@pytest.mark.parametrize("size", RECORD_SIZES.values(), ids=RECORD_SIZES.keys())
def test_bench_record_protection_seal(benchmark, size):
    aead = get_aead("chacha20-poly1305", bytes(32))
    payload = np.random.default_rng(0).bytes(size)
    record = benchmark(aead.encrypt, bytes(12), payload, b"seq")
    assert len(record) == size + 16


@pytest.mark.parametrize("size", RECORD_SIZES.values(), ids=RECORD_SIZES.keys())
def test_bench_record_protection_open(benchmark, size):
    aead = get_aead("chacha20-poly1305", bytes(32))
    payload = np.random.default_rng(0).bytes(size)
    record = aead.encrypt(bytes(12), payload, b"seq")
    assert benchmark(aead.decrypt, bytes(12), record, b"seq") == payload


def test_bench_consistency_check(benchmark):
    policy = ConsistencyPolicy()
    rng = np.random.default_rng(0)
    a = {"t": rng.normal(size=(1, 64, 28, 28)).astype(np.float32)}
    b = {"t": a["t"] + rng.normal(scale=1e-6, size=(1, 64, 28, 28)).astype(np.float32)}
    assert benchmark(lambda: policy.consistent(a, b))


def test_bench_mvx_inference_sequential(benchmark, deployed):
    feeds = {
        "input": np.random.default_rng(1).normal(size=(1, 3, 16, 16)).astype(np.float32)
    }
    outputs = benchmark(lambda: deployed.infer(feeds))
    assert outputs


def test_bench_parallel_vs_serial_dispatch(benchmark, deployed):
    """Real wall-clock: thread-parallel variant fan-out on the MVX stage."""
    import numpy as np

    feeds = {
        "input": np.random.default_rng(2).normal(size=(1, 3, 16, 16)).astype(np.float32)
    }
    with ParallelStageExecutor(4) as executor:
        options = InferenceOptions(dispatcher=executor)
        outputs = benchmark(lambda: deployed.infer(feeds, options))
    assert outputs


def test_bench_deployment_bootstrap(benchmark):
    model = build_model("tiny-cnn")

    def bootstrap():
        return MvteeSystem.deploy(
            model,
            num_partitions=2,
            mvx_partitions={},
            seed=0,
            verify_partitions=False,
            verify_variants=False,
        )

    system = benchmark.pedantic(bootstrap, rounds=3, iterations=1)
    assert system.live_variants()
