"""The record cipher on its own: seal time per call at three sizes."""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["SEAL_SIZES", "seal_floor"]

#: metric name -> (payload bytes, timed calls)
SEAL_SIZES = {
    "crypto.seal_1kib_s": (1 << 10, 41),
    "crypto.seal_64kib_s": (1 << 16, 11),
    "crypto.seal_1mib_s": (1 << 20, 3),
}


def seal_floor(seed: int) -> tuple[dict[str, float], list[str]]:
    """Median ``chacha20-poly1305`` seal time per size, plus problems found.

    Every sealed payload must open back to its plaintext and must fail
    authentication once one of its bytes is flipped.
    """
    from repro.crypto.aead import AeadError, get_aead

    rng = np.random.default_rng(seed)
    aead = get_aead("chacha20-poly1305", rng.bytes(32))
    aad = b"bench-seal"
    metrics, problems = {}, []
    for name, (size, calls) in SEAL_SIZES.items():
        payload = rng.bytes(size)
        times = []
        for call in range(calls):
            nonce = call.to_bytes(12, "big")
            start = time.perf_counter()
            sealed = aead.encrypt(nonce, payload, aad)
            times.append(time.perf_counter() - start)
        metrics[name] = statistics.median(times)
        if aead.decrypt(nonce, sealed, aad) != payload:
            problems.append(f"{name}: sealed payload did not open to its plaintext")
        tampered = bytearray(sealed)
        tampered[len(tampered) // 2] ^= 0x01
        try:
            aead.decrypt(nonce, bytes(tampered), aad)
        except AeadError:
            pass
        else:
            problems.append(f"{name}: payload with a flipped byte still opened")
    return metrics, problems
