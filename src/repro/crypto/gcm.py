"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the cipher the paper names for all inter-TEE traffic
("AES-GCM-256").  GHASH is implemented over GF(2^128) with the standard
right-shift carry-less multiply.  This pure-Python AEAD is used for
control-plane messages (attestation, key distribution, bindings); bulk
tensor records default to the numpy-vectorized ChaCha20-Poly1305 in
:mod:`repro.crypto.chacha`, selectable per channel.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.aes import AesBlockCipher

__all__ = ["AesGcm", "GcmAuthError"]


class GcmAuthError(Exception):
    """Raised when a GCM authentication tag fails to verify."""


def _gf128_mul(x: int, y: int) -> int:
    """Carry-less multiply in GF(2^128) with the GCM reduction polynomial.

    Uses the right-shift formulation from SP 800-38D: bit 0 of an element
    is the coefficient of x^0 at the *most significant* position.
    """
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ (0xE1 << 120)
        else:
            v >>= 1
    return z


class AesGcm:
    """AES-GCM AEAD with 96-bit nonces and 128-bit tags.

    >>> aead = AesGcm(bytes(32))
    >>> ct = aead.encrypt(bytes(12), b"hello", b"aad")
    >>> aead.decrypt(bytes(12), ct, b"aad")
    b'hello'
    """

    name = "aes-gcm"
    key_size = 32
    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        self._cipher = AesBlockCipher(key)
        self._h = int.from_bytes(self._cipher.encrypt_block(bytes(16)), "big")

    def _ghash_blocks(self, data: bytes, acc: int = 0) -> int:
        padded = data + b"\x00" * ((16 - len(data) % 16) % 16)
        for off in range(0, len(padded), 16):
            acc ^= int.from_bytes(padded[off : off + 16], "big")
            acc = _gf128_mul(self._h, acc)
        return acc

    def _ghash(self, aad: bytes, ciphertext: bytes) -> int:
        acc = 0
        if aad:
            acc = self._ghash_blocks(aad, acc)
        if ciphertext:
            acc = self._ghash_blocks(ciphertext, acc)
        acc ^= int.from_bytes(struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8), "big")
        return _gf128_mul(self._h, acc)

    def _j0(self, nonce: bytes) -> bytes:
        if len(nonce) == 12:
            return nonce + b"\x00\x00\x00\x01"
        acc = self._ghash_blocks(nonce, 0)
        acc ^= len(nonce) * 8
        return _gf128_mul(self._h, acc).to_bytes(16, "big")

    @staticmethod
    def _increment_counter(block: bytes) -> bytes:
        counter = (struct.unpack(">I", block[12:])[0] + 1) & 0xFFFFFFFF
        return block[:12] + struct.pack(">I", counter)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        j0 = self._j0(nonce)
        keystream = self._cipher.ctr_keystream(self._increment_counter(j0), len(plaintext))
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
        tag_mask = int.from_bytes(self._cipher.encrypt_block(j0), "big")
        tag = (self._ghash(aad, ciphertext) ^ tag_mask).to_bytes(16, "big")
        return ciphertext + tag

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`GcmAuthError` on mismatch."""
        if len(data) < self.tag_size:
            raise GcmAuthError("ciphertext shorter than the authentication tag")
        ciphertext, tag = data[: -self.tag_size], data[-self.tag_size :]
        j0 = self._j0(nonce)
        tag_mask = int.from_bytes(self._cipher.encrypt_block(j0), "big")
        expected = (self._ghash(aad, ciphertext) ^ tag_mask).to_bytes(16, "big")
        if not hmac.compare_digest(expected, tag):
            raise GcmAuthError("GCM tag verification failed")
        keystream = self._cipher.ctr_keystream(self._increment_counter(j0), len(ciphertext))
        return bytes(c ^ k for c, k in zip(ciphertext, keystream))

