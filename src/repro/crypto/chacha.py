"""ChaCha20-Poly1305 AEAD (RFC 8439) as one streaming numpy pass.

The paper encrypts checkpoint tensors (hundreds of kilobytes to megabytes
per record) with AES-GCM-256 via OpenSSL.  A pure-Python AES keystream is
orders of magnitude too slow for that record size, so MVTEE's bulk record
protection defaults to this AEAD.  The security properties relied on by
the system (confidentiality + integrity + per-record nonce freshness) are
identical.

A seal or an open is one pass over the record in chunks of
:data:`_CHUNK` bytes:

- **ChaCha20.**  One keystream call per chunk evaluates every block of
  the chunk at once.  The state is held as four ``(4, n)`` ``uint32``
  row groups (a, b, c, d), so one numpy operation does all four quarter
  rounds of a column round; a diagonal round runs the same code on
  shifted views of b, c and d, whose wrapped rows are mirrored into
  spare rows of the same buffer.  The first call of a seal starts
  at block 0, which supplies the Poly1305 one-time key.
- **Poly1305.**  The 16-byte blocks are split into rows of
  :data:`_LANES` lanes.  Each row is weighted with the powers
  ``r^L .. r^1`` in 26-bit limbs (``uint64`` limb products: a lane sum of
  up to 256 blocks stays below ``2**63``), and a Horner step over rows
  with ``r^L`` runs on Python ints.  Inputs shorter than one row use the
  scalar Horner loop.
- Each chunk is XORed into one preallocated output buffer and then fed
  to the MAC in RFC order (aad, ciphertext, lengths, each padded), so no
  padded copy of the record is ever built.  An open authenticates while
  it decrypts and returns the plaintext only once the tag matches.

Measured on a 2-core x86 host (numpy 2.4, Python 3.11; medians of
repeated calls): a seal takes about 0.36 ms at 1 KiB, 0.94 ms
at 64 KiB and 10 ms at 1 MiB (about 100 MB/s), against 5.6 / 11.6 /
92 ms for the earlier implementation, which ran each quarter round row
by row, derived the MAC key in a second keystream call and ran the MAC
block by block.  A record of at most one chunk costs one keystream call,
so the per-record floor is the roughly 500 numpy dispatches of that
call.  OpenSSL's AES-GCM, which the paper uses, runs at gigabytes per
second; :class:`repro.simulation.CostModel` models that hardware, not
this code.
"""

from __future__ import annotations

import hmac
import struct

import numpy as np

__all__ = ["ChaCha20Poly1305", "ChaChaAuthError", "chacha20_xor", "poly1305_mac"]

#: Record bytes per keystream call and MAC update.  A larger chunk spreads
#: the fixed cost of a call (about 500 numpy dispatches) over more bytes;
#: the transient state is about twice the chunk.  Of 64, 128 and 256 KiB,
#: 256 KiB sealed 144-277 KiB records fastest.  A multiple of
#: ``16 * _LANES``, so that only a record's last chunk has a partial row.
_CHUNK = 1 << 18
_CHUNK_BLOCKS = _CHUNK // 64

#: Poly1305 blocks per vectorized row (at most 256, see the module docstring).
_LANES = 128

_CONSTANTS = np.array(
    [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32
)[:, None]

_P1305 = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_MASK26 = (1 << 26) - 1
_HIGH_BIT = 1 << 128


class ChaChaAuthError(Exception):
    """Raised when a Poly1305 tag fails to verify."""


# ----------------------------------------------------------------------
# ChaCha20
# ----------------------------------------------------------------------


class _KeyStream:
    """ChaCha20 state for up to ``capacity`` blocks of one key and nonce.

    Rows of the single buffer: a (4), b (4 + 1 mirror after), c (4 + 2
    mirrors after), d (1 mirror before + 4), and 4 rows of scratch for
    the rotations.
    """

    def __init__(self, key: bytes, nonce: bytes, capacity: int):
        words = np.frombuffer(key, dtype="<u4").astype(np.uint32)
        self._key_lo = words[:4, None]
        self._key_hi = words[4:, None]
        self._nonce = np.frombuffer(nonce, dtype="<u4").astype(np.uint32)[:, None]
        self._buffer = np.empty(24 * capacity, dtype=np.uint32)

    def run(self, counter: int, n: int) -> tuple[np.ndarray, ...]:
        """The keystream of blocks ``counter .. counter+n-1`` as (a, b, c, d).

        Block ``i`` of the keystream is ``a[:, i], b[:, i], c[:, i],
        d[:, i]`` read in order as little-endian words.  The views stay
        valid until the next call.
        """
        # Contiguous rows for any n: numpy takes a much slower path for
        # ufuncs over strided 2-D views.
        s = self._buffer[: 24 * n].reshape(24, n)
        a, b_buf, c_buf, d_buf, t = s[0:4], s[4:9], s[9:15], s[15:20], s[20:24]
        b, c, d = b_buf[0:4], c_buf[0:4], d_buf[1:5]
        counters = np.arange(n, dtype=np.uint32)
        counters += np.uint32(counter & 0xFFFFFFFF)  # the 32-bit counter wraps
        a[:] = _CONSTANTS
        b[:] = self._key_lo
        c[:] = self._key_hi
        d[0] = counters
        d[1:] = self._nonce
        # A diagonal round pairs a[i] with b[i+1], c[i+2] and d[i+3], that
        # is d[i-1]: the views below start 1 and 2 rows into b and c and 1
        # row before d, with the wrapped rows mirrored before the round
        # and copied back after it.
        diagonal = (a, b_buf[1:5], c_buf[2:6], d_buf[0:4])
        mirrors = (
            (b_buf[4:5], b_buf[0:1]),
            (c_buf[4:6], c_buf[0:2]),
            (d_buf[0:1], d_buf[4:5]),
        )
        column = (a, b, c, d)
        copyto = np.copyto
        for _ in range(10):
            _round(column, t)
            for spare, row in mirrors:
                copyto(spare, row)
            _round(diagonal, t)
            for spare, row in mirrors:
                copyto(row, spare)
        a += _CONSTANTS
        b += self._key_lo
        c += self._key_hi
        d[0] += counters
        d[1:] += self._nonce
        return a, b, c, d


#: The four steps of a quarter round: indices into (a, b, c, d) of
#: x, y, z in ``x += y; z ^= x; z <<<= left``, then left and 32 - left.
_STEPS = tuple(
    (roles, np.uint32(left), np.uint32(32 - left))
    for roles, left in (((0, 1, 3), 16), ((2, 3, 1), 12), ((0, 1, 3), 8), ((2, 3, 1), 7))
)


def _round(rows: tuple[np.ndarray, ...], t: np.ndarray) -> None:
    """One ChaCha20 round: a quarter round on each row of (a, b, c, d) at once."""
    add, xor, shl, shr, bor = (
        np.add, np.bitwise_xor, np.left_shift, np.right_shift, np.bitwise_or
    )
    for (i, j, k), left, right in _STEPS:
        x, y, z = rows[i], rows[j], rows[k]
        add(x, y, x)
        xor(z, x, z)
        shl(z, left, t)
        shr(z, right, z)
        bor(z, t, z)


def _block_bytes(rows: tuple[np.ndarray, ...], index: int) -> bytes:
    """Keystream block ``index`` of a :meth:`_KeyStream.run` result."""
    return np.concatenate([group[:, index] for group in rows]).astype("<u4").tobytes()


def _xor_into(rows: tuple[np.ndarray, ...], src: np.ndarray, dst: np.ndarray) -> None:
    """``dst = src ^ keystream`` for uint8 arrays of at most ``64 * n`` bytes."""
    full, tail = divmod(len(src), 64)
    if full:
        # Lay the keystream out in dst first: a ufunc reading the
        # transposed rows directly would buffer them.
        words = dst[: 64 * full].view("<u4").reshape(full, 16)
        for i, group in enumerate(rows):
            np.copyto(words[:, 4 * i : 4 * i + 4], group[:, :full].T)
        np.bitwise_xor(dst[: 64 * full], src[: 64 * full], out=dst[: 64 * full])
    if tail:
        last = np.frombuffer(_block_bytes(rows, full), dtype=np.uint8)
        np.bitwise_xor(src[64 * full :], last[:tail], out=dst[64 * full :])


def _crypt(
    key: bytes,
    nonce: bytes,
    counter: int,
    src: np.ndarray,
    dst: np.ndarray,
    aad: bytes | None = None,
    ciphertext: np.ndarray | None = None,
) -> bytes | None:
    """XOR ``src`` into ``dst`` with the keystream from block ``counter``.

    With ``aad`` given this is the RFC 8439 AEAD pass: the first
    keystream call also yields block ``counter - 1``, whose first 32
    bytes are the Poly1305 key, and the MAC of ``aad`` and
    ``ciphertext`` (``src`` when opening, ``dst`` when sealing) is
    returned.
    """
    size = len(src)
    lead = 0 if aad is None else 1
    stream = _KeyStream(key, nonce, lead + min(-(-size // 64), _CHUNK_BLOCKS))
    block = counter - lead
    mac = None
    # An empty seal still makes one call, for the MAC key.
    for start in range(0, size, _CHUNK) or range(1):
        stop = min(start + _CHUNK, size)
        n = lead + -(-(stop - start) // 64)
        rows = stream.run(block, n)
        block += n
        if lead:
            mac = _Poly1305(_block_bytes(rows, 0)[:32])
            mac.update_padded(memoryview(aad))
            rows = tuple(group[:, 1:] for group in rows)
            lead = 0
        _xor_into(rows, src[start:stop], dst[start:stop])
        if mac is not None:
            mac.update_padded(ciphertext[start:stop])
    if mac is None:
        return None
    mac.update(struct.pack("<QQ", len(aad), size))
    return mac.digest()


def _check_key_nonce(key: bytes, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


def chacha20_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypt == decrypt)."""
    _check_key_nonce(key, nonce)
    if not 0 <= counter < 1 << 64:
        raise ValueError("ChaCha20 block counter out of range")
    if not data:
        return b""
    out = np.empty(len(data), dtype=np.uint8)
    _crypt(key, nonce, counter, np.frombuffer(data, dtype=np.uint8), out)
    return out.tobytes()


# ----------------------------------------------------------------------
# Poly1305
# ----------------------------------------------------------------------


class _Poly1305:
    """Streaming Poly1305 over whole 16-byte blocks, then a short tail."""

    def __init__(self, key: bytes):
        self._r = int.from_bytes(key[:16], "little") & _CLAMP
        self._s = int.from_bytes(key[16:32], "little")
        self._acc = 0
        #: r^L, and r^L .. r^1 as (L, 5) 26-bit limbs; made on the first
        #: input of at least one row.
        self._r_lanes = 0
        self._weights: np.ndarray | None = None

    def update(self, data) -> None:
        """Absorb ``data``, a whole number of 16-byte blocks."""
        n = len(data) // 16
        if n < _LANES:
            self._scalar(memoryview(data).cast("B"), n)
        else:
            for start in range(0, n, _CHUNK // 16):
                self._rows(data, start, min(n, start + _CHUNK // 16))

    def update_padded(self, data) -> None:
        """Absorb ``data`` zero-padded to a whole number of blocks."""
        full = len(data) - len(data) % 16
        self.update(data[:full])
        if full < len(data):
            self.update(bytes(data[full:]).ljust(16, b"\x00"))

    def digest(self, tail: bytes = b"") -> bytes:
        """The tag, after absorbing a final block of fewer than 16 bytes."""
        acc = self._acc
        if tail:
            n = int.from_bytes(tail, "little") + (1 << (8 * len(tail)))
            acc = (acc + n) * self._r % _P1305
        return ((acc + self._s) & ((1 << 128) - 1)).to_bytes(16, "little")

    def _scalar(self, view: memoryview, n: int) -> None:
        acc, r = self._acc, self._r
        for off in range(0, 16 * n, 16):
            acc = (acc + int.from_bytes(view[off : off + 16], "little") + _HIGH_BIT) * r % _P1305
        self._acc = acc

    def _rows(self, data, first: int, stop: int) -> None:
        """Absorb blocks ``first .. stop-1`` of ``data`` row by row."""
        if self._weights is None:
            self._make_weights()
        n = stop - first
        rows, tail = divmod(n, _LANES)
        full = rows * _LANES
        weights = self._weights
        sums = np.zeros((rows + (tail > 0), 9), dtype=np.uint64)
        limb = np.empty(n, dtype=np.uint64)

        def absorb(position: int) -> None:
            # Row sums of limb * weight land at limb positions
            # position .. position+4 of each row.
            if rows:
                sums[:rows, position : position + 5] += limb[:full].reshape(rows, _LANES) @ weights
            if tail:
                sums[rows, position : position + 5] += limb[full:] @ weights[_LANES - tail :]

        # Each block is (hi:lo), two little-endian words read in place.
        lo, hi = (
            np.ndarray((n,), dtype="<u8", buffer=data, offset=16 * first + 8 * word, strides=(16,))
            for word in (0, 1)
        )
        np.bitwise_and(lo, _MASK26, out=limb)
        absorb(0)
        np.right_shift(lo, 26, out=limb)
        limb &= _MASK26
        absorb(1)
        # Limb 2 straddles the words; absorb its two parts separately
        # rather than hold a second buffer to join them.
        np.right_shift(lo, 52, out=limb)
        absorb(2)
        np.bitwise_and(hi, (1 << 14) - 1, out=limb)
        limb <<= 12
        absorb(2)
        np.right_shift(hi, 14, out=limb)
        limb &= _MASK26
        absorb(3)
        np.right_shift(hi, 40, out=limb)
        limb |= 1 << 24  # the 2^128 pad bit
        absorb(4)
        acc = self._acc
        for index, row in enumerate(sums.tolist()):
            power = self._r_lanes if index < rows else pow(self._r, tail, _P1305)
            total = 0
            for k in range(8, -1, -1):
                total = (total << 26) + row[k]
            acc = (acc * power + total) % _P1305
        self._acc = acc

    def _make_weights(self) -> None:
        # Row i of the weights is r^(L-i), written as 17 little-endian
        # bytes into 24-byte slots and split into 26-bit limbs.
        r = self._r
        raw = bytearray(24 * _LANES)
        power = 1
        for i in range(_LANES - 1, -1, -1):
            power = power * r % _P1305
            raw[24 * i : 24 * i + 17] = power.to_bytes(17, "little")
        lo, mid, hi = np.frombuffer(raw, dtype="<u8").reshape(_LANES, 3).T
        weights = np.empty((_LANES, 5), dtype=np.uint64)
        weights[:, 0] = lo & _MASK26
        weights[:, 1] = (lo >> 26) & _MASK26
        weights[:, 2] = ((lo >> 52) | (mid << 12)) & _MASK26
        weights[:, 3] = (mid >> 14) & _MASK26
        weights[:, 4] = (mid >> 40) | (hi << 24)
        self._r_lanes, self._weights = power, weights


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the Poly1305 MAC of ``message`` under a 32-byte one-time key."""
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    mac = _Poly1305(key)
    view = memoryview(message).cast("B")
    full = len(view) - len(view) % 16
    mac.update(view[:full])
    return mac.digest(bytes(view[full:]))


# ----------------------------------------------------------------------
# AEAD
# ----------------------------------------------------------------------


class ChaCha20Poly1305:
    """RFC 8439 AEAD construction.

    >>> aead = ChaCha20Poly1305(bytes(32))
    >>> ct = aead.encrypt(bytes(12), b"hello", b"aad")
    >>> aead.decrypt(bytes(12), ct, b"aad")
    b'hello'
    """

    name = "chacha20-poly1305"
    key_size = 32
    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("ChaCha20-Poly1305 key must be 32 bytes")
        self._key = key

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        _check_key_nonce(self._key, nonce)
        size = len(plaintext)
        out = np.empty(size + self.tag_size, dtype=np.uint8)
        body = out[:size]
        src = np.frombuffer(plaintext, dtype=np.uint8)
        out[size:] = np.frombuffer(
            _crypt(self._key, nonce, 1, src, body, aad, ciphertext=body), dtype=np.uint8
        )
        return out.tobytes()

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`ChaChaAuthError` on mismatch."""
        if len(data) < self.tag_size:
            raise ChaChaAuthError("ciphertext shorter than the authentication tag")
        _check_key_nonce(self._key, nonce)
        size = len(data) - self.tag_size
        src = np.frombuffer(data, dtype=np.uint8, count=size)
        out = np.empty(size, dtype=np.uint8)
        tag = _crypt(self._key, nonce, 1, src, out, aad, ciphertext=src)
        if not hmac.compare_digest(tag, bytes(data[size:])):
            raise ChaChaAuthError("Poly1305 tag verification failed")
        return out.tobytes()
