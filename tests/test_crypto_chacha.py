"""ChaCha20-Poly1305: RFC 8439 vectors and security properties."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import chacha
from repro.crypto.chacha import (
    ChaCha20Poly1305,
    ChaChaAuthError,
    chacha20_xor,
    poly1305_mac,
)

SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)


class TestChaCha20Vectors:
    def test_rfc8439_section_2_4_2(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        ct = chacha20_xor(key, nonce, 1, SUNSCREEN)
        assert ct.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")
        assert ct.hex().endswith("874d")

    def test_xor_is_involution(self):
        key = bytes(32)
        nonce = bytes(12)
        data = bytes(range(256))
        assert chacha20_xor(key, nonce, 7, chacha20_xor(key, nonce, 7, data)) == data

    def test_counter_offsets_differ(self):
        key, nonce = bytes(32), bytes(12)
        assert chacha20_xor(key, nonce, 0, bytes(64)) != chacha20_xor(key, nonce, 1, bytes(64))

    def test_empty_data(self):
        assert chacha20_xor(bytes(32), bytes(12), 1, b"") == b""

    def test_bad_key_nonce_rejected(self):
        with pytest.raises(ValueError):
            chacha20_xor(bytes(16), bytes(12), 0, b"x")
        with pytest.raises(ValueError):
            chacha20_xor(bytes(32), bytes(8), 0, b"x")


class TestPoly1305:
    def test_rfc8439_section_2_5_2(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"

    def test_distinct_messages_distinct_tags(self):
        key = bytes(range(32))
        assert poly1305_mac(key, b"a") != poly1305_mac(key, b"b")

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            poly1305_mac(bytes(16), b"x")


class TestChaChaPolyAead:
    def test_rfc8439_section_2_8_2(self):
        key = bytes.fromhex(
            "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
        )
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        aead = ChaCha20Poly1305(key)
        out = aead.encrypt(nonce, SUNSCREEN, aad)
        assert out[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
        assert aead.decrypt(nonce, out, aad) == SUNSCREEN

    def test_tamper_detected(self):
        aead = ChaCha20Poly1305(bytes(32))
        out = bytearray(aead.encrypt(bytes(12), b"tensor bytes"))
        out[3] ^= 0x80
        with pytest.raises(ChaChaAuthError):
            aead.decrypt(bytes(12), bytes(out))

    def test_aad_binding(self):
        aead = ChaCha20Poly1305(bytes(32))
        out = aead.encrypt(bytes(12), b"x", b"good")
        with pytest.raises(ChaChaAuthError):
            aead.decrypt(bytes(12), out, b"evil")

    def test_truncated_rejected(self):
        with pytest.raises(ChaChaAuthError, match="shorter"):
            ChaCha20Poly1305(bytes(32)).decrypt(bytes(12), b"abc")

    def test_large_tensor_payload_roundtrip(self):
        rng = np.random.default_rng(1)
        payload = rng.integers(0, 256, size=1_000_000, dtype=np.uint8).tobytes()
        aead = ChaCha20Poly1305(bytes(32))
        out = aead.encrypt(bytes(12), payload)
        assert aead.decrypt(bytes(12), out) == payload

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            ChaCha20Poly1305(bytes(16))


# ----------------------------------------------------------------------
# A plain scalar RFC 8439 reference, written straight from the RFC text
# and independent of the library, to compare the vectorized pass with.
# ----------------------------------------------------------------------

_M32 = 0xFFFFFFFF


def _ref_block(key: bytes, nonce: bytes, counter: int) -> bytes:
    def quarter(s, a, b, c, d):
        for x, y, z, n in ((a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)):
            s[x] = (s[x] + s[y]) & _M32
            v = s[z] ^ s[x]
            s[z] = ((v << n) & _M32) | (v >> (32 - n))

    state = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
    state += list(struct.unpack("<8I", key)) + [counter & _M32]
    state += list(struct.unpack("<3I", nonce))
    work = list(state)
    for _ in range(10):
        quarter(work, 0, 4, 8, 12)
        quarter(work, 1, 5, 9, 13)
        quarter(work, 2, 6, 10, 14)
        quarter(work, 3, 7, 11, 15)
        quarter(work, 0, 5, 10, 15)
        quarter(work, 1, 6, 11, 12)
        quarter(work, 2, 7, 8, 13)
        quarter(work, 3, 4, 9, 14)
    return struct.pack("<16I", *((w + s) & _M32 for w, s in zip(work, state)))


def _ref_xor(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(data), 64):
        stream = _ref_block(key, nonce, counter + i // 64)
        out += bytes(x ^ y for x, y in zip(data[i : i + 64], stream))
    return bytes(out)


def _ref_poly1305(key: bytes, message: bytes) -> bytes:
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    p = (1 << 130) - 5
    acc = 0
    for i in range(0, len(message), 16):
        acc = (acc + int.from_bytes(message[i : i + 16] + b"\x01", "little")) * r % p
    return ((acc + s) % (1 << 128)).to_bytes(16, "little")


def _ref_seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    def pad(data):
        return data + bytes(-len(data) % 16)

    ciphertext = _ref_xor(key, nonce, 1, plaintext)
    mac_data = pad(aad) + pad(ciphertext) + struct.pack("<QQ", len(aad), len(ciphertext))
    return ciphertext + _ref_poly1305(_ref_block(key, nonce, 0)[:32], mac_data)


# ----------------------------------------------------------------------
# RFC 8439 Appendix A
# ----------------------------------------------------------------------

IETF_CONTRIBUTION = (
    b"Any submission to the IETF intended by the Contributor for publication as "
    b"all or part of an IETF Internet-Draft or RFC and any statement made within "
    b"the context of an IETF activity is considered an \"IETF Contribution\". Such "
    b"statements include oral statements in IETF sessions, as well as written and "
    b"electronic communications made at any time or place, which are addressed to"
)
JABBERWOCKY = (
    b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\n"
    b"All mimsy were the borogoves,\nAnd the mome raths outgrabe."
)
KEY_A = bytes.fromhex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0")
NONCE_2 = bytes(11) + b"\x02"

# A.1: (key, nonce, block counter, keystream block)
A1_BLOCKS = [
    (bytes(32), bytes(12), 0,
     "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
     "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"),
    (bytes(32), bytes(12), 1,
     "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
     "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"),
    (bytes(31) + b"\x01", bytes(12), 1,
     "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
     "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0"),
    (b"\x00\xff" + bytes(30), bytes(12), 2,
     "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
     "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096"),
    (bytes(32), NONCE_2, 0,
     "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
     "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"),
]

# A.2: (key, nonce, initial counter, plaintext, ciphertext)
A2_ENCRYPTIONS = [
    (bytes(32), bytes(12), 0, bytes(64), A1_BLOCKS[0][3]),
    (bytes(31) + b"\x01", NONCE_2, 1, IETF_CONTRIBUTION,
     "a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec"
     "2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d"
     "4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950"
     "42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a"
     "d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d"
     "c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b"
     "0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c"
     "cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b"
     "c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f"
     "5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6"
     "98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab"
     "7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221"),
    (KEY_A, NONCE_2, 42, JABBERWOCKY,
     "62e6347f95ed87a45ffae7426f27a1df5fb69110044c0d73118effa95b01e5cf"
     "166d3df2d721caf9b21e5fb14c616871fd84c54f9d65b283196c7fe4f60553eb"
     "f39c6402c42234e32a356b3e764312a61a5532055716ead6962568f87d3f3f77"
     "04c6a8d1bcd1bf4d50d6154b6da731b187b58dfd728afa36757a797ac188d1"),
]

_R_A3_10 = "0100000000000000" "0400000000000000" + "00" * 16
_DATA_A3_11 = bytes.fromhex(
    "e33594d7505e43b90000000000000000"
    "3394d7505e4379cd0100000000000000"
    "00000000000000000000000000000000"
)

# A.3: (one-time key, message, tag); #5-#11 probe the final reduction
# and the carries between limbs.
A3_MACS = [
    ("00" * 32, bytes(64), "00" * 16),
    ("00" * 16 + "36e5f6b5c5e06070f0efca96227a863e", IETF_CONTRIBUTION,
     "36e5f6b5c5e06070f0efca96227a863e"),
    ("36e5f6b5c5e06070f0efca96227a863e" + "00" * 16, IETF_CONTRIBUTION,
     "f3477e7cd95417af89a6b8794c310cf0"),
    (KEY_A.hex(), JABBERWOCKY, "4541669a7eaaee61e708dc7cbcc5eb62"),
    ("02" + "00" * 31, b"\xff" * 16, "03" + "00" * 15),
    ("02" + "00" * 15 + "ff" * 16, b"\x02" + bytes(15), "03" + "00" * 15),
    ("01" + "00" * 31, b"\xff" * 16 + b"\xf0" + b"\xff" * 15 + b"\x11" + bytes(15),
     "05" + "00" * 15),
    ("01" + "00" * 31, b"\xff" * 16 + b"\xfb" + b"\xfe" * 15 + b"\x01" * 16, "00" * 16),
    ("02" + "00" * 31, b"\xfd" + b"\xff" * 15, "fa" + "ff" * 15),
    (_R_A3_10, _DATA_A3_11 + b"\x01" + bytes(15), "14000000000000005500000000000000"),
    (_R_A3_10, _DATA_A3_11, "13" + "00" * 15),
]

A5_PLAINTEXT = (
    b"Internet-Drafts are draft documents valid for a maximum of six months "
    b"and may be updated, replaced, or obsoleted by other documents at any "
    b"time. It is inappropriate to use Internet-Drafts as reference material "
    b"or to cite them other than as /\xe2\x80\x9cwork in progress./\xe2\x80\x9d"
)
A5_RECORD = bytes.fromhex(
    "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2"
    "4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf"
    "332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855"
    "9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4"
    "b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e"
    "af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a"
    "0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10"
    "49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29"
    "a6ad5cb4022b02709b"
    "eead9d67890cbb22392336fea1851f38"  # tag
)


class TestRfc8439AppendixA:
    @pytest.mark.parametrize("key,nonce,counter,expected", A1_BLOCKS)
    def test_a1_block_function(self, key, nonce, counter, expected):
        assert chacha20_xor(key, nonce, counter, bytes(64)).hex() == expected
        assert _ref_block(key, nonce, counter).hex() == expected

    @pytest.mark.parametrize("key,nonce,counter,plaintext,expected", A2_ENCRYPTIONS)
    def test_a2_encryption(self, key, nonce, counter, plaintext, expected):
        assert chacha20_xor(key, nonce, counter, plaintext).hex() == expected

    @pytest.mark.parametrize("key,message,expected", A3_MACS)
    def test_a3_poly1305(self, key, message, expected):
        assert poly1305_mac(bytes.fromhex(key), message).hex() == expected
        assert _ref_poly1305(bytes.fromhex(key), message).hex() == expected

    @pytest.mark.parametrize("key,message,_", A3_MACS)
    def test_a3_messages_past_one_lane_row(self, key, message, _):
        # Tiled past one row of lanes, the edge-case blocks go through
        # the limb arithmetic instead of the scalar loop.
        key = bytes.fromhex(key)
        tiled = message * (-(-16 * chacha._LANES * 2 // len(message)) + 1)
        assert poly1305_mac(key, tiled) == _ref_poly1305(key, tiled)

    def test_a5_aead_decryption(self):
        aead = ChaCha20Poly1305(KEY_A)
        nonce = bytes.fromhex("000000000102030405060708")
        aad = bytes.fromhex("f33388860000000000004e91")
        assert aead.decrypt(nonce, A5_RECORD, aad) == A5_PLAINTEXT
        assert aead.encrypt(nonce, A5_PLAINTEXT, aad) == A5_RECORD


# ----------------------------------------------------------------------
# The streaming pass against the reference
# ----------------------------------------------------------------------

_ROW = 16 * chacha._LANES
_CHUNK = chacha._CHUNK


def _inputs(seed: int, length: int, aad_len: int):
    rng = np.random.default_rng(seed)
    return rng.bytes(32), rng.bytes(12), rng.bytes(length), rng.bytes(aad_len)


class TestAgainstScalarReference:
    @given(
        length=st.integers(0, 130)
        | st.sampled_from([_ROW - 16, _ROW - 1, _ROW, _ROW + 1, _ROW + 16, 3 * _ROW + 7]),
        aad_len=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=_CHUNK - 1, aad_len=13, seed=1)
    @example(length=_CHUNK, aad_len=0, seed=2)
    @example(length=_CHUNK + 1, aad_len=40, seed=3)
    @example(length=2 * _CHUNK + _ROW + 5, aad_len=16, seed=4)
    @settings(max_examples=80, deadline=None)
    def test_seal_and_open_match_reference(self, length, aad_len, seed):
        key, nonce, plaintext, aad = _inputs(seed, length, aad_len)
        aead = ChaCha20Poly1305(key)
        record = aead.encrypt(nonce, plaintext, aad)
        assert record == _ref_seal(key, nonce, plaintext, aad)
        assert aead.decrypt(nonce, record, aad) == plaintext
        assert poly1305_mac(key, plaintext) == _ref_poly1305(key, plaintext)

    def test_xor_counter_wraps_at_32_bits(self):
        key, nonce, data, _ = _inputs(5, 200, 0)
        assert chacha20_xor(key, nonce, _M32, data) == _ref_xor(key, nonce, _M32, data)


class TestStreamingPass:
    def test_tamper_anywhere_is_rejected(self):
        key, nonce, plaintext, aad = _inputs(6, 2 * _CHUNK + 100, 20)
        aead = ChaCha20Poly1305(key)
        record = aead.encrypt(nonce, plaintext, aad)
        size = len(plaintext)
        positions = {
            "first ciphertext byte": 0,
            "last byte of chunk 1": _CHUNK - 1,
            "last byte of chunk 2": 2 * _CHUNK - 1,
            "final partial block": size - 1,
            "tag": size + 7,
        }
        for where, index in positions.items():
            tampered = bytearray(record)
            tampered[index] ^= 0x01
            with pytest.raises(ChaChaAuthError):
                aead.decrypt(nonce, bytes(tampered), aad)
                pytest.fail(f"flip in the {where} was accepted")
        bad_aad = bytearray(aad)
        bad_aad[len(aad) // 2] ^= 0x01
        with pytest.raises(ChaChaAuthError):
            aead.decrypt(nonce, record, bytes(bad_aad))
        assert aead.decrypt(nonce, record, aad) == plaintext

    @pytest.mark.parametrize(
        "size,calls", [(0, 1), (1024, 1), (_CHUNK, 1), (_CHUNK + 1, 2), (3 * _CHUNK, 3)]
    )
    def test_keystream_computed_once_per_chunk(self, monkeypatch, size, calls):
        counted = []
        run = chacha._KeyStream.run

        def counting_run(self, counter, n):
            counted.append(n)
            return run(self, counter, n)

        monkeypatch.setattr(chacha._KeyStream, "run", counting_run)
        aead = ChaCha20Poly1305(bytes(32))
        record = aead.encrypt(bytes(12), bytes(size))
        assert len(counted) == calls
        counted.clear()
        assert aead.decrypt(bytes(12), record) == bytes(size)
        assert len(counted) == calls

    # Peaks of the implementation this pass replaced, in MiB: (seal, open).
    @pytest.mark.parametrize(
        "size,limits", [(32 << 10, (0.13, 0.16)), (217 << 10, (0.85, 1.06)), (1 << 20, (4.0, 5.0))]
    )
    def test_peak_memory_no_higher_than_before(self, size, limits):
        key, nonce, plaintext, aad = _inputs(7, size, 24)
        aead = ChaCha20Poly1305(key)
        record = aead.encrypt(nonce, plaintext, aad)
        peaks = []
        for call, data in ((aead.encrypt, plaintext), (aead.decrypt, record)):
            tracemalloc.start()
            try:
                call(nonce, data, aad)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= limits[0], f"seal peak {peaks[0]:.3f} MiB"
        assert peaks[1] <= limits[1], f"open peak {peaks[1]:.3f} MiB"
