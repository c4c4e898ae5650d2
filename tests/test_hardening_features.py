"""Channel key ratcheting, input validation, DOT export, batched inputs."""

import numpy as np
import pytest

from repro.crypto.kdf import hkdf_sha256
from repro.mvx import MvteeSystem
from repro.mvx.scheduler import InferenceOptions, validate_feeds
from repro.serving import ParallelStageExecutor
from repro.tee.channel import ChannelError, SecureChannel
from repro.zoo import build_model


def channel_pair(interval: int):
    key_a = hkdf_sha256(b"ratchet-a", length=32)
    key_b = hkdf_sha256(b"ratchet-b", length=32)
    kwargs = dict(aead_name="chacha20-poly1305", peer_report=None, channel_id="r",
                  rekey_interval=interval)
    sender = SecureChannel(send_key=key_a, recv_key=key_b, **kwargs)
    receiver = SecureChannel(send_key=key_b, recv_key=key_a, **kwargs)
    return sender, receiver


class TestChannelRatchet:
    def test_stream_survives_many_ratchets(self):
        sender, receiver = channel_pair(interval=8)
        for i in range(40):
            payload = f"record-{i}".encode()
            assert receiver.open(sender.protect(payload)) == payload
        assert receiver.generations == 4  # ratchets at 8, 16, 24, 32

    def test_keys_actually_change(self):
        sender, _ = channel_pair(interval=4)
        first_key = sender._send_key
        for _ in range(5):
            sender.protect(b"x")
        assert sender._send_key != first_key

    def test_forward_secrecy(self):
        """An old key cannot open records protected after a ratchet."""
        sender, receiver = channel_pair(interval=4)
        from repro.crypto.aead import get_aead

        old_recv_key = receiver._recv_key
        records = [sender.protect(f"r{i}".encode()) for i in range(6)]
        for record in records[:5]:
            receiver.open(record)
        # Post-ratchet record (seq 5) under the pre-ratchet key fails.
        old_aead = get_aead("chacha20-poly1305", old_recv_key)
        with pytest.raises(Exception):
            old_aead.decrypt((5).to_bytes(12, "big"), records[5], (5).to_bytes(8, "big"))
        # ...while the ratcheted channel opens it fine.
        assert receiver.open(records[5]) == b"r5"

    def test_failed_open_does_not_desync_ratchet(self):
        sender, receiver = channel_pair(interval=4)
        records = [sender.protect(f"r{i}".encode()) for i in range(5)]
        for record in records[:4]:
            receiver.open(record)
        with pytest.raises(ChannelError):
            receiver.open(b"garbage" * 10)  # at the ratchet boundary
        assert receiver.open(records[4]) == b"r4"

    def test_interval_zero_disables(self):
        sender, receiver = channel_pair(interval=0)
        first = sender._send_key
        for i in range(20):
            receiver.open(sender.protect(b"x"))
        assert sender._send_key == first


class TestInputValidation:
    @pytest.fixture(scope="class")
    def system(self, small_resnet):
        return MvteeSystem.deploy(
            small_resnet, num_partitions=2, mvx_partitions={},
            seed=0, verify_partitions=False, verify_variants=False,
        )

    def test_missing_input(self, system):
        with pytest.raises(ValueError, match="missing input"):
            system.infer({})

    def test_unexpected_input(self, system, small_input):
        with pytest.raises(ValueError, match="unexpected input"):
            system.infer({"input": small_input, "backdoor": small_input})

    def test_wrong_shape(self, system):
        bad = np.zeros((1, 3, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            system.infer({"input": bad})

    def test_wrong_dtype(self, system):
        bad = np.zeros((1, 3, 16, 16), dtype=np.float64)
        with pytest.raises(ValueError, match="dtype"):
            system.infer({"input": bad})

    def test_non_array(self, system):
        with pytest.raises(ValueError, match="not an ndarray"):
            validate_feeds(system.monitor, {"input": [[1, 2]]})

    def test_valid_passes(self, system, small_input):
        validate_feeds(system.monitor, {"input": small_input})


class TestDotExport:
    def test_dot_structure(self, tiny_cnn):
        dot = tiny_cnn.to_dot()
        assert dot.startswith('digraph "tiny-cnn"')
        for node in tiny_cnn.nodes:
            assert node.name in dot
        assert "->" in dot

    def test_partition_coloring(self, tiny_cnn):
        from repro.partition import slice_by_indices

        ps = slice_by_indices(tiny_cnn, [3])
        dot = tiny_cnn.to_dot(partition_of=ps.assignment())
        assert "#8dd3c7" in dot  # partition 0 color
        assert "\\np1" in dot


class TestParallelDispatch:
    def test_parallel_matches_serial(self, small_resnet, small_input):
        serial = MvteeSystem.deploy(
            small_resnet, num_partitions=3, mvx_partitions={1: 3},
            seed=0, verify_partitions=False, verify_variants=False,
        )
        parallel = MvteeSystem.deploy(
            small_resnet, num_partitions=3, mvx_partitions={1: 3},
            seed=0, verify_partitions=False, verify_variants=False,
        )
        out_s = serial.infer({"input": small_input})
        with ParallelStageExecutor(4) as executor:
            out_p = parallel.infer(
                {"input": small_input}, InferenceOptions(dispatcher=executor)
            )
        for name in out_s:
            assert np.allclose(out_s[name], out_p[name], atol=1e-6)

    def test_parallel_detection_still_works(self, small_resnet, small_input):
        from repro.mvx import ResponseAction
        from repro.runtime.faults import FaultInjector

        system = MvteeSystem.deploy(
            small_resnet, num_partitions=3, mvx_partitions={1: 3},
            seed=0, verify_partitions=False, verify_variants=False,
        )
        system.monitor.response_action = ResponseAction.DROP_VARIANT
        victim = system.monitor.stage_connections(1)[0]
        FaultInjector(victim.host.runtime).arm_backend_bitflip(bit=30)
        with ParallelStageExecutor(4) as executor:
            system.infer({"input": small_input}, InferenceOptions(dispatcher=executor))
        assert system.monitor.divergence_events()


class TestDeadChannelTransform:
    def test_equivalent_and_layout_changing(self, small_resnet):
        from repro.variants import apply_transforms, verify_equivalent

        transformed = apply_transforms(small_resnet, ["dead-channel-insert"], seed=4)
        verify_equivalent(small_resnet, transformed, trials=1)
        assert transformed.weights_hash() != small_resnet.weights_hash()
        # Some conv gained a channel.
        grew = any(
            transformed.initializers[k].shape != small_resnet.initializers[k].shape
            for k in small_resnet.initializers
            if k in transformed.initializers
        )
        assert grew


class TestBatchedInputs:
    def test_mvx_with_batch_4(self):
        model = build_model("small-resnet", input_size=16, blocks_per_stage=1, batch=4)
        system = MvteeSystem.deploy(
            model, num_partitions=3, mvx_partitions={1: 3},
            seed=0, verify_partitions=False, verify_variants=False,
        )
        x = np.random.default_rng(0).normal(size=(4, 3, 16, 16)).astype(np.float32)
        outputs = system.infer({"input": x})
        out = next(iter(outputs.values()))
        assert out.shape[0] == 4
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-4)
