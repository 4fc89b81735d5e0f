"""Frame schema: encode/decode round-trips, headers, close accounting."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.comm import (
    FRAME_MAGIC,
    KIND_GRADIENT,
    CloseFrame,
    DiffFrame,
    GradientFrame,
    ModelFrame,
    decode_frame,
    encode_frame,
    peek_kind,
    reply_frame,
)
from repro.compression import SparseTensor
from repro.ps.messages import DiffMessage, GradientMessage, ModelMessage


def _sparse(n=8, nnz=3):
    idx = np.arange(nnz, dtype=np.int64)
    return SparseTensor(idx, np.linspace(0.5, 1.5, nnz), (n,))


class TestGradientFrame:
    def test_roundtrip_preserves_header_and_payload(self):
        msg = GradientMessage(worker_id=3, payload={"w": _sparse()}, local_iteration=11)
        frame = GradientFrame(msg, loss=1.75)
        out = decode_frame(encode_frame(frame))
        assert isinstance(out, GradientFrame)
        assert out.worker_id == 3
        assert out.loss == 1.75
        assert out.message.local_iteration == 11
        np.testing.assert_array_equal(out.message.payload["w"].indices, _sparse().indices)

    def test_nbytes_matches_message(self):
        msg = GradientMessage(0, {"w": _sparse()}, 0)
        frame = GradientFrame(msg, loss=0.0)
        assert frame.nbytes() == msg.nbytes()
        assert frame.dense_nbytes() == msg.dense_nbytes()


class TestDownstreamFrames:
    def test_diff_roundtrip_keeps_staleness(self):
        msg = DiffMessage(1, {"w": _sparse()}, server_timestamp=42, staleness=5)
        out = decode_frame(encode_frame(DiffFrame(msg)))
        assert isinstance(out, DiffFrame)
        assert out.message.staleness == 5
        assert out.message.server_timestamp == 42

    def test_model_roundtrip(self):
        dense = np.linspace(-1, 1, 6).reshape(2, 3)
        msg = ModelMessage(2, {"w": dense}, server_timestamp=7, staleness=0)
        out = decode_frame(encode_frame(ModelFrame(msg)))
        assert isinstance(out, ModelFrame)
        np.testing.assert_allclose(out.message.payload["w"], dense, atol=1e-6)

    def test_reply_frame_wraps_by_type(self):
        diff = DiffMessage(0, {}, 0, 0)
        model = ModelMessage(0, {}, 0, 0)
        assert isinstance(reply_frame(diff), DiffFrame)
        assert isinstance(reply_frame(model), ModelFrame)
        with pytest.raises(TypeError):
            reply_frame(GradientMessage(0, {}, 0))


class TestCloseFrame:
    @pytest.mark.parametrize(
        "frame",
        [
            CloseFrame(worker_id=2, samples_processed=640, worker_state_bytes=1 << 20),
            CloseFrame(worker_id=5, samples_processed=0, error="ValueError: boom"),
            CloseFrame(worker_id=0),  # nothing reported
        ],
    )
    def test_roundtrip_identity(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_close_frames_cost_no_payload_bytes(self):
        frame = CloseFrame(worker_id=1, samples_processed=10)
        assert frame.nbytes() == 0 and frame.dense_nbytes() == 0

    def test_empty_error_normalises_to_none(self):
        out = decode_frame(encode_frame(CloseFrame(worker_id=1, error="")))
        assert out.error is None


class TestWireErrors:
    def test_bad_magic_rejected(self):
        raw = bytearray(encode_frame(CloseFrame(worker_id=0)))
        assert raw[0] == FRAME_MAGIC
        raw[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode_frame(bytes(raw))

    def test_unknown_kind_rejected(self):
        raw = bytearray(encode_frame(CloseFrame(worker_id=0)))
        raw[1] = 99
        with pytest.raises(ValueError, match="kind"):
            decode_frame(bytes(raw))

    def test_truncated_frame_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_frame(b"\xdf")

    def test_kind_payload_mismatch_rejected(self):
        # a gradient frame must wrap a GradientMessage: splice a diff body in
        grad = encode_frame(GradientFrame(GradientMessage(0, {"w": _sparse()}, 0), 0.0))
        diff = encode_frame(DiffFrame(DiffMessage(0, {"w": _sparse()}, 0, 0)))
        # header (4) + loss (8) from the gradient, codec body after the
        # diff's header (4) + staleness (4)
        spliced = grad[:12] + diff[8:]
        with pytest.raises(ValueError):
            decode_frame(spliced)


class TestShardRouting:
    def test_default_shard_is_whole_server(self):
        frame = GradientFrame(GradientMessage(0, {"w": _sparse()}, 0), 0.0)
        assert frame.shard == -1
        assert decode_frame(encode_frame(frame)).shard == -1

    @pytest.mark.parametrize("shard", [0, 3, 1000])
    def test_shard_roundtrips_on_payload_frames(self, shard):
        grad = GradientFrame(GradientMessage(1, {"w": _sparse()}, 2), 0.5, shard=shard)
        out = decode_frame(encode_frame(grad))
        assert out.shard == shard
        diff = DiffFrame(DiffMessage(1, {"w": _sparse()}, 4, 1), shard=shard)
        assert decode_frame(encode_frame(diff)).shard == shard
        model = ModelFrame(
            ModelMessage(1, {"w": np.zeros(4)}, 4, 1), shard=shard
        )
        assert decode_frame(encode_frame(model)).shard == shard

    def test_peek_kind_reads_header_without_decoding(self):
        raw = encode_frame(
            GradientFrame(GradientMessage(0, {"w": _sparse()}, 0), 0.0, shard=7)
        )
        # the fixed-size header is enough: the payload may be truncated
        assert peek_kind(raw[:4]) == KIND_GRADIENT
        with pytest.raises(ValueError, match="truncated"):
            peek_kind(raw[:3])
        bad = bytearray(raw)
        bad[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            peek_kind(bytes(bad))

    def test_control_frames_are_never_shard_addressed(self):
        raw = encode_frame(CloseFrame(worker_id=2))
        assert struct.unpack_from("<h", raw, 2) == (-1,)  # the header's shard slot

    def test_reply_frame_stamps_shard(self):
        reply = reply_frame(DiffMessage(0, {}, 0, 0), shard=5)
        assert reply.shard == 5
