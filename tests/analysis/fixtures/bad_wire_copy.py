"""Deliberately bad module for PERF003: payload-sized copies on the wire.

Never imported — parsed only.  These are the shapes the encoder and the
socket channel had before the segmented codec: every flagged line copies
a whole payload (or a whole encoded frame) one more time; the tests
assert exact finding counts against this file.
"""

import struct

__all__ = ["encode_layer", "encode", "frame_of", "Channel"]

_LENGTH = struct.Struct("<I")
_HEADER = struct.Struct("<BBh")


def encode_layer(name_b, layer):
    body = (
        struct.pack("<I", layer.nnz)
        + layer.indices.astype("<u4").tobytes()  # PERF003
        + layer.values.astype("<f4").tobytes()  # PERF003
    )
    return struct.pack("<HB", len(name_b), 1) + name_b + body  # small parts: not flagged


def encode(header, layers):
    parts = [header]
    for name_b, layer in layers:
        parts.append(encode_layer(name_b, layer))
    return b"".join(parts)  # PERF003


def frame_of(message, join_segments, message_segments, shard):
    return _HEADER.pack(0xDF, 0, shard) + join_segments(message_segments(message))  # PERF003


class Channel:
    def __init__(self, sock):
        self._sock = sock

    def send_raw(self, raw):
        self._sock.sendall(_LENGTH.pack(len(raw)) + raw)  # PERF003

    def send(self, frame, encode_frame):
        payload = encode_frame(frame)  # PERF003 — a whole-frame encode on a send path
        record = _LENGTH.pack(len(payload)) + payload  # PERF003 — assigned from an encoder
        self._sock.sendall(record)

    def send_frame(self, frame, encode_frame):
        self.send_raw(encode_frame(frame))  # PERF003 — the frame copied before the gather

    def send_segments(self, frame, frame_segments):
        # the right shape: the frame's own segments gathered behind the prefix
        segments = frame_segments(frame)
        self._sock.sendmsg([_LENGTH.pack(sum(map(len, segments))), *segments])

    def recv_exactly(self, n):
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)  # PERF003

    def close_frame(self, worker, err):
        # fixed-size fields and a short error string: the right use of '+'
        return _HEADER.pack(0xDF, 3, -1) + struct.pack("<i", worker) + err

    def send_gathered(self, raw):
        # the right shape: prefix and frame gathered by the kernel
        self._sock.sendmsg([_LENGTH.pack(len(raw)), raw])

    def separator_join(self, names):
        return ", ".join(names)  # str.join, not bytes: no finding
