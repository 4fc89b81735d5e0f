"""Deliberately bad module for PERF002: payload decodes under a held lock.

Never imported — parsed only.  Each flagged line pays O(payload) decode
cost while holding a mutex, so every other caller of that lock waits
behind pure compute; the tests assert exact finding counts against this
file.
"""

import threading

__all__ = ["module_level", "Server"]

_lock = threading.Lock()


def module_level(raw, decode_frame):
    with _lock:
        return decode_frame(raw)  # PERF002


class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self._mu = threading.Lock()
        self._shard_locks = [threading.Lock()]

    def handle(self, raw, decode_frame):
        with self._lock:
            frame = decode_frame(raw)  # PERF002
            return self.apply(frame)

    def record(self, raw, codec):
        with self._mu:
            msg = codec.decode_message(raw)  # PERF002
        return msg

    def handle_shard(self, shard, raw, decode_frame):
        with self._shard_locks[shard]:
            if raw:
                return decode_frame(raw)  # PERF002 — nested block, still held
        return None

    def clean(self, raw, decode_frame):
        frame = decode_frame(raw)  # decoded outside: the right shape
        with self._lock:
            return self.apply(frame)

    def unrelated_context(self, raw, decode_frame, path):
        with open(path) as fh:  # not a lock: no finding
            fh.read()
        return decode_frame(raw)

    def apply(self, frame):
        return frame
