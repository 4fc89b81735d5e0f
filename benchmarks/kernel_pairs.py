"""Reference/optimised pairs for the hot-path kernel regression gate.

Each pair runs the *same logical work* twice — once through the
dict-of-float64 parity oracle (``repro.core.reference``) or a historical
kernel, and once through the production arena/streamed-kernel path —
so the speedup ratio (ref time / opt time) is meaningful on any machine.
``benchmarks/check_regression.py`` times these pairs and compares ratios
against the committed ``benchmarks/BENCH_kernels.json`` baseline;
``bench_micro_kernels.py`` exposes the same pairs to pytest-benchmark for
human inspection.

N is one large conv layer (~ResNet-18); the layered shapes mimic a deep
model so the payload-apply pair sees realistic per-layer loop overhead.
"""

from __future__ import annotations

import socket
import struct
import threading
from collections import OrderedDict

import numpy as np

from repro.comm.frames import GradientFrame, decode_frame, encode_frame
from repro.comm.socket import SocketChannel

from repro.compression import (
    encode_best,
    encode_indices,
    encode_mask,
    topk_mask,
    topk_select,
)
from repro.compression.coding import cheapest_format
from repro.core.arena import LayerArena
from repro.core.layerops import parameters_of
from repro.core.reference import (
    ReferenceDenseStrategy,
    ReferenceSAMomentumStrategy,
    ReferenceTracker,
)
from repro.core.tracker import _difference_at, _oldest_writes
from repro.ps.messages import GradientMessage

__all__ = ["N", "RATIO", "GATED", "RECORD_ONLY", "make_pairs"]

N = 1_000_000
RATIO = 0.01

#: the kernels the committed baseline must show >= 1.5x speedup on
#: (acceptance: at least MIN_WINS of these)
GATED = ("topk_select", "coo_encode", "payload_apply")
MIN_WINS = 2

#: recorded in the baseline and printed, but never compared against it.
#: The sparse-diff pairs' reference side is the degenerate full-array
#: argpartition, whose time on a tied array swings 2x run to run; the two
#: ``prepare`` pairs are there for their absolute times on the gradient a
#: real backward hands over (float32 since the model is), not for a
#: dict-vs-arena ratio; ``mlp_forward_backward`` is the compute dtype's own
#: pair (a ``Module.astype`` float64 model against the default); the
#: ``diff_reply_eq5`` sweep *measures* where the tracker's journal stops
#: beating its dense scan (``_JOURNAL_MAX_FRACTION``), so its last point is
#: below 1x by design.
JOURNALED_UPDATES = (2, 8, 16, 32)
RECORD_ONLY = (
    "topk_select_sparse_diff_2pct",
    "topk_select_sparse_diff_25pct",
    "samomentum_prepare",
    "dense_prepare_model_grad",
    "mlp_forward_backward",
    *(f"diff_reply_eq5_{u}upd" for u in JOURNALED_UPDATES),
    "bitmap_apply",
    "dense_frame_encode",
    "dense_frame_decode_apply",
    "socket_echo_dense_frame",
    "socket_echo_sparse_frame",
)


def _layered_shapes(total: int = N, layers: int = 48) -> "OrderedDict[str, tuple[int, ...]]":
    """A deep-model-like shape table: many small layers + a few big ones."""
    shapes: "OrderedDict[str, tuple[int, ...]]" = OrderedDict()
    per = total // (2 * layers)
    used = 0
    for i in range(layers - 1):
        size = per if i % 2 == 0 else per // 2
        shapes[f"layer{i:02d}"] = (size,)
        used += size
    shapes["layer_final"] = (total - used,)
    return shapes


def _mlp_step(dtype=None):
    """One forward/backward of the benchmark's MLP on a batch of 32, as a
    callable; ``dtype`` converts model and batch (``Module.astype``), the
    default is what the package builds: float32."""
    from repro.autograd import Tensor
    from repro.nn import MLP, cross_entropy

    rng = np.random.default_rng(0)
    model = MLP(768, (1024, 128), 10, seed=0)
    x = rng.normal(size=(32, 768)).astype(np.float32)
    y = rng.integers(0, 10, size=32)
    if dtype is not None:
        model.astype(dtype)
        x = x.astype(dtype)

    def step():
        loss = cross_entropy(model(Tensor(x)), y)
        model.zero_grad()
        loss.backward()
        return model

    return step


def _model_gradient() -> np.ndarray:
    """The (1024, 768) first-layer weight gradient of one real MLP backward.

    Taken from the model, not synthesised, so the ``prepare`` pairs time the
    layout and dtype their producer emits: fed a 1-D ``(N,)`` array, the old
    pair never saw that this gradient used to arrive F-ordered and cost the
    strategies 3-5x (docs/performance.md, "The gradient hand-off"), and fed
    a float64 one it kept timing a cast the float32 model no longer causes
    ("The compute dtype").
    """
    return dict(_mlp_step()().named_parameters())["net.0.weight"].grad


# --- the wire path as it was before "one copy per hop" (docs/performance.md),
# written out so the comparison survives: one bytes object per array, per
# field, per layer, per message, per frame and per record.
_LENGTH = struct.Struct("<I")


def _concat_encode_dense(frame: GradientFrame) -> bytes:
    msg = frame.message
    parts = [struct.pack("<HBBIq H", 0xD65, 1, 0, msg.worker_id, msg.local_iteration, len(msg.payload))]
    for name, layer in msg.payload.items():
        name_b = name.encode("utf-8")
        dims = struct.pack("<B", layer.ndim) + struct.pack(f"<{layer.ndim}I", *layer.shape)
        body = dims + layer.astype("<f4").tobytes()
        parts.append(struct.pack("<HB", len(name_b), 0) + name_b + body)
    return struct.pack("<BBh", 0xDF, 0, frame.shard) + struct.pack("<d", frame.loss) + b"".join(parts)


class _CopyingChannel(SocketChannel):
    """``SocketChannel`` moving bytes the way it used to: ``prefix + raw``
    into ``sendall``, ``recv()`` chunks joined.  Everything else (closed
    check, tracer lookup, counters) is the live class's, so the pair
    differs in the copies alone."""

    def _send_record(self, segments, nbytes: int) -> None:
        raw = b"".join(bytes(seg) for seg in segments)
        self._sock.sendall(_LENGTH.pack(len(raw)) + raw)

    def _recv_exactly(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise EOFError("socket closed mid-stream")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def _recv_record(self) -> bytes:
        self._sock.settimeout(self.read_timeout_s)
        (length,) = _LENGTH.unpack(self._recv_exactly(_LENGTH.size))
        return self._recv_exactly(length)


def _echo_round_trip(channel_cls):
    """A loopback TCP connection of two ``channel_cls`` endpoints whose far
    end echoes every frame back from a daemon thread; returns
    ``raw -> echoed raw`` for the near end."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        near = channel_cls(socket.create_connection(server.getsockname()))
        far = channel_cls(server.accept()[0])

    def echo():
        try:
            while True:
                far.send_raw(far.recv_raw())
        except (EOFError, OSError):
            pass  # the near end went away with the process

    threading.Thread(target=echo, daemon=True).start()

    def round_trip(raw):
        near.send_raw(raw)
        return near.recv_raw()

    return round_trip


def make_pairs() -> "OrderedDict[str, tuple]":
    """name -> (reference_callable, optimised_callable), same work each."""
    rng = np.random.default_rng(0)
    arr = rng.normal(size=N)

    pairs: "OrderedDict[str, tuple]" = OrderedDict()

    # --- top-k select: magnitude top-1% of a 1M vector to a SparseTensor.
    # Reference: boolean mask then flatnonzero-based encode (two O(n)
    # passes + fresh allocations).  Optimised: fused select ->
    # sorted-index gather, no full-layer mask.  Both sides select
    # through the same ``_topk_indices`` helper; the ratio measures the
    # mask/scan/allocation overhead only.
    pairs["topk_select"] = (
        lambda: encode_mask(arr, topk_mask(arr, RATIO)),
        lambda: topk_select(arr, RATIO),
    )

    # --- COO encode: selection already made, produce the wire payload.
    # Reference scans the full mask (O(n)); optimised gathers straight
    # from the known sorted indices (O(k)).
    mask = topk_mask(arr, RATIO)
    idx = np.flatnonzero(mask)
    pairs["coo_encode"] = (
        lambda: encode_mask(arr, mask),
        lambda: encode_indices(arr, idx, assume_sorted=True),
    )

    # --- payload apply: server-side M <- M - g for a dense per-layer
    # update.  Reference: the oracle tracker's per-layer Python loop.
    # Optimised: one fused op over the arena's flat buffer.
    shapes = _layered_shapes()
    ref_tracker = ReferenceTracker(shapes, 1, track_differences=False)
    upd_dict = OrderedDict((name, rng.normal(size=s)) for name, s in shapes.items())
    m_arena = LayerArena(shapes, dtype=np.float32)
    upd_arena = LayerArena.from_layers(upd_dict, dtype=np.float32)

    pairs["payload_apply"] = (
        lambda: ref_tracker.apply_update(upd_dict),
        lambda: m_arena.add_payload(upd_arena, scale=-1.0),
    )

    # --- top-k select on the server's real traffic (RECORD_ONLY):
    # ``M - v_k`` is float32 and mostly exact zeros — 2 % nonzero
    # early in a run, ~25 % after 42 exchanges (docs/performance.md).
    # Reference: the full-array argpartition every kernel used before the
    # zero-robust helper, written out here so the comparison survives; it
    # degenerates on a majority-tied array.
    def _full_argpartition_select(x: np.ndarray):
        k = int(np.ceil(x.size * RATIO))
        sel = np.argpartition(np.abs(x), x.size - k)[x.size - k :]
        sel.sort()
        return encode_indices(x, sel, assume_sorted=True)

    for pct in (2, 25):
        diff = np.zeros(N, dtype=np.float32)
        live = rng.choice(N, size=N * pct // 100, replace=False)
        diff[live] = rng.normal(size=live.size)
        pairs[f"topk_select_sparse_diff_{pct}pct"] = (
            lambda x=diff: _full_argpartition_select(x),
            lambda x=diff: topk_select(x, RATIO),
        )

    # --- strategy prepare on the model's own gradient (RECORD_ONLY): a
    # full step through the oracle's strategy vs the production one.
    from repro.compression import TopKSparsifier
    from repro.core.strategies import DenseStrategy, SAMomentumStrategy

    grads = OrderedDict([("w", _model_gradient())])
    grad_shapes = OrderedDict([("w", grads["w"].shape)])
    sam_ref = ReferenceSAMomentumStrategy(
        grad_shapes, TopKSparsifier(RATIO, min_sparse_size=0), 0.7
    )
    sam_opt = SAMomentumStrategy(grad_shapes, TopKSparsifier(RATIO, min_sparse_size=0), 0.7)
    pairs["samomentum_prepare"] = (
        lambda: sam_ref.prepare(grads, 0.1),
        lambda: sam_opt.prepare(grads, 0.1),
    )
    dense_ref, dense_opt = ReferenceDenseStrategy(grad_shapes), DenseStrategy(grad_shapes)
    pairs["dense_prepare_model_grad"] = (
        lambda: dense_ref.prepare(grads, 0.1),
        lambda: dense_opt.prepare(grads, 0.1),
    )

    # --- the worker's largest layer (RECORD_ONLY): one forward/backward of
    # the benchmark's MLP.  Reference: the float64 model every run computed
    # with before "The compute dtype" (dgemm); optimised: the default.
    pairs["mlp_forward_backward"] = (_mlp_step(np.float64), _mlp_step())

    # --- the Eq. 5 reply (RECORD_ONLY): worker k is owed ``M − v_k`` after
    # U top-1 % updates of the benchmark model's first layer (786 432
    # float32).  Reference: the dense scan against a ``v_k`` buffer
    # (subtract, encode_best, copy), after putting that buffer back U
    # updates behind.  Optimised: the tracker's value-carrying journal
    # kernels — one sort of (index, age) keys over the U index sets picks
    # each index's oldest write, whose pre-update value is ``v_k`` there;
    # one gather and subtract.  No ``v_k`` exists to reset or advance.
    layer_shape = (1024, 768)
    n_layer = layer_shape[0] * layer_shape[1]
    k_layer = n_layer // 100
    reply = None
    for updates in JOURNALED_UPDATES:
        m_flat = rng.normal(size=n_layer).astype(np.float32)
        v_flat = m_flat.copy()
        parts = [np.sort(rng.choice(n_layer, size=k_layer, replace=False)) for _ in range(updates)]
        written = [(idx, (m_flat[idx] + 1.0).astype(np.float32)) for idx in parts]
        touched = np.unique(np.concatenate(parts))
        behind = (m_flat[touched] + 1.0).astype(np.float32)
        diff = np.empty(layer_shape, dtype=np.float32)

        def scan(m=m_flat, v=v_flat, touched=touched, behind=behind, diff=diff):
            v[touched] = behind
            sent = encode_best(np.subtract(m.reshape(layer_shape), v.reshape(layer_shape), out=diff))
            np.copyto(v, m)
            return sent

        def journal(m=m_flat, written=written):
            idx, d = _difference_at(m, *_oldest_writes(written))
            return cheapest_format(n_layer, idx.size)(idx, d, layer_shape)

        pairs[f"diff_reply_eq5_{updates}upd"] = (scan, journal)
        if updates == 8:
            reply = journal()  # ~7.7 % dense: what 8 workers' staleness ships

    # --- applying that reply at the worker (RECORD_ONLY).  Reference: what
    # a BitmapTensor that held the packed bitmap had to do per apply.
    theta = rng.normal(size=layer_shape)
    packed = reply.packed_bitmap()

    def unpack_and_apply():
        bits = np.unpackbits(packed, bitorder="little")
        theta.reshape(-1)[np.flatnonzero(bits[:n_layer])] += reply.values

    pairs["bitmap_apply"] = (unpack_and_apply, lambda: reply.add_into(theta))

    # --- one hop of the dense exchange (RECORD_ONLY): the end-to-end
    # benchmark's 3.68 MB gradient frame of MLP(768, (1024, 128), 10).
    # Reference: the concatenating encoder, the float64-widening decode and
    # the copying channel above.  Optimised: encode_frame into one
    # buffer, float32 views applied in place, sendmsg / recv_into.
    from repro.nn import MLP

    params = parameters_of(MLP(768, (1024, 128), 10, seed=0))
    dense_frame = GradientFrame(GradientMessage(0, params, 0), loss=0.5)
    dense_raw = encode_frame(dense_frame)
    assert bytes(dense_raw) == _concat_encode_dense(dense_frame)
    pairs["dense_frame_encode"] = (
        lambda: _concat_encode_dense(dense_frame),
        lambda: encode_frame(dense_frame),
    )

    model = LayerArena(OrderedDict((k, v.shape) for k, v in params.items()), dtype=np.float32)

    def widen_and_apply():
        payload = decode_frame(dense_raw).message.payload
        model.add_payload({k: v.astype(np.float64) for k, v in payload.items()}, scale=-1.0)

    pairs["dense_frame_decode_apply"] = (
        widen_and_apply,
        lambda: model.add_payload(decode_frame(dense_raw).message.payload, scale=-1.0),
    )

    # ... and the DGS upload of the same model (top 1 % per layer, 74.9 kB):
    # the frame the socket change must not slow down.
    sparse = OrderedDict((k, topk_select(v, RATIO)) for k, v in params.items())
    sparse_raw = encode_frame(GradientFrame(GradientMessage(0, sparse, 0), loss=0.5))
    copying, gathered = _echo_round_trip(_CopyingChannel), _echo_round_trip(SocketChannel)
    for label, raw in (("dense", dense_raw), ("sparse", sparse_raw)):
        pairs[f"socket_echo_{label}_frame"] = (
            lambda raw=bytes(raw): copying(raw),
            lambda raw=raw: gathered(raw),
        )

    return pairs
