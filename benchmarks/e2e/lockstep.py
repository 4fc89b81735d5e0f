"""Lockstep tracer: the layer budget of one exchange, measured from outside.

One worker steps in lockstep against the workload's server configuration.
Every layer boundary is a span recorded *here*, around direct calls into
the program's public functions (``encode_frame``, ``decode_frame``,
``send_raw``, ``recv_raw``, ``server.handle``, ``node.compute_step``,
``node.apply_reply``, ``PartitionMap.split/merge``) or, where a layer is
only reachable nested, around bound methods re-bound **on the instances
this driver built** — nothing under ``src/`` and no module is patched.

A *pass* is one run of the loop.  ``transport`` passes put the worker in a
forked child and the server in this process (threads are not acceptable:
the GIL's 5 ms switch interval showed up as 4.5 ms ``send_raw`` calls and
negative residuals), with the workload's real transport between them;
``direct`` passes hand each encoded frame straight to the server in the
same process.  Both must end in a bitwise-identical model — that is the
benchmark's transport ≡ direct-call parity check.

Span tree of one step (``[..]`` only on the sharded workload)::

    worker.step
    ├ nn.forward_backward ─ data.next_batch · strategy.prepare ─ compression.select_up
    ├ [partition.split] · wire.encode_up · transport.send_up
    ├ worker.wait_reply                     (self time = transport.transit)
    │   └ wire.decode_up · ps.handle ─ tracker.apply_update
    │                                ├ tracker.model_difference ─ compression.select_down
    │                                └ tracker.global_model
    │     wire.encode_down · transport.send_down
    └ wire.decode_down · [partition.merge] · worker.apply_reply

A span's *self time* is its duration minus the part of it its children
cover.  ``time.perf_counter`` is CLOCK_MONOTONIC, shared by both
processes, so the server's spans nest under the worker's
``worker.wait_reply`` of the same step index.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import multiprocessing as mp
import statistics
import tracemalloc
from collections import defaultdict, deque
from time import perf_counter

import workloads
from workloads import BATCH_SIZE, Inputs, Workload

STEP = "worker.step"
COMPUTE = "nn.forward_backward"
NEXT_BATCH = "data.next_batch"
PREPARE = "strategy.prepare"
SELECT_UP = "compression.select_up"
SPLIT = "partition.split"
ENC_UP = "wire.encode_up"
SEND_UP = "transport.send_up"
WAIT = "worker.wait_reply"
DEC_UP = "wire.decode_up"
HANDLE = "ps.handle"
APPLY_UPDATE = "tracker.apply_update"
MODEL_DIFF = "tracker.model_difference"
SELECT_DOWN = "compression.select_down"
GLOBAL_MODEL = "tracker.global_model"
ENC_DOWN = "wire.encode_down"
SEND_DOWN = "transport.send_down"
DEC_DOWN = "wire.decode_down"
MERGE = "partition.merge"
APPLY = "worker.apply_reply"
#: server-side wait for the next upload: overlaps the worker's compute, so
#: it is outside the time tree and read only by the allocation pass
RECV_UP = "transport.recv_up"

#: span → reported metric, for every tree node whose self time is reported
SELF_TIME_METRICS = {
    NEXT_BATCH: "data.next_batch_ms",
    COMPUTE: "nn.forward_backward_ms",
    PREPARE: "strategy.prepare_ms",
    SELECT_UP: "compression.select_up_ms",
    SPLIT: "partition.split_ms",
    ENC_UP: "wire.encode_up_ms",
    SEND_UP: "transport.send_up_ms",
    WAIT: "transport.transit_ms",
    DEC_UP: "wire.decode_up_ms",
    HANDLE: "ps.handle_ms",
    APPLY_UPDATE: "tracker.apply_update_ms",
    MODEL_DIFF: "tracker.model_difference_ms",
    SELECT_DOWN: "compression.select_down_ms",
    GLOBAL_MODEL: "tracker.global_model_ms",
    ENC_DOWN: "wire.encode_down_ms",
    SEND_DOWN: "transport.send_down_ms",
    DEC_DOWN: "wire.decode_down_ms",
    MERGE: "partition.merge_ms",
    APPLY: "worker.apply_reply_ms",
}
#: the server's half of the tree — a black box behind ``serve_channels`` on
#: the sharded workload, so read from the direct pass there
SERVER_SPANS = (DEC_UP, HANDLE, APPLY_UPDATE, MODEL_DIFF, SELECT_DOWN, GLOBAL_MODEL, ENC_DOWN)
#: spans summed (inclusive) into each ``*.alloc_kb_per_step``
ALLOC_GROUPS = {
    "wire.alloc_kb_per_step": (ENC_UP, DEC_UP, ENC_DOWN, DEC_DOWN),
    "tracker.alloc_kb_per_step": (APPLY_UPDATE, MODEL_DIFF, GLOBAL_MODEL),
    "strategy.alloc_kb_per_step": (PREPARE,),
    "transport.alloc_kb_per_step": (SEND_UP, WAIT, RECV_UP, SEND_DOWN),
}
#: cross-process spans may poke out of their parent by scheduler jitter
#: (the peer returns from its syscall first); beyond this it is a bug
ESCAPE_SLACK_S = 500e-6

# row layout of a recorded span
NAME, START, END, PARENT, STEP_IDX, ALLOC = range(6)


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------
class _Span:
    __slots__ = ("rec", "name", "idx", "base", "high")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        rec = self.rec
        open_spans = rec._open
        self.idx = len(rec.rows)
        row = [self.name, 0.0, 0.0, open_spans[-1].idx if open_spans else -1, rec.step, 0]
        rec.rows.append(row)
        if rec.memory:
            current, peak = tracemalloc.get_traced_memory()
            if open_spans:
                open_spans[-1].high = max(open_spans[-1].high, peak)
            self.base = self.high = current
            tracemalloc.reset_peak()
        open_spans.append(self)
        row[START] = perf_counter()

    def __exit__(self, *exc: object) -> bool:
        end = perf_counter()
        rec = self.rec
        row = rec.rows[self.idx]
        row[END] = end
        rec._open.pop()
        if rec.memory:
            high = max(self.high, tracemalloc.get_traced_memory()[1])
            row[ALLOC] = high - self.base
            tracemalloc.reset_peak()
            if rec._open:
                rec._open[-1].high = max(rec._open[-1].high, high)
        return False


class Recorder:
    """In-memory span log of one process: rows of
    ``[name, start, end, parent row, step index, transient bytes]``.

    ``memory=True`` additionally records, per span, how far traced memory
    rose above its level at entry (tracemalloc's high-water mark, nested
    spans included) — the transient copies a call makes.
    """

    enabled = True

    def __init__(self, memory: bool = False) -> None:
        self.rows: "list[list]" = []
        self._open: "list[_Span]" = []
        #: shared identifier of the exchange; negative = not measured
        self.step = -1
        self.memory = memory

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Re-bind ``obj.attr`` on this instance to record a span per call."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with _Span(self, name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)


class NullRecorder:
    """The untraced pass: same loop, no wrappers, no rows."""

    enabled = False
    memory = False
    rows: "tuple" = ()
    _null = contextlib.nullcontext()

    def __init__(self) -> None:
        self.step = -1

    def span(self, name: str):
        return self._null

    def wrap(self, obj: object, attr: str, name: str) -> None:
        pass


def memory_recorder() -> Recorder:
    return Recorder(memory=True)


def instrument_worker(rec, node) -> None:
    rec.wrap(node.batches, "next_batch", NEXT_BATCH)
    rec.wrap(node.strategy, "prepare", PREPARE)
    sparsifier = getattr(node.strategy, "sparsifier", None)
    if sparsifier is not None:
        rec.wrap(sparsifier, "select", SELECT_UP)


def instrument_server(rec, server) -> None:
    for part in getattr(server, "shards", [server]):
        tracker = part.tracker
        rec.wrap(tracker, "apply_update", APPLY_UPDATE)
        rec.wrap(tracker, "model_difference", MODEL_DIFF)
        rec.wrap(tracker, "global_model", GLOBAL_MODEL)
        if tracker.secondary is not None:
            rec.wrap(tracker.secondary, "select", SELECT_DOWN)


# ---------------------------------------------------------------------------
# the two halves of one exchange
# ---------------------------------------------------------------------------
def _entries(payload) -> int:
    """Elements a payload carries on the wire (dense layers carry all)."""
    total = 0
    for layer in payload.values():
        carried = getattr(layer, "values", None)  # COO / bitmap
        if carried is None:  # ndarray, else the DenseTensor wrapping one
            carried = layer if hasattr(layer, "size") else layer.data
        total += carried.size
    return total


def worker_step(node, rec, send, recv, fanout, counts) -> None:
    """One exchange, worker side; ``send``/``recv`` move encoded frames."""
    from repro.comm.frames import GradientFrame, decode_frame, encode_frame

    with rec.span(STEP):
        with rec.span(COMPUTE):
            msg = node.compute_step()
        if fanout is None:
            subs = [(-1, msg)]
        else:
            with rec.span(SPLIT):
                parts = fanout.split(msg.payload)
            subs = [
                (s, type(msg)(msg.worker_id, part, msg.local_iteration))
                for s, part in enumerate(parts)
            ]
        up_bytes = 0
        for shard, sub in subs:
            with rec.span(ENC_UP):
                raw = encode_frame(GradientFrame(sub, node.last_loss, shard=shard))
            with rec.span(SEND_UP):
                send(raw)
            up_bytes += len(raw)
        with rec.span(WAIT):
            raws = [recv() for _ in subs]
        frames = []
        for raw in raws:
            with rec.span(DEC_DOWN):
                frames.append(decode_frame(raw))
        if fanout is None:
            reply = frames[0].message
        else:
            frames.sort(key=lambda f: f.shard)  # lanes may answer out of order
            msgs = [f.message for f in frames]
            with rec.span(MERGE):
                merged = fanout.merge([m.payload for m in msgs])
            reply = type(msgs[0])(
                msg.worker_id,
                merged,
                max(m.server_timestamp for m in msgs),
                max(m.staleness for m in msgs),
            )
        with rec.span(APPLY):
            node.apply_reply(reply)
    counts["frames"].append(2 * len(subs))
    counts["up_bytes"].append(up_bytes)
    counts["down_bytes"].append(sum(len(raw) for raw in raws))
    counts["up_nnz"].append(_entries(msg.payload))
    counts["down_nnz"].append(_entries(reply.payload))


def serve_raw(server, rec, raw) -> "bytes | None":
    """One frame, server side: the reply's bytes, or None on a close frame."""
    from repro.comm.frames import (
        KIND_CLOSE,
        KIND_CONTROL,
        decode_frame,
        encode_frame,
        peek_kind,
        reply_frame,
    )
    from repro.comm.service import ServerService

    kind = peek_kind(raw)
    if kind == KIND_CLOSE:
        return None
    if kind == KIND_CONTROL:  # the join handshake, outside the measured steps
        return encode_frame(ServerService(server).control(decode_frame(raw)))
    with rec.span(DEC_UP):
        frame = decode_frame(raw)
    with rec.span(HANDLE):
        if frame.shard < 0:
            reply = server.handle(frame.message)
        else:
            reply = server.handle_shard(frame.shard, frame.message)
    with rec.span(ENC_DOWN):
        return encode_frame(reply_frame(reply, shard=frame.shard))


def drive_worker(node, rec, send, recv, fanout, steps: int, warmup: int, join: bool) -> dict:
    """The worker loop of one pass; returns its counts and step rate."""
    from repro.comm.frames import CONTROL_JOIN, CloseFrame, ControlFrame, decode_frame, encode_frame

    counts = {k: [] for k in ("frames", "up_bytes", "down_bytes", "up_nnz", "down_nnz")}
    if join:
        send(encode_frame(ControlFrame(node.worker_id, CONTROL_JOIN)))
        node.apply_reply(decode_frame(recv()).message)
    started = perf_counter()
    for i in range(warmup + steps):
        if i == warmup:
            started = perf_counter()
            for series in counts.values():
                series.clear()
        rec.step = i - warmup
        worker_step(node, rec, send, recv, fanout, counts)
    elapsed = perf_counter() - started
    rec.step = -1
    send(encode_frame(CloseFrame(worker_id=node.worker_id, samples_processed=node.samples_processed)))
    return {"counts": counts, "steps_per_s": steps / elapsed}


# ---------------------------------------------------------------------------
# building what a pass runs on
# ---------------------------------------------------------------------------
def _method_parts(w: Workload):
    from repro.core.methods import Hyper
    from repro.exec.common import resolve_method, resolve_schedule

    hyper = Hyper(lr=w.lr)
    return resolve_method(w.method), hyper, resolve_schedule(None, hyper)


def make_server(w: Workload, inputs: Inputs):
    """The workload's server configuration, for one lockstep worker."""
    from repro.core.layerops import parameters_of
    from repro.exec.common import build_server

    method, hyper, _ = _method_parts(w)
    return build_server(
        method,
        parameters_of(inputs.model_factory()),
        1,
        hyper,
        secondary_compression=w.secondary,
        arena=True,
        num_shards=w.num_shards,
    )


def make_node(w: Workload, inputs: Inputs):
    """Worker 0's replica, and the shard fan-out map when sharded.

    Mirrors the backends: socket workers join and receive θ through the
    handshake; pipe workers are pre-wired with θ0.
    """
    from repro.core.layerops import parameters_of
    from repro.core.partition import PartitionMap
    from repro.data.loader import DataLoader
    from repro.exec.common import build_worker

    method, hyper, schedule = _method_parts(w)
    model = inputs.model_factory()
    theta0 = parameters_of(model)
    node = build_worker(
        0,
        1,
        model,
        DataLoader(inputs.dataset, BATCH_SIZE, seed=inputs.seed),
        method,
        hyper,
        schedule,
        theta0=None if w.backend == "socket" else theta0,
        arena=True,
    )
    fanout = None
    if w.num_shards > 1:
        fanout = PartitionMap(
            {k: v.shape for k, v in theta0.items()},
            w.num_shards,
            itemsize=next(iter(theta0.values())).itemsize,
        )
    return node, fanout


def _worker_digest(node) -> str:
    return workloads.digest(p.data for _, p in node.model.named_parameters())


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------
def direct_pass(w: Workload, inputs: Inputs, make_rec, steps: int, warmup: int) -> dict:
    """Worker and server in one process; frames cross only the codec."""
    rec = make_rec()
    server = make_server(w, inputs)
    node, fanout = make_node(w, inputs)
    instrument_server(rec, server)
    instrument_worker(rec, node)
    pending: "deque[bytes]" = deque()
    out = drive_worker(
        node,
        rec,
        pending.append,
        lambda: serve_raw(server, rec, pending.popleft()),
        fanout,
        steps,
        warmup,
        join=w.backend == "socket",
    )
    out["rows"] = list(rec.rows)
    out["digest"] = workloads.digest(server.global_model().values()) + _worker_digest(node)
    return out


def _transport_worker(w, inputs, make_rec, steps, warmup, endpoint, results) -> None:
    """Forked child of a transport pass: the worker half, then ship spans."""
    from repro.comm.pipe import PipeChannel
    from repro.comm.socket import SocketChannel

    rec = make_rec()
    node, fanout = make_node(w, inputs)
    instrument_worker(rec, node)
    if w.backend == "socket":
        channel = SocketChannel.connect(*endpoint)
    else:
        channel = PipeChannel(endpoint)
    try:
        out = drive_worker(
            node, rec, channel.send_raw, channel.recv_raw, fanout, steps, warmup,
            join=w.backend == "socket",
        )
    finally:
        channel.close()
    out["rows"] = list(rec.rows)
    out["digest"] = _worker_digest(node)
    results.send(out)
    results.close()


def _serve_socket(server, rec, channel, warmup: int) -> None:
    """The server half over TCP: recv → decode → handle → encode → send."""
    for index in itertools.count():
        # Frame 0 is the join; frame i > 0 is the upload of step i - 1, and
        # the close frame lands one past the last measured step.
        rec.step = index - 1 - warmup if index else -1
        with rec.span(RECV_UP):
            raw = channel.recv_raw()
        reply = serve_raw(server, rec, raw)
        if reply is None:
            rec.step = -1
            return
        with rec.span(SEND_DOWN):
            channel.send_raw(reply)


def lanes_supported() -> bool:
    from repro.comm.service import serve_channels

    return "shard_lanes" in inspect.signature(serve_channels).parameters


def transport_pass(w: Workload, inputs: Inputs, make_rec, steps: int, warmup: int) -> dict:
    """Worker in a forked child, server here, the real transport between."""
    from repro.comm.pipe import PipeChannel
    from repro.comm.service import ServerService, serve_channels
    from repro.comm.socket import SocketListener

    rec = make_rec()
    server = make_server(w, inputs)
    ctx = mp.get_context("fork")  # before any thread exists in this process
    results, results_child = ctx.Pipe(duplex=False)

    def fork_worker(endpoint):
        proc = ctx.Process(
            target=_transport_worker,
            args=(w, inputs, make_rec, steps, warmup, endpoint, results_child),
            daemon=True,
        )
        proc.start()
        results_child.close()
        return proc

    if w.backend == "socket":
        instrument_server(rec, server)
        listener = SocketListener()  # bound before the fork: no connect back-off
        listener.waitable.settimeout(60.0)
        try:
            proc = fork_worker(listener.address)
            channel = listener.accept()
        finally:
            listener.close()
        try:
            _serve_socket(server, rec, channel, warmup)
        finally:
            channel.close()
    else:
        # The sharded serve loop is the program's own, as a black box.
        ours, theirs = ctx.Pipe()
        proc = fork_worker(theirs)
        theirs.close()
        lanes = {"shard_lanes": server.num_shards} if lanes_supported() else {}
        serve_channels([PipeChannel(ours)], ServerService(server), stats=server.stats, **lanes)
    out = results.recv()
    proc.join(timeout=60)
    if proc.exitcode != 0:
        raise RuntimeError(f"lockstep worker exited with {proc.exitcode}")
    out["server_rows"] = list(rec.rows)
    out["digest"] = workloads.digest(server.global_model().values()) + out["digest"]
    return out


def sim_pass(w: Workload, inputs: Inputs, make_rec, steps: int, warmup: int) -> dict:
    """The simulator is single-process: wrap the engine's own instances.

    A step runs from one ``compute_step`` call to the next; what the
    wrapped calls do not cover is the engine itself (``sim.engine_self``).
    One extra iteration closes the last measured step.
    """
    from repro.exec import Trainer

    rec = make_rec()
    total = warmup + steps + 1
    trainer = Trainer(workloads.run_config(w, inputs, total), backend=w.backend)
    engine = trainer.engine
    counts = {"up_nnz": [], "down_nnz": []}
    if rec.enabled:
        rec.step = -warmup - 1

        def stepping(inner):
            def compute_step():
                rec.step += 1
                with rec.span(COMPUTE):
                    msg = inner()
                counts["up_nnz"].append(_entries(msg.payload))
                return msg

            return compute_step

        for node in engine.workers:
            instrument_worker(rec, node)
            node.compute_step = stepping(node.compute_step)
            rec.wrap(node, "apply_reply", APPLY)
        instrument_server(rec, engine.server)
        handle = engine.server.handle

        def traced_handle(msg):
            with rec.span(HANDLE):
                reply = handle(msg)
            counts["down_nnz"].append(_entries(reply.payload))
            return reply

        engine.server.handle = traced_handle
    started = perf_counter()
    result = trainer.run()
    elapsed = perf_counter() - started
    rec.step = -1
    if result.errors or result.total_iterations != total:
        raise RuntimeError(f"simulator pass failed: {result.errors or result.total_iterations}")
    return {
        "rows": list(rec.rows),
        "counts": {k: v[warmup : warmup + steps] for k, v in counts.items()},
        "steps_per_s": total / elapsed,
        "digest": workloads.digest(engine.server.global_model().values()),
    }


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def merge_rows(worker_rows: list, server_rows: list) -> list:
    """One tree from both processes: a server span with no parent of its
    own hangs under the worker's ``worker.wait_reply`` of the same step.

    A send span is cut off where the peer has the whole frame.  On this
    box ``sendall`` of 3.68 MB returns 0.5–3.4 ms *after* the peer's
    ``recv_raw`` did; that tail runs beside the peer's next span, off the
    blocking path, and left in it would be counted twice (coverage 1.24).
    The wait for the reply starts where the upload was cut.
    """
    rows = [list(r) for r in worker_rows]
    arrived = {r[STEP_IDX]: r[END] for r in server_rows if r[NAME] == RECV_UP}
    wait_of = {}
    for i, r in enumerate(rows):
        step = r[STEP_IDX]
        if r[NAME] == SEND_UP and step in arrived:
            r[END] = arrived[step] = min(r[END], arrived[step])
        elif r[NAME] == WAIT:
            r[START] = min(r[START], arrived.get(step, r[START]))
            wait_of[step] = i
    offset = len(rows)
    for r in server_rows:
        r = list(r)
        if r[PARENT] >= 0:
            r[PARENT] += offset
        elif r[NAME] != RECV_UP and r[STEP_IDX] in wait_of:
            wait = rows[wait_of[r[STEP_IDX]]]
            r[PARENT] = wait_of[r[STEP_IDX]]
            if r[NAME] == SEND_DOWN:
                r[END] = min(r[END], wait[END])
        rows.append(r)
    return rows


def add_step_roots(rows: list, steps: int) -> list:
    """Simulator rows have no ``worker.step`` span: synthesise one per step,
    from its ``compute_step`` call to the next one's."""
    rows = [list(r) for r in rows]
    starts = {
        r[STEP_IDX]: r[START] for r in rows if r[NAME] == COMPUTE and r[PARENT] < 0
    }
    first_root = len(rows)
    for r in rows:
        if r[PARENT] < 0 and 0 <= r[STEP_IDX] < steps:
            r[PARENT] = first_root + r[STEP_IDX]
    rows += [[STEP, starts[step], starts[step + 1], -1, step, 0] for step in range(steps)]
    return rows


def budget(rows: list, steps: int) -> dict:
    """Per-step self times of a span tree, plus the tree's invariants."""
    children = defaultdict(list)
    for i, r in enumerate(rows):
        if r[PARENT] >= 0:
            children[r[PARENT]].append(i)
    self_ms = [defaultdict(float) for _ in range(steps)]
    span_ms = [defaultdict(float) for _ in range(steps)]
    negative_self = escapes = 0
    max_escape = 0.0
    for i, r in enumerate(rows):
        step = r[STEP_IDX]
        if not 0 <= step < steps or (r[PARENT] < 0 and r[NAME] != STEP):
            continue
        covered = 0.0
        for c in children[i]:
            child = rows[c]
            covered += max(0.0, min(r[END], child[END]) - max(r[START], child[START]))
            escape = max(r[START] - child[START], child[END] - r[END])
            max_escape = max(max_escape, escape)
            escapes += escape > ESCAPE_SLACK_S
        own = (r[END] - r[START]) - covered
        negative_self += own < -1e-9
        self_ms[step][r[NAME]] += own * 1e3
        span_ms[step][r[NAME]] += (r[END] - r[START]) * 1e3
    step_ms = [s[STEP] for s in span_ms]
    coverage = [
        sum(v for name, v in s.items() if name != STEP) / span_ms[i][STEP]
        for i, s in enumerate(self_ms)
    ]

    def median_of(table, name):
        return statistics.median(s.get(name, 0.0) for s in table)

    ordered = sorted(step_ms)
    return {
        "self_ms": {name: median_of(self_ms, name) for name in (*SELF_TIME_METRICS, STEP)},
        "span_ms": {
            name: median_of(span_ms, name) for name in (SEND_UP, WAIT, DEC_UP, HANDLE, ENC_DOWN)
        },
        "step_ms_p50": statistics.median(step_ms),
        # the highest percentile that still has a tenth of the samples beyond it
        "step_ms_p90": ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))],
        "coverage": statistics.median(coverage),
        "negative_self": negative_self,
        "escapes": escapes,
        "max_escape_us": max_escape * 1e6,
    }


def alloc_kb_per_step(rows: list, steps: int) -> "dict[str, float]":
    per_name = defaultdict(int)
    for r in rows:
        if 0 <= r[STEP_IDX] < steps:
            per_name[r[NAME]] += r[ALLOC]
    return {
        metric: sum(per_name[name] for name in names) / steps / 1024.0
        for metric, names in ALLOC_GROUPS.items()
    }


# ---------------------------------------------------------------------------
# one workload's lockstep run
# ---------------------------------------------------------------------------
#: measured steps of the tracemalloc passes (they repeat exactly; more adds nothing)
ALLOC_STEPS = 8
ALLOC_WARMUP = 2


INVARIANTS = ("negative_self", "escapes", "max_escape_us")


def _mean(series) -> float:
    return sum(series) / len(series)


def _tree_metrics(tree: dict, traced: dict, plain: dict) -> "dict[str, float]":
    """What every workload's traced pass reports beside its self times."""
    return {
        "worker.step_ms_p50": tree["step_ms_p50"],
        "worker.step_ms_p90": tree["step_ms_p90"],
        "trace.coverage": tree["coverage"],
        "trace.overhead_frac": 1.0 - traced["steps_per_s"] / plain["steps_per_s"],
        "compression.up_nnz_per_step": _mean(traced["counts"]["up_nnz"]),
        "compression.down_nnz_per_step": _mean(traced["counts"]["down_nnz"]),
    }


def run(w: Workload, inputs: Inputs, steps: int, warmup: int, trace: bool) -> dict:
    """Parity check always; the layer budget too when ``trace``.

    Returns ``{"parity", "layer" (metric → value), "invariants"}``.
    """
    if not w.real_transport:
        return _run_sim(w, inputs, steps, warmup, trace)
    plain = transport_pass(w, inputs, NullRecorder, steps, warmup)
    direct = direct_pass(w, inputs, Recorder if trace else NullRecorder, steps, warmup)
    out = {"parity": plain["digest"] == direct["digest"], "layer": {}, "invariants": {}}
    if not trace:
        return out
    traced = transport_pass(w, inputs, Recorder, steps, warmup)
    out["parity"] = out["parity"] and traced["digest"] == plain["digest"]
    via_transport = budget(merge_rows(traced["rows"], traced["server_rows"]), steps)
    via_direct = budget(direct["rows"], steps)
    layer = out["layer"]
    black_box = not traced["server_rows"]  # the program's own serve loop
    for span, metric in SELF_TIME_METRICS.items():
        source = via_direct if black_box and span in SERVER_SPANS else via_transport
        layer[metric] = source["self_ms"][span]
    layer.update(_tree_metrics(via_transport, traced, plain))
    # What the worker spends blocked on the service: its sends (an OS pipe
    # write returns only as the serve loop reads, so lanes already work on
    # sub-frame 1 while 2-4 are still being sent) plus its wait for the
    # replies.  Overhead is that minus the service's own codec + handle
    # work on the same sub-frames, timed in this pass where the server's
    # spans are visible and in the direct pass where it is a black box.
    served = via_direct if black_box else via_transport
    rtt = via_transport["span_ms"][SEND_UP] + via_transport["span_ms"][WAIT]
    layer["service.rtt_ms"] = rtt
    layer["service.overhead_ms"] = rtt - sum(
        served["span_ms"][name] for name in (DEC_UP, HANDLE, ENC_DOWN)
    )
    counts = traced["counts"]
    layer["wire.frames_per_step"] = _mean(counts["frames"])
    layer["wire.up_frame_bytes"] = _mean(counts["up_bytes"])
    layer["wire.down_frame_bytes"] = _mean(counts["down_bytes"])

    tracemalloc.start()
    try:
        mem_direct = direct_pass(w, inputs, memory_recorder, ALLOC_STEPS, ALLOC_WARMUP)
        mem_wire = transport_pass(w, inputs, memory_recorder, ALLOC_STEPS, ALLOC_WARMUP)
    finally:
        tracemalloc.stop()
    in_process = alloc_kb_per_step(mem_direct["rows"], ALLOC_STEPS)
    on_wire = alloc_kb_per_step(mem_wire["rows"] + mem_wire["server_rows"], ALLOC_STEPS)
    for metric in ALLOC_GROUPS:
        source = on_wire if metric.startswith("transport.") else in_process
        layer[metric] = source[metric]
    out["invariants"] = {k: via_transport[k] for k in INVARIANTS}
    return out


def _run_sim(w: Workload, inputs: Inputs, steps: int, warmup: int, trace: bool) -> dict:
    plain = sim_pass(w, inputs, NullRecorder, steps, warmup)
    traced = sim_pass(w, inputs, Recorder, steps, warmup)
    out = {"parity": plain["digest"] == traced["digest"], "layer": {}, "invariants": {}}
    if not trace:
        return out
    tree = budget(add_step_roots(traced["rows"], steps), steps)
    layer = out["layer"]
    for span, metric in SELF_TIME_METRICS.items():
        layer[metric] = tree["self_ms"][span]
    layer["sim.engine_self_ms"] = tree["self_ms"][STEP]
    layer.update(_tree_metrics(tree, traced, plain))
    tracemalloc.start()
    try:
        mem = sim_pass(w, inputs, memory_recorder, ALLOC_STEPS, ALLOC_WARMUP)
    finally:
        tracemalloc.stop()
    layer.update(alloc_kb_per_step(mem["rows"], ALLOC_STEPS))
    out["invariants"] = {k: tree[k] for k in INVARIANTS}
    return out
