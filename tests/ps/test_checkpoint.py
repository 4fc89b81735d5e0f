"""Checkpoint format + restore semantics, and the bitwise-continuation pin.

The flat-buffer file (``b"DGSC"`` + JSON header + raw buffers) must
round-trip the *exact* server state — M, every v_k, t, prev — so a run
restored from a checkpoint and continued is bitwise-identical to the
uninterrupted run.  That end-to-end property is pinned on the remote
engine, over pipes and TCP, in ``tests/integration/test_socket_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layerops import parameters_of
from repro.core.methods import Hyper, get_method
from repro.exec.common import build_server
from repro.nn import MLP
from repro.ps.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from repro.ps.messages import GradientMessage


def _server(num_workers=2, arena=True, num_shards=1, method="dgs", dtype=None):
    model = MLP(8, (12,), 3, seed=4)
    return build_server(
        get_method(method),
        parameters_of(model),
        num_workers,
        Hyper(lr=0.1, momentum=0.7, ratio=0.25, min_sparse_size=0),
        arena=arena,
        arena_dtype=dtype,
        num_shards=num_shards,
    )


def _advance(server, steps=3, worker=0):
    rng = np.random.default_rng(7)
    for i in range(steps):
        payload = {
            name: rng.normal(size=np.shape(buf)).astype(np.float64)
            for name, buf in server.global_model().items()
        }
        server.handle(GradientMessage(worker, payload, i))


def _flat_state(server):
    if hasattr(server, "shards"):
        return [b.copy() for s in server.checkpoint_state()["shards"] for b in s["buffers"]]
    return [b.copy() for b in server.checkpoint_state()["buffers"]]


@pytest.mark.parametrize(
    "arena,num_shards",
    [(False, 1), (True, 1), (False, 2), (True, 2)],
    ids=["dict", "arena", "dict-sharded", "arena-sharded"],
)
def test_roundtrip_restores_state_bitwise(tmp_path, arena, num_shards):
    source = _server(arena=arena, num_shards=num_shards)
    _advance(source, steps=4)
    path = tmp_path / "state.ckpt"
    header = save_checkpoint(source, path)
    assert header["num_shards"] == num_shards

    target = _server(arena=arena, num_shards=num_shards)
    load_checkpoint(target, path)
    assert target.timestamp == source.timestamp
    for got, want in zip(_flat_state(target), _flat_state(source)):
        np.testing.assert_array_equal(got, want)
    got_model, want_model = target.global_model(), source.global_model()
    for name in want_model:
        np.testing.assert_array_equal(got_model[name], want_model[name])


def test_header_records_per_worker_update_counts(tmp_path):
    server = _server()
    _advance(server, steps=3, worker=0)
    _advance(server, steps=2, worker=1)
    header = save_checkpoint(server, tmp_path / "c.ckpt")
    assert header["shards"][0]["updates"] == {"0": 3, "1": 2}


def test_restore_into_fresh_server_grows_worker_set(tmp_path):
    """A checkpoint taken after elastic joins restores into a server built
    with the original (smaller) worker count."""
    source = _server(num_workers=1)
    _advance(source)
    source.bootstrap_worker(2)  # elastic join grew v to 3 workers
    save_checkpoint(source, tmp_path / "c.ckpt")
    target = _server(num_workers=1)
    load_checkpoint(target, tmp_path / "c.ckpt")
    assert target.tracker.num_workers == 3
    for got, want in zip(_flat_state(target), _flat_state(source)):
        np.testing.assert_array_equal(got, want)


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(_server(), path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        server = _server()
        _advance(server)
        save_checkpoint(server, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(_server(), path)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(_server(num_shards=2), path)
        with pytest.raises(ValueError, match="shard"):
            load_checkpoint(_server(num_shards=1), path)

    def test_wrong_model_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(_server(), path)
        other = build_server(
            get_method("dgs"),
            parameters_of(MLP(8, (20,), 3, seed=4)),  # different hidden width
            2,
            Hyper(ratio=0.25, min_sparse_size=0),
        )
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    @pytest.mark.parametrize(
        "saved,loaded", [("float64", None), (None, "float64")], ids=["f64-into-f32", "f32-into-f64"]
    )
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_dtype_mismatch_rejected_before_any_state_is_touched(
        self, tmp_path, saved, loaded, num_shards
    ):
        """Restoring float64 state into a float32 server would round ``M``
        silently (and the reverse would pass float32 off as float64)."""
        path = tmp_path / "c.ckpt"
        source = _server(num_shards=num_shards, dtype=saved)
        _advance(source, steps=3)
        save_checkpoint(source, path)
        target = _server(num_shards=num_shards, dtype=loaded)
        _advance(target, steps=1)
        before = _flat_state(target)
        with pytest.raises(ValueError, match=r"float(32|64).*float(32|64)"):
            load_checkpoint(target, path)
        assert target.timestamp == 1
        for got, want in zip(_flat_state(target), before, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(_server(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]


# -- restore with outstanding model differences ---------------------------
# One worker and ASGD (the end-to-end pin) keep v_k == M at every
# checkpoint, so they cannot see a reply path that forgets what a stale
# worker is still owed.
_ORDER = (0, 1, 2, 0, 0, 1, 0, 2, 1, 0, 2, 2, 1, 0)


def _dgs_server(arena):
    # 2 % uploads of 512/32/128/4-element layers: a worker 4 updates behind
    # is owed 44 of 512 indices, under the tracker's journal limit, so the
    # arena server answers from its dirty-index journal when it may
    model = MLP(16, (32,), 4, seed=4)
    return build_server(
        get_method("dgs"),
        parameters_of(model),
        3,
        Hyper(lr=0.1, momentum=0.7, ratio=0.02, min_sparse_size=0),
        secondary_compression=False,
        arena=arena,
        arena_dtype=np.float64 if arena else None,
    )


def _sparse_uploads(server, count):
    from repro.compression import topk_select

    rng = np.random.default_rng(21)
    return [
        {
            name: topk_select(rng.normal(size=np.shape(buf)), 0.02)
            for name, buf in server.global_model().items()
        }
        for _ in range(count)
    ]


def _exchange(server, thetas, uploads, start, stop):
    """Steps ``start..stop`` of the fixed interleaving; returns the replies."""
    replies = []
    for i in range(start, stop):
        reply = server.handle(GradientMessage(_ORDER[i], uploads[i], i))
        for name, layer in reply.payload.items():
            layer.add_into(thetas[_ORDER[i]][name])
        replies.append(reply)
    return replies


@pytest.mark.parametrize("cut", [5, len(_ORDER)])
def test_arena_checkpoint_is_byte_identical_to_the_dict_oracle(tmp_path, cut):
    """The arena server keeps no ``v_k`` (its journal stands in for them),
    yet writes the dict oracle's ``M + K·v_k`` file byte for byte: each
    ``v_k`` is materialised from ``M`` and the journal as it is written."""
    files = []
    for arena in (False, True):
        server = _dgs_server(arena)
        thetas = [{n: np.array(a) for n, a in server.global_model().items()} for _ in range(3)]
        _exchange(server, thetas, _sparse_uploads(server, len(_ORDER)), 0, cut)
        if arena:
            assert all(buf is None for buf in server.tracker._buffers)
        save_checkpoint(server, tmp_path / f"{arena}.ckpt")
        files.append((tmp_path / f"{arena}.ckpt").read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("arena", [False, True], ids=["dict", "arena"])
def test_restore_with_outstanding_differences_is_bitwise(tmp_path, arena):
    """3 workers, DGS without secondary compression: checkpoint while two
    workers are still owed a difference, restore into a fresh server,
    continue — replies, M, every v_k and every θ_k equal the uninterrupted
    run's bit for bit."""
    cut = 5  # after step 4: worker 0 just synced, workers 1 and 2 are stale

    def fresh_thetas(server):
        return [
            {n: np.array(a, dtype=np.float64) for n, a in server.global_model().items()}
            for _ in range(3)
        ]

    full = _dgs_server(arena)
    uploads = _sparse_uploads(full, len(_ORDER))
    full_thetas = fresh_thetas(full)
    full_replies = _exchange(full, full_thetas, uploads, 0, len(_ORDER))

    first = _dgs_server(arena)
    thetas = fresh_thetas(first)
    replies = _exchange(first, thetas, uploads, 0, cut)
    assert [first.tracker.staleness(k) for k in range(3)] == [0, 3, 2]
    path = tmp_path / "mid.ckpt"
    save_checkpoint(first, path)

    resumed = _dgs_server(arena)
    load_checkpoint(resumed, path)
    replies += _exchange(resumed, thetas, uploads, cut, len(_ORDER))

    for got, want in zip(replies, full_replies):
        assert (got.server_timestamp, got.staleness) == (want.server_timestamp, want.staleness)
        for name, layer in want.payload.items():
            assert type(got.payload[name]) is type(layer)
            np.testing.assert_array_equal(got.payload[name].to_dense(), layer.to_dense())
            assert got.payload[name].nbytes() == layer.nbytes()
    for got, want in zip(_flat_state(resumed), _flat_state(full)):
        np.testing.assert_array_equal(got, want)
    for k in range(3):
        for name in full_thetas[k]:
            np.testing.assert_array_equal(thetas[k][name], full_thetas[k][name])
