"""Journal path ≡ dense scan, as a property.

The tracker without secondary compression answers ``M − v_k`` from its
dirty-index journal when it can (``repro.core.tracker``); the parity
oracle's tracker (``repro.core.reference``) always scans.  Random interleavings of everything that
can reach a server — every payload kind, exact cancellation, staleness
damping, elastic joins, checkpoint/restore, workers silent past the
journal's retention bound — must leave the two indistinguishable: same
reply layer types, same ``indices``, bitwise the same ``values``, the same
``nbytes()``; a materialised ``v_k`` equals ``M`` after every exchange
(Eq. 5) and no ``v_k`` buffer is held for that worker; a straggler's
materialised ``v_k`` is bitwise the dict server's; a join allocates
nothing; and the tracker never holds more than ``M`` + the journal's
documented bound + the ``v_k`` it holds.
"""

import tracemalloc
from collections import OrderedDict

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.compression import DenseTensor, QuantizedSparseTensor, SparseTensor
from repro.core import tracker as tracker_module
from repro.core.reference import install_reference_server
from repro.ps.messages import GradientMessage
from repro.ps.server import ParameterServer

SHAPES = OrderedDict([("w", (8, 12)), ("u", (40,)), ("b", (5,))])
SIZES = {name: int(np.prod(shape)) for name, shape in SHAPES.items()}
MAX_WORKERS = 6

#: quarter-integers: every sum of them is exact in float64, so ``+x`` then
#: ``−x`` cancels to the bit whenever staleness damping is off
grid = st.integers(min_value=-32, max_value=32).map(lambda i: i / 4.0)


@st.composite
def layer_payloads(draw, name):
    """One layer of an upload, in any form a worker can send it."""
    n, shape = SIZES[name], SHAPES[name]
    kind = draw(st.sampled_from(["coo", "coo", "coo", "whole-coo", "ndarray", "dense", "ternary"]))
    if kind in ("ndarray", "dense"):
        arr = np.array(draw(st.lists(grid, min_size=n, max_size=n))).reshape(shape)
        return arr if kind == "ndarray" else DenseTensor(arr)
    if kind == "whole-coo":  # how top-k ships a layer under min_sparse_size
        idx = np.arange(n, dtype=np.intp)
    else:
        picked = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=4))
        idx = np.array(sorted(picked), dtype=np.intp)
    if kind == "ternary":
        signs = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=idx.size, max_size=idx.size)), dtype=np.int8)
        return QuantizedSparseTensor(idx, signs, abs(draw(grid)), shape)
    values = np.array(draw(st.lists(grid, min_size=idx.size, max_size=idx.size)), dtype=np.float64)
    return SparseTensor(idx, values, shape)


@st.composite
def uploads(draw):
    """A payload over any subset of the layers (a skipped layer stays clean)."""
    names = draw(st.lists(st.sampled_from(list(SHAPES)), unique=True))
    return OrderedDict((name, draw(layer_payloads(name))) for name in SHAPES if name in names)


def _server(num_workers, damping, oracle=False):
    theta0 = OrderedDict((name, np.zeros(shape)) for name, shape in SHAPES.items())
    server = ParameterServer(theta0, num_workers, staleness_damping=damping, dtype=np.float64)
    return install_reference_server(server, theta0) if oracle else server


def _journaled(tr):
    """``(layer, indices | None, pre-values)`` for every journaled layer."""
    return [(name, idx, pre) for entry in tr._journal for name, (idx, pre) in entry.items()]


def _held(tr):
    """Workers whose ``v_k`` the journal tracker holds as a buffer."""
    return [k for k, buf in enumerate(tr._buffers) if buf is not None]


def _retention(tr):
    return int(tr.M.size * tracker_module._JOURNAL_MAX_FRACTION)


def _assert_same_reply(got, want):
    assert (got.server_timestamp, got.staleness) == (want.server_timestamp, want.staleness)
    assert list(got.payload) == list(want.payload)
    for name, ref in want.payload.items():
        layer = got.payload[name]
        assert type(layer) is type(ref), (name, type(layer).__name__, type(ref).__name__)
        assert layer.nbytes() == ref.nbytes()
        if isinstance(ref, DenseTensor):
            assert layer.data.tobytes() == ref.data.tobytes()
            continue
        np.testing.assert_array_equal(layer.indices, ref.indices)
        assert layer.values.dtype == ref.values.dtype
        assert layer.values.tobytes() == ref.values.tobytes()


class JournalVersusScan(RuleBasedStateMachine):
    @initialize(num_workers=st.integers(1, 5), damping=st.booleans())
    def build(self, num_workers, damping):
        self.damping = damping
        self.journal = _server(num_workers, damping)
        self.scan = _server(num_workers, damping, oracle=True)
        self.sent = 0

    # -- the one operation both servers must agree on ------------------
    def _exchange(self, worker, payload):
        msg = GradientMessage(worker, payload, self.sent)
        self.sent += 1
        got, want = self.journal.handle(msg), self.scan.handle(msg)
        _assert_same_reply(got, want)
        tr = self.journal.tracker
        assert tr.vk(worker).flat.tobytes() == tr.M.flat.tobytes()  # Eq. 5
        assert worker not in _held(tr)  # the journal stands in for v_k again
        for name in SHAPES:
            np.testing.assert_array_equal(tr.M[name], self.scan.tracker.M[name])

    @rule(data=st.data(), payload=uploads())
    def exchange(self, data, payload):
        worker = data.draw(st.integers(0, self.journal.tracker.num_workers - 1))
        self._exchange(worker, payload)

    @rule(data=st.data(), turns=st.integers(3, 8))
    def interleave_small_updates(self, data, turns):
        """Several workers, a few indices each: the unions of 2–5 journaled
        updates that stay under the per-layer limit."""
        workers = st.integers(0, self.journal.tracker.num_workers - 1)
        for _ in range(turns):
            name = data.draw(st.sampled_from(["w", "u"]))
            picked = data.draw(st.sets(st.integers(0, SIZES[name] - 1), min_size=1, max_size=2))
            values = data.draw(st.lists(grid, min_size=len(picked), max_size=len(picked)))
            layer = SparseTensor(np.array(sorted(picked), dtype=np.intp), np.array(values), SHAPES[name])
            self._exchange(data.draw(workers), OrderedDict([(name, layer)]))

    @rule(data=st.data(), name=st.sampled_from(list(SHAPES)), x=grid)
    def cancelling_pair(self, data, name, x):
        """``+x`` then ``−x`` on one index: whoever is owed both must not be
        sent an explicit zero (same nnz, same bytes as the scan)."""
        worker = data.draw(st.integers(0, self.journal.tracker.num_workers - 1))
        idx = np.array([data.draw(st.integers(0, SIZES[name] - 1))], dtype=np.intp)
        self._exchange(worker, OrderedDict())  # sync: staleness 0, so no damping below
        for value in (x, -x):
            layer = SparseTensor(idx, np.array([value]), SHAPES[name])
            self._exchange(worker, OrderedDict([(name, layer)]))

    @rule(data=st.data(), count=st.integers(6, 12), payload=uploads())
    def one_worker_runs_ahead(self, data, count, payload):
        """Everyone else falls silent past the journal's retention bound."""
        worker = data.draw(st.integers(0, self.journal.tracker.num_workers - 1))
        for _ in range(count):
            self._exchange(worker, payload)

    @rule(skip=st.integers(0, 1))
    def join(self, skip):
        """Elastic join of a new id (``skip`` leaves a never-bootstrapped gap)."""
        worker = self.journal.tracker.num_workers + skip
        if worker >= MAX_WORKERS:
            return
        for server in (self.journal, self.scan):
            server.bootstrap_worker(worker)

    @rule()
    def checkpoint_and_restore(self):
        for attr, oracle in (("journal", False), ("scan", True)):
            state = getattr(self, attr).checkpoint_state()
            fresh = _server(1, self.damping, oracle)
            fresh.restore_state(state)
            setattr(self, attr, fresh)

    @rule(data=st.data(), step=st.integers(1, 5))
    def straggler_past_retention(self, data, step):
        """Another worker runs ahead until the journal drops entries the
        straggler is owed: its ``v_k`` is materialised (bitwise the dict
        server's) and its next reply is the scan against that buffer."""
        tr = self.journal.tracker
        if tr.num_workers < 2:
            return
        straggler = data.draw(st.integers(0, tr.num_workers - 1))
        runner = (straggler + 1) % tr.num_workers
        base = data.draw(st.integers(0, SIZES["u"] - 1))
        for turn in range(2 * _retention(tr)):
            if straggler in _held(tr):
                break
            idx = np.unique((base + turn * step + np.arange(3)) % SIZES["u"])
            layer = SparseTensor(idx, np.full(idx.size, 0.25), SHAPES["u"])
            self._exchange(runner, OrderedDict([("u", layer)]))
        assert straggler in _held(tr)
        want = np.concatenate([arr.reshape(-1) for arr in self.scan.tracker.vk(straggler).values()])
        assert tr.vk(straggler).flat.tobytes() == want.tobytes()
        self._exchange(straggler, OrderedDict())

    @rule()
    def join_allocates_nothing(self):
        """A new id mid-run is ``prev(k) ← t``: no buffer, no journal change."""
        tr = self.journal.tracker
        worker = tr.num_workers
        if worker >= MAX_WORKERS:
            return
        state_bytes = tr.server_state_bytes()
        owed = [None if k in _held(tr) else len(tr._journaled_since(k)) for k in range(worker)]
        tracemalloc.start()
        try:
            tr.bootstrap_worker(worker)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tr.M.nbytes, peak  # a v_k buffer alone is M.nbytes
        assert tr.server_state_bytes() == state_bytes
        assert [None if k in _held(tr) else len(tr._journaled_since(k)) for k in range(worker)] == owed
        assert tr._journaled_since(worker) == []
        self.scan.bootstrap_worker(worker)

    @invariant()
    def journal_is_bounded(self):
        tr = self.journal.tracker
        journaled = _journaled(tr)
        for name, idx, pre in journaled:
            assert pre.size == (SIZES[name] if idx is None else idx.size)
        assert sum(pre.size for _, _, pre in journaled) == tr._journal_size
        assert tr._journal_size <= _retention(tr)

    @invariant()
    def tracker_bytes_are_M_journal_and_held(self):
        tr = self.journal.tracker
        held = sum(tr._buffers[k].nbytes for k in _held(tr))
        per_index = np.dtype(np.intp).itemsize + tr.M.dtype.itemsize
        assert tr.server_state_bytes() <= tr.M.nbytes + _retention(tr) * per_index + held


TestJournalVersusScan = JournalVersusScan.TestCase
TestJournalVersusScan.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


# -- the named cases, pinned without the search --------------------------
def _coo(name, indices, values):
    return SparseTensor(np.array(indices, dtype=np.intp), np.array(values, dtype=np.float64), SHAPES[name])


def _pair(num_workers):
    return _server(num_workers, False), _server(num_workers, False, oracle=True)


def _both(servers, worker, payload, step=0):
    msg = GradientMessage(worker, payload, step)
    got, want = (server.handle(msg) for server in servers)
    _assert_same_reply(got, want)
    return got


def test_journal_path_is_taken_and_scan_is_not(monkeypatch):
    """Sparse uploads at low staleness never touch the dense scan."""
    servers = _pair(3)
    scans = []
    tr = servers[0].tracker
    monkeypatch.setattr(tr, "_layer_scan", lambda name, vk: scans.append(name))
    for step, worker in enumerate((0, 1, 2, 0, 1, 2)):
        _both(servers, worker, OrderedDict([("w", _coo("w", [step, 50 + step], [1.0, -2.0]))]), step)
    assert scans == []


def test_cancelled_index_is_not_shipped():
    servers = _pair(2)
    _both(servers, 0, OrderedDict([("w", _coo("w", [7, 9], [1.5, 2.0]))]))
    _both(servers, 0, OrderedDict([("w", _coo("w", [7], [-1.5]))]))
    reply = _both(servers, 1, OrderedDict())
    assert reply.payload["w"].indices.tolist() == [9]


def test_silent_worker_past_retention_gets_the_scan_then_the_journal():
    servers = _pair(2)
    tr = servers[0].tracker
    limit = _retention(tr)
    for step in range(2 * limit):  # worker 0 alone, 2 indices an update
        _both(servers, 0, OrderedDict([("w", _coo("w", [step % 96, (step + 40) % 96], [1.0, 1.0]))]), step)
    assert tr._journal_size <= limit and tr.staleness(1) == 2 * limit
    assert _held(tr) == [1]  # materialised once, as the journal let go of it
    assert tr._journaled_since(1) is None  # out of reach: the full scan
    _both(servers, 1, OrderedDict())
    assert _held(tr) == []  # the buffer went with the reply
    _both(servers, 0, OrderedDict([("u", _coo("u", [3], [1.0]))]))
    assert len(tr._journaled_since(1)) == 1  # and covered again
    _both(servers, 1, OrderedDict())


def test_join_mid_run_keeps_the_journal(monkeypatch):
    """A new id costs no memory and demotes nobody to the dense scan."""
    servers = _pair(2)
    tr = servers[0].tracker
    for step, worker in enumerate((0, 1, 0)):
        _both(servers, worker, OrderedDict([("w", _coo("w", [step, 60 + step], [1.0, 2.0]))]), step)
    state_bytes = servers[0].server_state_bytes()
    for server in servers:
        server.bootstrap_worker(2)
    assert servers[0].server_state_bytes() == state_bytes
    scans = []
    monkeypatch.setattr(tr, "_layer_scan", lambda name, vk: scans.append(name))
    for step, worker in enumerate((1, 0, 2), start=3):
        _both(servers, worker, OrderedDict([("w", _coo("w", [step], [1.0]))]), step)
    assert scans == [] and _held(tr) == []


def test_restore_into_a_used_server_forgets_its_journal():
    """Same t, different history: the journal of the run being overwritten
    says nothing about what the restored workers are owed."""
    source, target = _pair(2), _pair(2)
    for step, (src_idx, dst_idx) in enumerate([(1, 10), (2, 11)]):
        _both(source, 0, OrderedDict([("w", _coo("w", [src_idx], [1.0]))]), step)
        _both(target, 0, OrderedDict([("w", _coo("w", [dst_idx], [1.0]))]), step)
    for src, dst in zip(source, target):
        dst.restore_state(src.checkpoint_state())
    reply = _both(target, 1, OrderedDict())
    assert reply.payload["w"].indices.tolist() == [1, 2]


def test_restored_residual_is_shipped_before_the_journal_serves():
    """A checkpoint written under secondary compression holds ``v_k != M``
    at ``prev(k) == t``; restored into servers without it, the residual is
    owed at once — the first reply after a load is always the scan."""
    source = ParameterServer(
        OrderedDict((name, np.zeros(shape)) for name, shape in SHAPES.items()),
        2,
        secondary_ratio=0.05,
        secondary_min_sparse_size=0,
        dtype=np.float64,
    )
    update = OrderedDict([("w", _coo("w", range(0, 96, 3), np.arange(1.0, 33.0)))])
    source.handle(GradientMessage(0, update, 0))  # ships 5 of 32, keeps 27 back
    servers = _pair(2)
    for server in servers:
        server.restore_state(source.checkpoint_state())
    assert servers[0].tracker.staleness(0) == 0
    reply = _both(servers, 0, OrderedDict(), 1)
    assert reply.payload["w"].nnz == 27
    tr = servers[0].tracker
    assert tr.v[0].flat.tobytes() == tr.M.flat.tobytes()
    _both(servers, 1, OrderedDict(), 2)
    assert tr._journaled_since(0) is not None and tr._journaled_since(1) is not None


def test_wrap_around_indices_get_the_scan():
    """A hand-built payload may address element n−1 as −1; the union would
    count that element twice, so such a layer is answered by the scan."""
    servers = _pair(2)
    _both(servers, 0, OrderedDict([("w", _coo("w", [-1], [1.0]))]))
    _both(servers, 0, OrderedDict([("w", _coo("w", [95], [2.0]))]))
    reply = _both(servers, 1, OrderedDict())
    assert reply.payload["w"].indices.tolist() == [95]
