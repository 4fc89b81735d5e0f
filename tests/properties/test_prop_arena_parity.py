"""Production (arena) state ≡ the parity oracle, bitwise, at equal dtype.

The arena's whole claim (``repro.core.arena``) is that fusing per-layer
loops into flat-buffer ops changes *nothing* about the arithmetic:
elementwise IEEE operations do not depend on how the operands are
batched.  These tests pin that — every payload type through
``add_payload`` against the per-layer loop, and every worker strategy /
the server tracker end to end against ``repro.core.reference`` — with
``assert_array_equal`` (no tolerance) at float64.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    TopKSparsifier,
    encode_best,
    encode_sparse,
)
from repro.core.arena import LayerArena
from repro.core.reference import (
    ReferenceDenseStrategy,
    ReferenceDGCStrategy,
    ReferenceGradientDroppingStrategy,
    ReferenceSAMomentumStrategy,
    ReferenceTracker,
)
from repro.core.strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
)
from repro.core.tracker import ModelDifferenceTracker

N = 14
SHAPES = OrderedDict([("w", (N,)), ("b", (5,))])

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, width=64)
vec = st.lists(finite, min_size=N, max_size=N)
small_vec = st.lists(finite, min_size=5, max_size=5)
grad_seqs = st.lists(st.tuples(vec, small_vec), min_size=1, max_size=8)
ratios = st.floats(min_value=0.05, max_value=1.0)
lrs = st.floats(min_value=0.001, max_value=1.0)
momenta = st.floats(min_value=0.05, max_value=0.95)


def _grads(pair):
    w, b = pair
    return OrderedDict([("w", np.asarray(w)), ("b", np.asarray(b))])


def _assert_payload_equal(a, b):
    """Two per-layer payloads produce identical dense content, bitwise."""
    assert list(a) == list(b)
    for n in a:
        da = a[n].to_dense() if hasattr(a[n], "to_dense") else np.asarray(a[n])
        db = b[n].to_dense() if hasattr(b[n], "to_dense") else np.asarray(b[n])
        np.testing.assert_array_equal(da, db)


class TestAddPayloadParity:
    """arena.add_payload == layerops-style reference loop, every payload."""

    @given(pair=st.tuples(vec, small_vec), scale=st.sampled_from([1.0, -1.0, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_dense_payload(self, pair, scale):
        vals = _grads(pair)
        arena = LayerArena.from_layers(_grads(pair), dtype=np.float64)
        ref = _grads(pair)
        arena.add_payload(vals, scale=scale)
        for n, arr in ref.items():
            if scale == 1.0:
                arr += vals[n]
            else:
                arr += scale * vals[n]
            np.testing.assert_array_equal(arena[n], arr)

    @given(pair=st.tuples(vec, small_vec), scale=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=60, deadline=None)
    def test_sparse_payload(self, pair, scale):
        vals = _grads(pair)
        payload = OrderedDict((n, encode_sparse(v)) for n, v in vals.items())
        arena = LayerArena(SHAPES, dtype=np.float64)
        ref = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        arena.add_payload(payload, scale=scale)
        for n, layer in payload.items():
            if scale == 1.0:
                layer.add_into(ref[n])
            else:  # the reference server: dest.reshape(-1)[idx] -= values
                ref[n].reshape(-1)[layer.indices] -= layer.values
            np.testing.assert_array_equal(arena[n], ref[n])

    @given(pair=st.tuples(vec, small_vec), scale=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_quantized_payload(self, pair, scale):
        from repro.compression import QuantizedSparseTensor

        vals = _grads(pair)
        payload = OrderedDict(
            (
                n,
                QuantizedSparseTensor(
                    np.flatnonzero(v), np.sign(v[v != 0]).astype(np.int8), scale, v.shape
                ),
            )
            for n, v in vals.items()
        )
        arena = LayerArena(SHAPES, dtype=np.float64)
        ref = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        arena.add_payload(payload)
        for n, layer in payload.items():
            layer.add_into(ref[n])
            np.testing.assert_array_equal(arena[n], ref[n])

    @given(pair=st.tuples(vec, small_vec), factor=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_fused(self, pair, factor):
        """arena.scale_ == per-layer `arr *= factor`, bitwise."""
        arena = LayerArena.from_layers(_grads(pair), dtype=np.float64)
        ref = _grads(pair)
        arena.scale_(factor)
        for n, arr in ref.items():
            arr *= factor
            np.testing.assert_array_equal(arena[n], arr)

    @given(pair=st.tuples(vec, small_vec))
    @settings(max_examples=60, deadline=None)
    def test_best_encoded_payload(self, pair):
        """encode_best picks COO/bitmap/dense per density — all must agree."""
        vals = _grads(pair)
        payload = OrderedDict((n, encode_best(v)) for n, v in vals.items())
        arena = LayerArena(SHAPES, dtype=np.float64)
        ref = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        arena.add_payload(payload)
        for n, layer in payload.items():
            layer.add_into(ref[n])
            np.testing.assert_array_equal(arena[n], ref[n])


class TestStrategyParity:
    """Production strategies (float64) == the oracle's, bitwise."""

    @given(seq=grad_seqs, lr=lrs)
    @settings(max_examples=40, deadline=None)
    def test_dense(self, seq, lr):
        ref = ReferenceDenseStrategy(SHAPES)
        opt = DenseStrategy(SHAPES, dtype=np.float64)
        for pair in seq:
            _assert_payload_equal(opt.prepare(_grads(pair), lr), ref.prepare(_grads(pair), lr))

    @given(seq=grad_seqs, ratio=ratios, lr=lrs)
    @settings(max_examples=40, deadline=None)
    def test_gradient_dropping(self, seq, ratio, lr):
        ref = ReferenceGradientDroppingStrategy(SHAPES, TopKSparsifier(ratio, min_sparse_size=0))
        opt = GradientDroppingStrategy(
            SHAPES, TopKSparsifier(ratio, min_sparse_size=0), dtype=np.float64
        )
        for pair in seq:
            _assert_payload_equal(opt.prepare(_grads(pair), lr), ref.prepare(_grads(pair), lr))
        for n in SHAPES:
            np.testing.assert_array_equal(opt.residual[n], ref.residual[n])

    @given(seq=grad_seqs, ratio=ratios, lr=lrs, m=momenta)
    @settings(max_examples=40, deadline=None)
    def test_dgc(self, seq, ratio, lr, m):
        ref = ReferenceDGCStrategy(SHAPES, ratio, momentum=m, min_sparse_size=0)
        opt = DGCStrategy(SHAPES, ratio, momentum=m, min_sparse_size=0, dtype=np.float64)
        for pair in seq:
            _assert_payload_equal(opt.prepare(_grads(pair), lr), ref.prepare(_grads(pair), lr))
        for n in SHAPES:
            np.testing.assert_array_equal(opt.u[n], ref.u[n])
            np.testing.assert_array_equal(opt.v[n], ref.v[n])

    @given(seq=grad_seqs, ratio=ratios, lr=lrs, m=momenta)
    @settings(max_examples=40, deadline=None)
    def test_samomentum(self, seq, ratio, lr, m):
        ref = ReferenceSAMomentumStrategy(SHAPES, TopKSparsifier(ratio, min_sparse_size=0), m)
        opt = SAMomentumStrategy(
            SHAPES, TopKSparsifier(ratio, min_sparse_size=0), m, dtype=np.float64
        )
        for pair in seq:
            _assert_payload_equal(opt.prepare(_grads(pair), lr), ref.prepare(_grads(pair), lr))
        for n in SHAPES:
            np.testing.assert_array_equal(opt.u[n], ref.u[n])


class TestTrackerParity:
    """Server-side M / v_k / model differences, production vs oracle, bitwise."""

    @given(
        seq=st.lists(st.tuples(vec, small_vec), min_size=1, max_size=10),
        syncs=st.lists(st.sampled_from([None, 0, 1]), min_size=10, max_size=10),
        ratio=ratios,
        secondary=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_exchange_schedule(self, seq, syncs, ratio, secondary):
        def make(cls, **dtype):
            return cls(
                SHAPES, 2,
                secondary=TopKSparsifier(ratio, min_sparse_size=0) if secondary else None,
                **dtype,
            )

        ref, opt = make(ReferenceTracker), make(ModelDifferenceTracker, dtype=np.float64)
        for pair, sync in zip(seq, syncs):
            upd = OrderedDict((n, encode_sparse(v)) for n, v in _grads(pair).items())
            ref.apply_update(upd)
            opt.apply_update(upd)
            if sync is not None:
                _assert_payload_equal(opt.model_difference(sync), ref.model_difference(sync))
        for n in SHAPES:
            np.testing.assert_array_equal(opt.M[n], ref.M[n])
            for w in (0, 1):
                np.testing.assert_array_equal(opt.vk(w)[n], ref.vk(w)[n])
        assert opt.t == ref.t and opt.prev == ref.prev
