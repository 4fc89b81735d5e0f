"""LayerArena: layout, aliasing, fused ops, pickling."""

import pickle
from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import SparseTensor, encode_sparse
from repro.core.arena import LayerArena

SHAPES = OrderedDict([("w", (3, 4)), ("b", (4,)), ("head", (5,))])


def filled(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    return OrderedDict((n, rng.normal(size=s).astype(dtype)) for n, s in SHAPES.items())


class TestLayout:
    def test_views_alias_flat(self):
        a = LayerArena(SHAPES)
        a["w"][1, 2] = 7.0
        start, _ = a.span("w")
        assert a.flat[start + 1 * 4 + 2] == 7.0
        a.flat[:] = 3.0
        assert (a["b"] == 3.0).all()

    def test_mapping_protocol(self):
        a = LayerArena(SHAPES)
        assert list(a) == ["w", "b", "head"]
        assert len(a) == 3
        assert "b" in a
        assert a["w"].shape == (3, 4)
        assert {n: v.shape for n, v in a.items()} == {n: tuple(s) for n, s in SHAPES.items()}

    def test_spans_cover_flat_contiguously(self):
        a = LayerArena(SHAPES)
        offset = 0
        for name in a:
            s, e = a.span(name)
            assert s == offset and e - s == a[name].size
            offset = e
        assert offset == a.size == 12 + 4 + 5

    def test_default_dtype_is_float32(self):
        assert LayerArena(SHAPES).dtype == np.float32

    def test_same_layout_is_order_sensitive(self):
        a = LayerArena(SHAPES)
        assert a.same_layout(LayerArena(SHAPES))
        assert not a.same_layout(OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items()))
        reordered = OrderedDict(reversed(list(SHAPES.items())))
        assert not a.same_layout(LayerArena(reordered))

    def test_backing_buffer_size_checked(self):
        with pytest.raises(ValueError):
            LayerArena(SHAPES, _flat=np.zeros(7))


class TestOps:
    def test_from_layers_roundtrip_keeps_dtype(self):
        layers = filled(np.float64)
        a = LayerArena.from_layers(layers)
        assert a.dtype == np.float64  # dtype=None infers, never rounds
        for n in layers:
            np.testing.assert_array_equal(a[n], layers[n])

    def test_clone_is_independent(self):
        a = LayerArena.from_layers(filled())
        b = a.clone()
        b.flat[:] = 0.0
        assert np.abs(a.flat).sum() > 0

    def test_add_fused_matches_per_layer(self):
        a = LayerArena.from_layers(filled(seed=1))
        b = LayerArena.from_layers(filled(seed=2))
        ref = {n: a[n] + 0.5 * b[n] for n in a}
        a.add_(b, 0.5)
        for n in a:
            np.testing.assert_array_equal(a[n], ref[n])

    def test_copy_and_zero(self):
        a = LayerArena.from_layers(filled())
        b = LayerArena(SHAPES, dtype=np.float64)
        b.copy_(a)
        np.testing.assert_array_equal(b.flat, a.flat)
        assert (b.zero_().flat == 0).all()

    def test_add_payload_dense_arena_fused(self):
        a = LayerArena.from_layers(filled(seed=1))
        p = LayerArena.from_layers(filled(seed=2))
        expect = a.flat - p.flat
        a.add_payload(p, scale=-1.0)
        np.testing.assert_array_equal(a.flat, expect)

    def test_add_payload_sparse_scatter(self):
        a = LayerArena(SHAPES, dtype=np.float64)
        vals = filled(seed=3)
        payload = OrderedDict((n, encode_sparse(v)) for n, v in vals.items())
        a.add_payload(payload, scale=-1.0)
        for n in a:
            np.testing.assert_array_equal(a[n], -vals[n].astype(np.float32).astype(np.float64))

    def test_add_payload_plain_dict(self):
        a = LayerArena(SHAPES, dtype=np.float64)
        vals = filled(seed=4)
        a.add_payload(vals)
        for n in a:
            np.testing.assert_array_equal(a[n], vals[n])

    def test_state_dict_roundtrip(self):
        a = LayerArena.from_layers(filled())
        state = a.state_dict()
        b = LayerArena(SHAPES, dtype=a.dtype)
        b.load_state_dict(state)
        np.testing.assert_array_equal(b.flat, a.flat)
        state["w"][:] = 0.0  # state_dict copies — mutating it can't reach b
        assert np.abs(b["w"]).sum() > 0

    def test_pickle_reassembles_views(self):
        a = LayerArena.from_layers(filled())
        b = pickle.loads(pickle.dumps(a))
        np.testing.assert_array_equal(b.flat, a.flat)
        b["w"][0, 0] = 42.0  # views must alias the unpickled flat buffer
        s, _ = b.span("w")
        assert b.flat[s] == 42.0

