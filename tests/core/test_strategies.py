"""Worker strategies: the paper's Algorithms 1 and 3 plus baselines.

The decisive invariants:

* Gradient Dropping conserves mass: Σ(sent) + residual == Σ(η∇) always.
* SAMomentum telescoping (Eq. 16): over any interval where a coordinate is
  unsent, ``u_{c+T} = m·u_c + η·Σ∇`` — equivalent to an enlarged batch
  (Eq. 17).  The strategy stores ``m·u``, so an unsent coordinate holds
  ``η·Σ∇`` with no ``m`` factor.
* SAMomentum at R=100% is *exactly* dense momentum (T=1 case).
* DGC momentum factor masking zeroes u and v at sent coordinates.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import SparseTensor, TopKSparsifier
from repro.core.reference import ReferenceSAMomentumStrategy
from repro.core.strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
    SparsityRamp,
)

SHAPES = OrderedDict([("w", (40,)), ("b", (10,))])
#: bytes per state element: strategies hold float32 unless given a dtype
F32 = np.dtype(np.float32).itemsize


def grads_from(rng):
    return OrderedDict((n, rng.normal(size=s)) for n, s in SHAPES.items())


def payload_dense(payload):
    return OrderedDict(
        (n, p.to_dense() if isinstance(p, SparseTensor) else p) for n, p in payload.items()
    )


class TestDenseStrategy:
    def test_sends_scaled_gradient(self, rng):
        st = DenseStrategy(SHAPES)
        g = grads_from(rng)
        out = st.prepare(g, lr=0.5)
        np.testing.assert_allclose(out["w"], 0.5 * g["w"])

    def test_no_state(self):
        assert DenseStrategy(SHAPES).state_bytes() == 0

    def test_not_sparse(self):
        assert DenseStrategy.sparse_output is False


class TestGradientDropping:
    def make(self, ratio=0.1):
        return GradientDroppingStrategy(SHAPES, TopKSparsifier(ratio, min_sparse_size=0))

    def test_mass_conservation(self, rng):
        """sent-so-far + residual == η·Σ∇ exactly (Algorithm 1)."""
        st = self.make()
        lr = 0.1
        total_sent = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        total_grad = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        for _ in range(20):
            g = grads_from(rng)
            out = st.prepare(g, lr)
            for n in SHAPES:
                total_sent[n] += out[n].to_dense()
                total_grad[n] += lr * g[n]
        for n in SHAPES:
            # atol covers float32 wire rounding of the sent values.
            np.testing.assert_allclose(total_sent[n] + st.residual[n], total_grad[n], atol=1e-5)

    def test_sends_topk_of_residual(self, rng):
        st = self.make(ratio=0.1)
        g = grads_from(rng)
        out = st.prepare(g, lr=1.0)
        assert out["w"].nnz == 4  # 10% of 40

    def test_residual_zeroed_at_sent(self, rng):
        st = self.make()
        out = st.prepare(grads_from(rng), lr=1.0)
        sent_idx = out["w"].indices
        np.testing.assert_array_equal(st.residual["w"].reshape(-1)[sent_idx], 0.0)

    def test_small_gradients_eventually_sent(self):
        st = self.make(ratio=0.1)
        g = OrderedDict([("w", np.full(40, 0.01)), ("b", np.zeros(10))])
        sent_indices = set()
        for _ in range(10):
            out = st.prepare(g, lr=1.0)
            sent_indices.update(out["w"].indices.tolist())
        assert len(sent_indices) == 40  # everyone's turn comes

    def test_state_bytes(self):
        st = self.make()
        assert st.state_bytes() == (40 + 10) * F32


class TestSAMomentum:
    def test_dense_ratio_equals_vanilla_momentum(self, rng):
        """R=100% ⇒ SAMomentum sends exactly the dense velocity (Eq. 16, T=1)."""
        m, lr = 0.7, 0.1
        st = SAMomentumStrategy(
            SHAPES, TopKSparsifier(1.0, min_sparse_size=0), momentum=m, dtype=np.float64
        )
        u_ref = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        for _ in range(10):
            g = grads_from(rng)
            out = st.prepare(g, lr)
            for n in SHAPES:
                u_ref[n] = m * u_ref[n] + lr * g[n]
                np.testing.assert_allclose(out[n].to_dense(), u_ref[n], atol=1e-12)

    def test_eq15_rescale(self, rng):
        """Stored form: after prepare, sent coords hold m·(u+ηg) — decayed
        at the end of the step that sent them — and unsent hold u+ηg."""
        m, lr = 0.5, 1.0
        st = SAMomentumStrategy(
            SHAPES, TopKSparsifier(0.1, min_sparse_size=0), momentum=m, dtype=np.float64
        )
        g1 = grads_from(rng)
        st.prepare(g1, lr)
        u_after_1 = {n: st.u[n].copy() for n in SHAPES}
        g2 = grads_from(rng)
        out2 = st.prepare(g2, lr)
        for n in SHAPES:
            velocity = u_after_1[n] + lr * g2[n]
            mask = np.zeros(SHAPES[n], dtype=bool).reshape(-1)
            mask[out2[n].indices] = True
            mask = mask.reshape(SHAPES[n])
            np.testing.assert_allclose(out2[n].values, velocity[mask], atol=1e-12)
            np.testing.assert_allclose(st.u[n][mask], m * velocity[mask], atol=1e-12)
            np.testing.assert_array_equal(st.u[n][~mask], velocity[~mask])

    def test_telescoping_eq16(self):
        """A never-sent coordinate accumulates η·Σ∇ with no m factor at all:
        the 1/m rescale and the next decay cancel (Eq. 16), so u holds the
        enlarged-batch gradient mass directly."""
        m, lr = 0.7, 0.1
        shapes = OrderedDict([("w", (4,))])
        st = SAMomentumStrategy(shapes, TopKSparsifier(0.25, min_sparse_size=0), momentum=m)
        # Coordinate 0 gets huge gradients (always sent); 1..3 get small,
        # consistent gradients (never sent until accumulated).
        gsum = np.zeros(4)
        T = 5
        for _ in range(T):
            g = OrderedDict([("w", np.array([100.0, 0.01, 0.012, 0.011]))])
            st.prepare(g, lr)
            gsum += lr * g["w"]
        np.testing.assert_allclose(st.u["w"][1:], gsum[1:], atol=1e-12)

    def test_no_momentum_disappearance(self):
        """Eq. 13 vs Eq. 16: when a long-unsent coordinate is finally sent,
        its payload is the whole η·Σ∇ since the last send — nothing was
        decayed away while it waited — and the next step carries m of it."""
        m, lr = 0.7, 1.0
        shapes = OrderedDict([("w", (4,))])
        st = SAMomentumStrategy(shapes, TopKSparsifier(0.25, min_sparse_size=0), momentum=m)
        for _ in range(6):
            st.prepare(OrderedDict([("w", np.array([10.0, 0.5, 0.0, 0.0]))]), lr)
        # a gradient that cancels coordinate 0: coordinate 1's accumulated 3.5 wins
        cancel = -st.u["w"][0]
        out = st.prepare(OrderedDict([("w", np.array([cancel, 0.5, 0.0, 0.0]))]), lr)
        assert out["w"].indices.tolist() == [1]
        np.testing.assert_allclose(out["w"].values, [7 * 0.5], atol=1e-12)
        np.testing.assert_allclose(st.u["w"][1], m * 3.5, atol=1e-12)

    def test_matches_textbook_algorithm3(self):
        """The oracle is Algorithm 3 as printed — u ← m·u + ηg; send top-k;
        u[unsent] /= m — kept written out here.  Fifty float64 steps: same
        index sets (the k-th magnitude is unique for continuous random
        gradients), payloads the float32 wire rounding of a velocity within
        1e-12 relative of the textbook's, and the stored state m times the
        textbook's."""
        m, lr, k = 0.7, 0.1, 8
        rng = np.random.default_rng(3)
        shapes = OrderedDict([("w", (16, 5))])
        st = SAMomentumStrategy(
            shapes, TopKSparsifier(0.1, min_sparse_size=0), momentum=m, dtype=np.float64
        )
        u = np.zeros(80)
        for _ in range(50):
            g = rng.normal(size=(16, 5))
            velocity = (st.u["w"] + lr * g).reshape(-1)
            out = st.prepare(OrderedDict([("w", g)]), lr)["w"]
            u = m * u + lr * g.reshape(-1)
            order = np.argsort(np.abs(u))
            assert np.abs(u[order[-k]]) > np.abs(u[order[-k - 1]])  # unique k-th
            sent = np.sort(order[-k:])
            np.testing.assert_array_equal(out.indices, sent)
            np.testing.assert_allclose(velocity[sent], u[sent], rtol=1e-12, atol=0)
            np.testing.assert_array_equal(out.values, velocity[sent].astype(np.float32))
            unsent = np.ones(80, dtype=bool)
            unsent[sent] = False
            u[unsent] /= m
            # atol: 50 steps of float64 rounding at the state's O(1) scale;
            # small unsent entries are sums that cancel, so not relative
            np.testing.assert_allclose(st.u["w"].reshape(-1), m * u, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("arena", [False, True])
    def test_checkpoint_continue_is_bitwise(self, arena, rng):
        """state_dict() is just u — the sent-only decay carries no extra
        state — and save → load → continue is bitwise, for production and
        for the parity oracle (what ``arena=False`` selects)."""
        cls = SAMomentumStrategy if arena else ReferenceSAMomentumStrategy

        def make():
            return cls(
                SHAPES, TopKSparsifier(0.1, min_sparse_size=0), momentum=0.7, dtype=np.float64
            )

        a = make()
        for _ in range(4):
            a.prepare(grads_from(rng), 0.1)
        state = a.state_dict()
        assert sorted(state) == ["u/b", "u/w"]
        b = make()
        b.load_state_dict(state)
        for _ in range(4):
            g = grads_from(rng)
            out_a, out_b = a.prepare(g, 0.1), b.prepare(g, 0.1)
            for n in SHAPES:
                np.testing.assert_array_equal(out_a[n].indices, out_b[n].indices)
                np.testing.assert_array_equal(out_a[n].values, out_b[n].values)
                np.testing.assert_array_equal(a.u[n], b.u[n])

    def test_no_residual_buffer(self):
        st = SAMomentumStrategy(SHAPES, TopKSparsifier(0.1), momentum=0.7)
        # single buffer u only: memory == one model copy (§5.6.2)
        assert st.state_bytes() == (40 + 10) * F32

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            SAMomentumStrategy(SHAPES, TopKSparsifier(0.1), momentum=0.0)
        with pytest.raises(ValueError):
            SAMomentumStrategy(SHAPES, TopKSparsifier(0.1), momentum=1.0)


class TestSparsityRamp:
    def test_reaches_final(self):
        ramp = SparsityRamp(0.01, warmup_epochs=4, start_ratio=0.25, iterations_per_epoch=10)
        assert ramp.ratio_at(0) == pytest.approx(0.25)
        assert ramp.ratio_at(40) == pytest.approx(0.01)
        assert ramp.ratio_at(1000) == pytest.approx(0.01)

    def test_monotone_decreasing(self):
        ramp = SparsityRamp(0.01, warmup_epochs=4, start_ratio=0.25, iterations_per_epoch=5)
        rs = [ramp.ratio_at(i) for i in range(0, 30, 5)]
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_dgc_reference_schedule(self):
        """75% → 93.75% → 98.4% → 99.6% sparsity over 4 epochs (Lin et al.)."""
        ramp = SparsityRamp(0.004, warmup_epochs=4, start_ratio=0.25, iterations_per_epoch=1)
        assert ramp.ratio_at(0) == pytest.approx(0.25)
        assert ramp.ratio_at(1) == pytest.approx(0.0887, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparsityRamp(0.0)
        with pytest.raises(ValueError):
            SparsityRamp(0.1, iterations_per_epoch=0)


class TestDGC:
    def make(self, **kw):
        defaults = dict(ratio=0.1, momentum=0.7, ramp=None, clip_norm=None, min_sparse_size=0)
        defaults.update(kw)
        return DGCStrategy(OrderedDict(SHAPES), **defaults)

    def test_factor_masking_zeroes_u_and_v(self, rng):
        st = self.make()
        out = st.prepare(grads_from(rng), lr=0.1)
        idx = out["w"].indices
        np.testing.assert_array_equal(st.u["w"].reshape(-1)[idx], 0.0)
        np.testing.assert_array_equal(st.v["w"].reshape(-1)[idx], 0.0)

    def test_momentum_correction_accumulates_velocity(self, rng):
        """v accumulates u (velocity), not raw gradient."""
        st = self.make(momentum=0.5, dtype=np.float64)
        g = OrderedDict([("w", np.full(40, 0.001)), ("b", np.zeros(10))])
        # tiny gradients: nothing sent from w beyond top-k picks; check v
        st.prepare(g, lr=1.0)
        st.prepare(g, lr=1.0)
        # never-sent coordinate: v = u1 + u2 = g + (0.5 g + g) = 0.0025;
        # sent-in-round-1 coordinate restarts: v = g = 0.001
        unsent = np.unique(np.round(st.v["w"][st.v["w"] != 0], 12))
        np.testing.assert_allclose(sorted(unsent), [0.001, 0.0025], rtol=1e-9)

    def test_clip_norm_limits_gradient(self, rng):
        st = self.make(clip_norm=0.001)
        g = grads_from(rng)
        out = st.prepare(g, lr=1.0)
        total = np.abs(np.concatenate([out[n].to_dense().reshape(-1) for n in SHAPES])).sum()
        assert total < 0.01

    def test_clip_does_not_mutate_caller_grads(self, rng):
        st = self.make(clip_norm=0.001)
        g = grads_from(rng)
        before = g["w"].copy()
        st.prepare(g, lr=1.0)
        np.testing.assert_array_equal(g["w"], before)

    def test_ramp_is_used(self, rng):
        ramp = SparsityRamp(0.05, warmup_epochs=2, start_ratio=1.0, iterations_per_epoch=1)
        st = self.make(ramp=ramp)
        out0 = st.prepare(grads_from(rng), lr=0.1)
        assert out0["w"].nnz == 40  # ratio 1.0 in epoch 0
        st.prepare(grads_from(rng), lr=0.1)
        out2 = st.prepare(grads_from(rng), lr=0.1)
        assert out2["w"].nnz < 40

    def test_state_bytes_two_buffers(self):
        st = self.make()
        assert st.state_bytes() == 2 * (40 + 10) * F32

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            self.make(momentum=1.0)
