"""Property tests for worker strategies (Algorithms 1 and 3)."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import TopKSparsifier
from repro.core.strategies import GradientDroppingStrategy, SAMomentumStrategy

N = 16

grad_seqs = st.lists(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False, width=64),
        min_size=N, max_size=N,
    ),
    min_size=1, max_size=12,
)
ratios = st.floats(min_value=0.05, max_value=1.0)
lrs = st.floats(min_value=0.001, max_value=1.0)
momenta = st.floats(min_value=0.05, max_value=0.95)


@given(grads=grad_seqs, ratio=ratios, lr=lrs)
@settings(max_examples=80, deadline=None)
def test_gradient_dropping_mass_conservation(grads, ratio, lr):
    """Σ sent + residual == η Σ∇, for any gradient sequence and ratio."""
    shapes = OrderedDict([("w", (N,))])
    strat = GradientDroppingStrategy(shapes, TopKSparsifier(ratio, min_sparse_size=0))
    sent = np.zeros(N)
    total = np.zeros(N)
    for g in grads:
        g = np.asarray(g)
        out = strat.prepare(OrderedDict([("w", g)]), lr)
        sent += out["w"].to_dense()
        total += lr * g
    # atol covers float32 wire rounding of the sent values.
    np.testing.assert_allclose(sent + strat.residual["w"], total, atol=1e-3)


@given(grads=grad_seqs, lr=lrs, m=momenta)
@settings(max_examples=80, deadline=None)
def test_samomentum_dense_equals_vanilla(grads, lr, m):
    """R=100%: SAMomentum sends exactly the dense velocity every step."""
    shapes = OrderedDict([("w", (N,))])
    strat = SAMomentumStrategy(
        shapes, TopKSparsifier(1.0, min_sparse_size=0), momentum=m, dtype=np.float64
    )
    u = np.zeros(N)
    for g in grads:
        g = np.asarray(g)
        out = strat.prepare(OrderedDict([("w", g)]), lr)
        u = m * u + lr * g
        np.testing.assert_allclose(out["w"].to_dense(), u, atol=1e-9)


@given(grads=grad_seqs, ratio=ratios, lr=lrs, m=momenta)
@settings(max_examples=80, deadline=None)
def test_samomentum_invariant_m_times_u_tracks_gradient_mass(grads, ratio, lr, m):
    """The Eq.(16) telescoping, coordinate-wise: at any point in time,
    for a coordinate never selected so far, m·u_paper == η Σ∇ — and
    m·u_paper is what the strategy stores, so no m factor appears."""
    shapes = OrderedDict([("w", (N,))])
    strat = SAMomentumStrategy(
        shapes, TopKSparsifier(ratio, min_sparse_size=0), momentum=m, dtype=np.float64
    )
    gsum = np.zeros(N)
    ever_sent = np.zeros(N, dtype=bool)
    for g in grads:
        g = np.asarray(g)
        out = strat.prepare(OrderedDict([("w", g)]), lr)
        gsum += lr * g
        sent_now = np.zeros(N, dtype=bool)
        sent_now[out["w"].indices] = True
        ever_sent |= sent_now
        never = ~ever_sent
        np.testing.assert_allclose(strat.u["w"][never], gsum[never], atol=1e-8)
