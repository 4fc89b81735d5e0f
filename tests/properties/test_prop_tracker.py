"""Property test of the headline invariant: model-difference tracking is
exactly equivalent to downloading the whole model (Eq. 5), for arbitrary
update sequences and arbitrary worker sync interleavings."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import TopKSparsifier, encode_sparse
from repro.core.tracker import ModelDifferenceTracker

N = 12  # single layer of 12 params


def _apply_random_schedule(draw_updates, sync_schedule, secondary=None):
    """Run a tracker against a list of (values, sync_worker|None) events."""
    shapes = OrderedDict([("w", (N,))])
    tr = ModelDifferenceTracker(shapes, 2, secondary=secondary, dtype=np.float64)
    worker_theta = [np.zeros(N), np.zeros(N)]
    for values, sync in zip(draw_updates, sync_schedule):
        tr.apply_update(OrderedDict([("w", encode_sparse(np.asarray(values)))]))
        if sync is not None:
            G = tr.model_difference(sync)
            G["w"].add_into(worker_theta[sync])
    return tr, worker_theta


updates = st.lists(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
        min_size=N, max_size=N,
    ),
    min_size=1, max_size=15,
)


@given(
    upd=updates,
    syncs=st.lists(st.sampled_from([None, 0, 1]), min_size=15, max_size=15),
)
@settings(max_examples=100, deadline=None)
def test_final_sync_reconstructs_global_model(upd, syncs):
    """After one final sync, each worker's θ equals M exactly — no matter how
    stale or irregular the earlier sync pattern was."""
    tr, theta = _apply_random_schedule(upd, syncs[: len(upd)])
    for w in (0, 1):
        G = tr.model_difference(w)
        G["w"].add_into(theta[w])
        # atol covers float32 wire rounding of the downloaded diffs.
        np.testing.assert_allclose(theta[w], tr.M["w"], atol=1e-3)


@given(
    upd=updates,
    syncs=st.lists(st.sampled_from([None, 0, 1]), min_size=15, max_size=15),
    ratio=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_secondary_compression_never_loses_mass(upd, syncs, ratio):
    """With secondary compression, (received so far) + (pending M − v) == M."""
    tr, theta = _apply_random_schedule(
        upd, syncs[: len(upd)], secondary=TopKSparsifier(ratio, min_sparse_size=0)
    )
    for w in (0, 1):
        pending = tr.M["w"] - tr.vk(w)["w"]
        np.testing.assert_allclose(theta[w] + pending, tr.M["w"], atol=1e-9)
