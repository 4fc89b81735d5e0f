"""Server memory on the journal path is flat in the worker count.

Without secondary compression the arena tracker keeps ``M`` and a bounded
journal instead of one ``v_k`` per worker, so while staleness · k stays
under the journal's retention bound nothing the tracker allocates grows
with K.  Counted with ``tracemalloc`` (every NumPy buffer is traced), not
inferred from ``server_state_bytes()``; the Eq. 6 tracker, which keeps the
per-worker buffers, shows the same probe growing by one model per worker.
"""

import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import TopKSparsifier, topk_select
from repro.core.tracker import ModelDifferenceTracker

SHAPES = OrderedDict([("w", (200, 100)), ("b", (100,))])
MODEL_BYTES = (200 * 100 + 100) * 4  # float32
#: 32 workers round-robin owe 31 updates of 0.4 % each: 12 %, under n/6
RATIO = 0.004


def _traced(num_workers, secondary=None):
    """Bytes the tracker still holds after three round-robin rounds."""
    rng = np.random.default_rng(0)
    updates = [
        OrderedDict(
            (name, topk_select(rng.normal(size=shape).astype(np.float32), RATIO))
            for name, shape in SHAPES.items()
        )
        for _ in range(8)
    ]
    tracemalloc.start()
    try:
        tracker = ModelDifferenceTracker(SHAPES, num_workers, secondary=secondary)
        for step in range(3 * num_workers):
            tracker.apply_update(updates[step % len(updates)])
            tracker.model_difference(step % num_workers)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tracker, held


def test_tracker_memory_is_flat_in_the_worker_count():
    traced = {k: _traced(k) for k in (2, 8, 32)}
    for tracker, _ in traced.values():
        assert not any(buf is not None for buf in tracker._buffers)  # no v_k held
    held = [nbytes for _, nbytes in traced.values()]
    assert max(held) - min(held) < MODEL_BYTES, held
    assert max(held) < 3 * MODEL_BYTES, held  # M and the journal: no scratch


@pytest.mark.parametrize("num_workers", [2, 8])
def test_the_probe_sees_per_worker_buffers(num_workers):
    """Under secondary compression v_k stays per worker, and the same
    measurement grows by one model per extra worker."""
    secondary = TopKSparsifier(0.01, min_sparse_size=0)
    _, small = _traced(num_workers, secondary)
    _, large = _traced(num_workers + 4, secondary)
    assert large - small >= 4 * MODEL_BYTES
