"""Virtual-timeline invariants, read off the simulator's tracer spans."""

from typing import NamedTuple

import pytest

from repro.core import Hyper
from repro.exec import RunConfig, SimulatedTrainer
from repro.obs import Tracer, use_tracer
from repro.sim import ClusterConfig


class Exchange(NamedTuple):
    """One worker↔server exchange, rebuilt from its four virtual spans."""

    worker: int
    local_iteration: int
    ready_t: float  # gradient finished computing
    up_start: float  # upload began transmitting
    up_end: float  # upload fully received
    server_t: float  # server applied the update
    down_end: float  # download fully received at the worker
    staleness: int
    up_bytes: int  # unscaled message bytes
    down_bytes: int


class _EmissionOrder(Tracer):
    """A tracer that also keeps explicitly stamped spans, with their
    clock domain, in the order they were emitted (``records()`` sorts by
    start time)."""

    def __init__(self):
        super().__init__()
        self.emitted = []

    def add_span(self, name, start, end, tid="", cat="default", domain="virtual", args=None):
        super().add_span(name, start, end, tid=tid, cat=cat, domain=domain, args=args)
        self.emitted.append((name, start, end, dict(args or {}), domain))


@pytest.fixture(scope="module")
def trace(tiny_dataset_mod, tiny_factory_mod):
    tracer = _EmissionOrder()
    config = RunConfig(
        "dgs",
        tiny_factory_mod,
        tiny_dataset_mod,
        num_workers=4,
        batch_size=16,
        total_iterations=80,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
        cluster=ClusterConfig.with_bandwidth(4, 0.01, compute_mean_s=0.03),
    )
    with use_tracer(tracer):
        SimulatedTrainer(config).run()
    # Each exchange emits send → handle → recv, then the compute span that
    # produced its gradient, in server-apply order.  The parameter server's
    # own wall-clock spans interleave with these and are left out.
    spans = [s for s in tracer.emitted if s[4] == "virtual"]
    assert len(spans) % 4 == 0
    exchanges = []
    for i in range(0, len(spans), 4):
        send, handle, recv, compute = spans[i : i + 4]
        assert [s[0] for s in spans[i : i + 4]] == [
            "comm.send", "server.handle", "comm.recv", "worker.compute",
        ]
        worker = compute[3]["worker"]
        assert send[3]["worker"] == handle[3]["worker"] == recv[3]["worker"] == worker
        exchanges.append(
            Exchange(
                worker=worker,
                local_iteration=compute[3]["iteration"],
                ready_t=compute[2],
                up_start=send[1],
                up_end=send[2],
                server_t=handle[2],
                down_end=recv[2],
                staleness=handle[3]["staleness"],
                up_bytes=send[3]["bytes"],
                down_bytes=recv[3]["bytes"],
            )
        )
    return exchanges


@pytest.fixture(scope="module")
def tiny_dataset_mod():
    from repro.data import make_blobs

    return make_blobs(n_samples=400, num_classes=4, dim=12, sep=2.5, noise=0.8, seed=1)


@pytest.fixture(scope="module")
def tiny_factory_mod():
    from repro.nn import MLP

    return lambda: MLP(12, (24,), 4, seed=7)


class TestTraceInvariants:
    def test_one_event_per_iteration(self, trace):
        assert len(trace) == 80

    def test_per_event_causality(self, trace):
        for e in trace:
            assert e.ready_t <= e.up_start <= e.up_end <= e.server_t <= e.down_end

    def test_server_times_strictly_increase(self, trace):
        times = [e.server_t for e in trace]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_uplink_fifo_no_overlap(self, trace):
        """Uplink transmissions never overlap (shared FIFO resource)."""
        spans = sorted((e.up_start, e.up_end) for e in trace if e.up_bytes > 0)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-9

    def test_worker_lifecycle_sequential(self, trace):
        """Each worker's iteration k+1 computes only after k's download."""
        per_worker: dict[int, list] = {}
        for e in trace:
            per_worker.setdefault(e.worker, []).append(e)
        for events in per_worker.values():
            events.sort(key=lambda e: e.local_iteration)
            for prev, cur in zip(events, events[1:]):
                assert cur.local_iteration == prev.local_iteration + 1
                assert cur.ready_t >= prev.down_end

    def test_staleness_matches_interleaving(self, trace):
        """Recorded staleness equals the number of other-worker updates
        applied between this worker's consecutive server visits."""
        last_server_index: dict[int, int] = {}
        for i, e in enumerate(trace):
            if e.worker in last_server_index:
                expected = i - last_server_index[e.worker] - 1
                assert e.staleness == expected
            last_server_index[e.worker] = i

    def test_bytes_positive(self, trace):
        assert all(e.up_bytes > 0 and e.down_bytes > 0 for e in trace)
