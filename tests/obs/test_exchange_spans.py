"""The exchange path emits its own layer spans, on every backend.

One traced 2-worker DGS run per backend (and one ASGD run for the model
reply): each layer of Algorithms 1–3 shows up under its registered name,
once per exchange, nested in the span of the step it belongs to.
"""

from collections import Counter

import pytest

from repro.core.methods import Hyper
from repro.data.synthetic import make_blobs
from repro.exec import RunConfig, train
from repro.nn.models.mlp import MLP
from repro.obs import Tracer, check_stream, use_tracer
from repro.obs import names as obs_names

WORKERS = 2
STEPS = 8

#: the three parts of ``WorkerNode.compute_step``
WORKER_LAYERS = (
    obs_names.DATA_NEXT_BATCH,
    obs_names.NN_FORWARD_BACKWARD,
    obs_names.STRATEGY_PREPARE,
)
WIRE_UP = (obs_names.WIRE_ENCODE_UP, obs_names.WIRE_DECODE_UP)
WIRE_DOWN = (obs_names.WIRE_ENCODE_DOWN, obs_names.WIRE_DECODE_DOWN)

#: backends whose workers serialise every frame (and join first, so each
#: worker also decodes one model frame before its first step)
SERIALISING = ("process", "socket")


def _traced(method, backend, hyper):
    tracer = Tracer()
    config = RunConfig(
        method,
        lambda: MLP(12, (24,), 4, seed=7),
        make_blobs(n_samples=256, num_classes=4, dim=12, seed=1),
        num_workers=WORKERS,
        batch_size=16,
        total_iterations=STEPS,
        hyper=hyper,
        seed=0,
    )
    with use_tracer(tracer):
        result = train(config, backend=backend)
    records = tracer.records()
    assert check_stream(records) == []
    assert result.total_iterations == STEPS
    return [r for r in records if r["type"] == "span"]


@pytest.fixture(scope="module", params=["simulated", *SERIALISING])
def dgs(request):
    return request.param, _traced("dgs", request.param, Hyper(ratio=0.1, min_sparse_size=0))


@pytest.fixture(scope="module")
def asgd():
    return _traced("asgd", "process", Hyper(ratio=1.0))


def named(spans, name, domain="wall"):
    return [r for r in spans if r["name"] == name and r["domain"] == domain]


def per_worker(spans):
    return Counter(r["args"]["worker"] for r in spans)


def inside(outer, inner):
    """``inner`` lies within ``outer`` on the same lane."""
    eps = 1e-9
    return (
        (outer["domain"], outer["tid"]) == (inner["domain"], inner["tid"])
        and outer["ts"] - eps <= inner["ts"]
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + eps
    )


def assert_nested(children, parents):
    for child in children:
        assert any(inside(p, child) for p in parents), child


def test_worker_layers_once_per_step_per_worker(dgs):
    backend, spans = dgs
    # the simulator stamps worker.compute on its virtual clock
    domain = "virtual" if backend == "simulated" else "wall"
    steps = per_worker(named(spans, obs_names.WORKER_COMPUTE, domain))
    assert sum(steps.values()) == STEPS and set(steps) == set(range(WORKERS))
    for name in WORKER_LAYERS:
        assert per_worker(named(spans, name)) == steps, name


def test_worker_layers_nested_in_compute(dgs):
    backend, spans = dgs
    layers = [r for name in WORKER_LAYERS for r in named(spans, name)]
    if backend == "simulated":
        # real work, timed on the wall clock beside the virtual timeline
        assert layers and all(r["domain"] == "wall" for r in layers)
        return
    computes = named(spans, obs_names.WORKER_COMPUTE)
    for layer in layers:
        assert any(
            inside(c, layer) and c["args"]["worker"] == layer["args"]["worker"]
            for c in computes
        ), layer


def test_tracker_spans_once_per_update_in_handle(dgs):
    _, spans = dgs
    handles = named(spans, obs_names.SERVER_HANDLE)
    assert len(handles) == STEPS
    for name in (obs_names.TRACKER_APPLY_UPDATE, obs_names.TRACKER_MODEL_DIFFERENCE):
        tracker = named(spans, name)
        assert len(tracker) == STEPS, name
        assert_nested(tracker, handles)
    assert named(spans, obs_names.TRACKER_GLOBAL_MODEL) == []


def test_wire_spans_once_per_exchange(dgs):
    backend, spans = dgs
    if backend not in SERIALISING:
        # the simulator hands frames over without serialising them
        assert not [r for r in spans if r["name"] in WIRE_UP + WIRE_DOWN]
        return
    for name in WIRE_UP:
        assert len(named(spans, name)) == STEPS, name
    for name in WIRE_DOWN:
        assert len(named(spans, name)) == STEPS + WORKERS, name  # + join replies


def test_asgd_replies_with_the_global_model(asgd):
    handles = named(asgd, obs_names.SERVER_HANDLE)
    for name in (obs_names.TRACKER_APPLY_UPDATE, obs_names.TRACKER_GLOBAL_MODEL):
        tracker = named(asgd, name)
        assert len(tracker) == STEPS, name
        assert_nested(tracker, handles)
    assert named(asgd, obs_names.TRACKER_MODEL_DIFFERENCE) == []
    for name in WIRE_UP:
        assert len(named(asgd, name)) == STEPS, name
    for name in WIRE_DOWN:
        assert len(named(asgd, name)) == STEPS + WORKERS, name
