"""The four frozen workloads of bench-e2e and the inputs they are fed.

This module is pure data plus builders: importing it imports neither
NumPy nor ``repro``, so the orchestrator (``run.py``) can read workload
names and step counts without un-pinning BLAS.  The builders import
``repro`` lazily and run only inside the pinned child interpreters.

Why these four (the one-line versions live in ``BENCHMARK.json``; the
prediction table is in ``README.md``):

* ``asgd_dense_tcp``          3.68 MB each way per step: codec + socket copies dominate.
* ``dgs_dual_tcp``            74.8 kB each way: the wire is free, top-k + tracker dominate.
* ``asgd_dense_4shard_pipe``  the dense payload as 4 sub-frames over OS pipes and lanes.
* ``dgs_sim_8w_1gbps``        no codec, no transport: the bypass for every comm change.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

#: timed rounds per workload; a timing metric is the median of its rounds
ROUNDS = 3
#: cold launches per workload; ``setup_s`` is their minimum
COLD_LAUNCHES = 7
BATCH_SIZE = 32

# -- the stationary task (noise rule 3): overlapping blobs that plateau ----
N_SAMPLES = 8192
NUM_CLASSES = 10
DIM = 768
SEP = 0.08
NOISE = 1.0
HIDDEN = (1024, 128)

#: element counts of MLP(768, (1024, 128), 10)'s six parameter tensors,
#: in wire order — the benchmark's own copy, so the analytic byte counts
#: below are an oracle independent of the program's accounting
LAYER_SIZES = (DIM * 1024, 1024, 1024 * 128, 128, 128 * 10, 10)
# Wire format constants (repro.compression.coding), restated on purpose.
_HEADER_BYTES = 16
_VALUE_BYTES = 4
_INDEX_BYTES = 4
_TOPK_RATIO = 0.01
_MIN_SPARSE_SIZE = 256


def dense_frame_bytes() -> int:
    """One dense frame: every layer as float32 plus its 16-byte header."""
    return sum(_HEADER_BYTES + n * _VALUE_BYTES for n in LAYER_SIZES)


def topk_frame_bytes() -> int:
    """One top-1 % COO frame; layers under 256 elements travel whole."""
    total = 0
    for n in LAYER_SIZES:
        k = n if n < _MIN_SPARSE_SIZE else max(1, math.ceil(n * _TOPK_RATIO))
        total += _HEADER_BYTES + k * (_VALUE_BYTES + _INDEX_BYTES)
    return total


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    backend: str
    num_workers: int
    #: frozen calibration: worker steps that one second of a round buys on
    #: the 2-vCPU reference box.  Fixes the work (noise rule 2): a round is
    #: ``steps(seconds)`` steps however long they then take.
    steps_per_second: int
    #: 0.02, not the 0.05 this task tolerates: the loss after a fixed N then
    #: sits early on the descent, where ten seeds spread 1.5-2.2 % (at 0.05
    #: it is mid-slope and they spread 5-7 %, most of the metric's bound)
    lr: float = 0.02
    secondary: "bool | None" = None
    num_shards: int = 1
    #: analytic payload bytes of one upload / download frame (None = the
    #: count depends on the data, only its repeatability is checked)
    up_frame_bytes: "int | None" = None
    down_frame_bytes: "int | None" = None
    min_compression_ratio: float = 0.0

    def steps(self, seconds: float, quick: bool = False) -> int:
        """The fixed step count of one round for a ``seconds`` budget."""
        n = self.steps_per_second * seconds / ROUNDS
        if quick:
            n /= 10
        per_worker = max(2, round(n / self.num_workers))
        return per_worker * self.num_workers

    @property
    def real_transport(self) -> bool:
        return self.backend != "simulated"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "asgd_dense_tcp", "asgd", "socket", 2, steps_per_second=55,
            up_frame_bytes=dense_frame_bytes(), down_frame_bytes=dense_frame_bytes(),
        ),
        # SAMomentum with top-1 % both ways descends slower per step, so it
        # keeps the higher rate: at 0.02 its val_loss_final sits within 2 %
        # of ln 10 and the loss check would trip on noise.
        Workload(
            "dgs_dual_tcp", "dgs", "socket", 2, steps_per_second=17, lr=0.05,
            secondary=True,
            up_frame_bytes=topk_frame_bytes(), down_frame_bytes=topk_frame_bytes(),
            min_compression_ratio=40.0,
        ),
        Workload(
            "asgd_dense_4shard_pipe", "asgd", "process", 2, steps_per_second=50,
            num_shards=4,
            up_frame_bytes=dense_frame_bytes(), down_frame_bytes=dense_frame_bytes(),
        ),
        # 0.05 under staleness 7 leaves val_loss_final above ln 10.
        Workload(
            "dgs_sim_8w_1gbps", "dgs", "simulated", 8, steps_per_second=32,
            secondary=False, up_frame_bytes=topk_frame_bytes(),
        ),
    )
}


# -- builders: child interpreters only (they import repro) -----------------
@dataclass
class Inputs:
    seed: int
    dataset: object
    model_factory: object
    #: sha256 over the generated arrays and θ0 — what ``--seed`` changes
    digest: str


def digest(arrays) -> str:
    """sha256 over the raw bytes of ``arrays``, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


def make_inputs(seed: int) -> Inputs:
    """Dataset, θ0 factory and loader seed, all derived from ``seed``."""
    from repro.data.synthetic import make_blobs
    from repro.nn.models.mlp import MLP

    dataset = make_blobs(
        n_samples=N_SAMPLES, num_classes=NUM_CLASSES, dim=DIM, sep=SEP,
        noise=NOISE, seed=seed,
    )

    def model_factory():
        return MLP(DIM, HIDDEN, NUM_CLASSES, seed=seed)

    arrays = [dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val]
    arrays += [p.data for _, p in model_factory().named_parameters()]
    return Inputs(seed, dataset, model_factory, digest(arrays))


def serve_mode(w: Workload) -> str:
    """How the sharded workload is served: lanes while the program has them."""
    from repro.exec import RunConfig

    if w.num_shards < 2:
        return "serial"
    has_lanes = any(f.name == "shard_parallel" for f in fields(RunConfig))
    return "shard_parallel" if has_lanes else "serial"


def run_config(w: Workload, inputs: Inputs, steps: int):
    from repro.core.methods import Hyper
    from repro.exec import RunConfig
    from repro.sim.cluster import ClusterConfig

    kwargs = dict(
        method=w.method,
        model_factory=inputs.model_factory,
        dataset=inputs.dataset,
        num_workers=w.num_workers,
        batch_size=BATCH_SIZE,
        total_iterations=steps,
        hyper=Hyper(lr=w.lr),
        secondary_compression=w.secondary,
        num_shards=w.num_shards,
        seed=inputs.seed,
        arena=True,
    )
    if serve_mode(w) == "shard_parallel":
        kwargs["shard_parallel"] = True
    if w.backend == "simulated":
        # ResNet-18-sized frames (×12.5 ≈ 46 MB dense) on the paper's
        # saturated 1 Gb/s half-duplex server link (Fig. 5 setting).
        kwargs["cluster"] = ClusterConfig.with_bandwidth(
            w.num_workers, 1.0, duplex="half", wire_scale=12.5
        )
    return RunConfig(**kwargs)
