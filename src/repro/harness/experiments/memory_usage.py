"""§5.6.2 — memory accounting at server and workers.

The paper's claims: (1) DGS adds ``NumOfWorkers × ParameterMemOfModel`` at
the server (the v_k vectors) — one V100 (16 GB) can host >300 ResNet-18
(46 MB) workers; (2) at the worker, SAMomentum replaces vanilla momentum
*plus* the residual accumulator with a single buffer, saving
``ParameterMemOfModel`` per worker; so DGS only *moves* memory from workers
to the server.

Everything is counted in **model units**: bytes of state over bytes of the
model, both at the dtype the production path holds them — float32
parameters, float32 arena state (``arena=True``).  The report's title names
that dtype; a unit is a count of parameters, not of bytes.
"""

from __future__ import annotations

from ...core.methods import Hyper, get_method
from ...core.layerops import parameters_of
from ...ps.server import ParameterServer
from ..config import RESNET18_WIRE_BYTES, get_workload
from ..report import ExperimentReport
from .common import METHOD_LABELS, resolve_fast

__all__ = ["run"]


def run(fast: bool | None = None, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    fast = resolve_fast(fast)
    wl = get_workload("cifar10")
    model = wl.model_factory(0)()
    theta0 = parameters_of(model)
    shapes = {n: a.shape for n, a in theta0.items()}
    model_bytes = sum(a.nbytes for a in theta0.values())
    (dtype,) = {a.dtype for a in theta0.values()}
    hyper = wl.hyper
    num_workers = 8

    report = ExperimentReport(
        experiment_id="Sec 5.6.2",
        title=(
            f"Memory usage accounting ({num_workers} workers; "
            f"1 model unit = {model_bytes / 1024:.1f} KiB of {dtype})"
        ),
        headers=(
            "Method",
            "Server state (model units)",
            "Per-worker state (model units)",
            "Total (model units)",
        ),
    )
    for name in ("asgd", "gd_async", "dgc_async", "dgs"):
        spec = get_method(name)
        server = ParameterServer(
            theta0,
            num_workers,
            downstream=spec.downstream,
            secondary_ratio=None,
            arena=True,
            arena_dtype=dtype,
        )
        strategy = spec.make_strategy(shapes, hyper, arena=True, arena_dtype=dtype)
        server_units = server.tracker.server_state_bytes() / model_bytes
        worker_units = strategy.state_bytes() / model_bytes
        total_units = server_units + num_workers * worker_units
        report.add_row(
            METHOD_LABELS[name],
            f"{server_units:.1f}",
            f"{worker_units:.1f}",
            f"{total_units:.1f}",
        )
    # Paper's headline number: how many 46 MB ResNet-18 workers fit in 16 GB?
    v100 = 16 * 1024**3
    supported = v100 // RESNET18_WIRE_BYTES
    report.add_note(
        f"A 16 GB server can hold v_k for {supported} ResNet-18 (46 MB) workers "
        "(paper: 'more than 300')."
    )
    report.add_note(
        "Expected shape: DGS moves ~1 model unit per worker from worker side "
        "(residual+momentum) to server side (v_k); the total is unchanged vs DGC."
    )
    return report
