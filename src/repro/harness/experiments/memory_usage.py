"""§5.6.2 — memory accounting at server and workers.

The paper's claims: (1) DGS adds ``NumOfWorkers × ParameterMemOfModel`` at
the server (the v_k vectors) — one V100 (16 GB) can host >300 ResNet-18
(46 MB) workers; (2) at the worker, SAMomentum replaces vanilla momentum
*plus* the residual accumulator with a single buffer, saving
``ParameterMemOfModel`` per worker; so DGS only *moves* memory from workers
to the server.

Two server columns.  *Paper* is that accounting, ``M + K·v_k``, read off
the parity oracle's tracker (``repro.core.reference``), which keeps exactly
those buffers.  *This implementation* is what the production server holds
after a few rounds of real uploads: without secondary compression it keeps ``M``
plus a bounded journal of recent updates instead of the ``v_k`` (see
``repro.core.tracker``), and holds a ``v_k`` only for a worker the journal
no longer covers.

Everything is counted in **model units**: bytes of state over bytes of the
model, both at the dtype the production path holds them — float32
parameters, float32 arena state.  The report's title names that dtype; a
unit is a count of parameters, not of bytes.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ...core.layerops import parameters_of
from ...core.methods import get_method
from ...core.tracker import _JOURNAL_MAX_FRACTION
from ...exec.common import build_server
from ...ps.messages import GradientMessage
from ..config import RESNET18_WIRE_BYTES, get_workload
from ..report import ExperimentReport
from .common import METHOD_LABELS

__all__ = ["run"]

#: round-robin rounds of uploads before the implementation is measured
ROUNDS = 4


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
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
            "Server state: paper, M + K·v_k (model units)",
            "Per-worker state (model units)",
            "Total: paper (model units)",
            f"Server state: this implementation, after {ROUNDS} rounds (model units)",
            "Total: this implementation (model units)",
        ),
    )
    paper, per_worker, ours = {}, {}, {}  # method -> model units
    for name in ("asgd", "gd_async", "dgc_async", "dgs"):
        spec = get_method(name)
        server = partial(
            build_server, spec, theta0, num_workers, hyper, secondary_compression=False, arena_dtype=dtype
        )
        strategies = [spec.make_strategy(shapes, hyper, dtype=dtype) for _ in range(num_workers)]
        paper_units = server(arena=False).tracker.server_state_bytes() / model_bytes
        production = server()
        rng = np.random.default_rng(seeds[0])
        for step in range(ROUNDS * num_workers):
            worker = step % num_workers
            grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
            payload = strategies[worker].prepare(grads, hyper.lr)
            production.handle(GradientMessage(worker, payload, step))
        ours_units = production.tracker.server_state_bytes() / model_bytes
        worker_units = strategies[0].state_bytes() / model_bytes
        paper[name], per_worker[name], ours[name] = paper_units, worker_units, ours_units
        report.add_row(
            METHOD_LABELS[name],
            f"{paper_units:.1f}",
            f"{worker_units:.1f}",
            f"{paper_units + num_workers * worker_units:.1f}",
            f"{ours_units:.1f}",
            f"{ours_units + num_workers * worker_units:.1f}",
        )
    report.claim("ASGD server holds 1 model unit", paper["asgd"] == 1.0)
    report.claim(
        "difference tracking adds server state: DGS = GD-async > 1 unit",
        paper["dgs"] == paper["gd_async"] > 1.0,
    )
    report.claim(
        "DGS worker holds 1 buffer, DGC-async 2",
        per_worker["dgs"] == 1.0 and per_worker["dgc_async"] == 2.0,
    )
    total = {name: paper[name] + num_workers * per_worker[name] for name in paper}
    report.claim("DGS moves memory rather than adding it: total equals GD-async's", total["dgs"] == total["gd_async"])
    report.claim("this implementation: ASGD server holds 1 model unit", ours["asgd"] == 1.0)
    report.claim(
        "this implementation: difference-tracking servers hold more than M, less than M + K·v_k",
        all(1.0 < ours[name] < paper[name] for name in ("gd_async", "dgc_async", "dgs")),
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
    report.add_note(
        "This implementation: without secondary compression the server keeps M, "
        f"a journal of at most n/{round(1 / _JOURNAL_MAX_FRACTION)} indices with "
        "the values they overwrote, and one model unit per worker the journal no "
        "longer reaches. Here a DGS upload writes ~7 % of the model (layers under "
        "min_sparse_size ship whole), so the journal spans about two updates and "
        "8 round-robin workers are mostly held; at 1 % uploads and staleness 7 "
        "(the dgs_sim_8w_1gbps benchmark) none is, and the server is M + journal."
    )
    return report
