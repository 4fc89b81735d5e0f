#!/usr/bin/env python
"""Observability: trace a run to JSONL and render charts.

Traces a simulated DGS run with :func:`repro.obs.use_tracer`, writes the
trace (plus the server's metric series) with ``Tracer.dump_jsonl``,
reloads it with :func:`repro.obs.load_jsonl`, and renders loss +
staleness charts to SVG — the offline equivalent of a TensorBoard scalar
stream.  Each applied update is one virtual-clock ``server.handle`` span
carrying its worker, staleness and bytes; the loss curve is the run's
``loss_vs_time`` (loss against virtual time).

Usage:  python examples/telemetry.py [--fast] [--out-dir runs/telemetry]
"""

import argparse
import pathlib
from collections import Counter

from repro.exec import RunConfig, train
from repro.harness import get_workload, paper_cluster
from repro.metrics import Curve, save_svg
from repro.obs import Tracer, load_jsonl, names, use_tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument(
        "--out-dir", default="runs/telemetry", help="where to write run.jsonl and charts"
    )
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    workload = get_workload("cifar10")
    dataset = workload.dataset(args.fast)
    factory = workload.model_factory(seed=0)
    total_iters = max(1, workload.epochs * dataset.n_train // workload.batch_size)

    log_path = out / "run.jsonl"
    with use_tracer(Tracer(meta={"method": "dgs", "workers": 4})) as tracer:
        result = train(
            RunConfig(
                "dgs", factory, dataset,
                num_workers=4,
                batch_size=workload.batch_size,
                total_iterations=total_iters,
                hyper=workload.hyper,
                schedule=workload.schedule(),
                cluster=paper_cluster(4, 10.0, factory()),
                seed=0,
            ),
            backend="simulated",
        )
    tracer.dump_jsonl(log_path, metrics=result.metrics)
    print(f"trained: acc={100 * result.final_accuracy:.2f}%  log: {log_path}")

    # Reload (as an analysis script would): one virtual server.handle span
    # per applied update, in apply order.
    updates = sorted(
        (
            r for r in load_jsonl(log_path)
            if r["type"] == "span" and r["domain"] == "virtual"
            and r["name"] == names.SERVER_HANDLE
        ),
        key=lambda r: r["ts"],
    )
    staleness = Curve("staleness_vs_step")
    for step, r in enumerate(updates, start=1):
        staleness.add(step, r["args"]["staleness"])
    save_svg(out / "loss.svg", {"DGS": result.loss_vs_time},
             title="training loss vs virtual time", xlabel="s", ylabel="loss", logy=True)
    save_svg(out / "staleness.svg", {"staleness": staleness},
             title="gradient staleness per update", xlabel="step", ylabel="staleness")
    print(f"charts: {out / 'loss.svg'}, {out / 'staleness.svg'}")

    per_worker = Counter(r["args"]["worker"] for r in updates)
    print("updates per worker:", dict(sorted(per_worker.items())))
    mean_stale = sum(r["args"]["staleness"] for r in updates) / len(updates)
    print(f"mean staleness: {mean_stale:.2f} (≈ workers − 1 for a balanced cluster)")


if __name__ == "__main__":
    main()
