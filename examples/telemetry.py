#!/usr/bin/env python
"""Observability: stream per-step telemetry to JSONL and render charts.

Attaches a :class:`repro.obs.ObsLogger` to a simulated DGS run, writes
one JSON record per applied update (step, virtual time, worker, loss,
staleness, bytes), reloads the log with :func:`repro.obs.load_jsonl`, and
renders loss + staleness charts to SVG — the offline equivalent of a
TensorBoard scalar stream.

Usage:  python examples/telemetry.py [--fast] [--out-dir runs/telemetry]
"""

import argparse
import pathlib
from collections import Counter

from repro.exec import RunConfig, train
from repro.harness import get_workload, paper_cluster
from repro.metrics import Curve, save_svg
from repro.obs import ObsLogger, load_jsonl


def curve(steps, y, x):
    """A Curve of step-record field ``y`` against field ``x``."""
    c = Curve(f"{y}_vs_{x}")
    for r in steps:
        c.add(float(r[x]), float(r[y]))
    return c


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
    with ObsLogger(log_path, meta={"method": "dgs", "workers": 4}) as logger:
        result = train(
            RunConfig(
                "dgs", factory, dataset,
                num_workers=4,
                batch_size=workload.batch_size,
                total_iterations=total_iters,
                hyper=workload.hyper,
                schedule=workload.schedule(),
                cluster=paper_cluster(4, 10.0, factory()),
                logger=logger,
                seed=0,
            ),
            backend="simulated",
        )
    print(f"trained: acc={100 * result.final_accuracy:.2f}%  log: {log_path}")

    # Reload (as an analysis script would) and render charts.
    steps = [r for r in load_jsonl(log_path) if r["type"] == "step"]
    save_svg(out / "loss.svg", {"DGS": curve(steps, "loss", "time_s")},
             title="training loss vs virtual time", xlabel="s", ylabel="loss", logy=True)
    save_svg(out / "staleness.svg", {"staleness": curve(steps, "staleness", "step")},
             title="gradient staleness per update", xlabel="step", ylabel="staleness")
    print(f"charts: {out / 'loss.svg'}, {out / 'staleness.svg'}")

    per_worker = Counter(r["worker"] for r in steps)
    print("updates per worker:", dict(sorted(per_worker.items())))
    mean_stale = sum(r["staleness"] for r in steps) / len(steps)
    print(f"mean staleness: {mean_stale:.2f} (≈ workers − 1 for a balanced cluster)")


if __name__ == "__main__":
    main()
