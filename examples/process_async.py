#!/usr/bin/env python
"""Genuine asynchrony: DGS on real OS processes (no simulation).

Each worker is a separate OS process exchanging actual frame bytes with
the parameter server over a pipe; interleavings — and therefore gradient
staleness — come from your machine's actual scheduler, like the paper's
multi-GPU testbed.  Runs through the unified execution layer on the
``process`` backend.

Usage:  python examples/process_async.py [--workers 4] [--iters 100]
"""

import argparse

from repro.core import Hyper
from repro.data import synthetic_cifar10
from repro.exec import RunConfig, train
from repro.nn import SimpleCNN


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--iters", type=int, default=100, help="iterations per worker")
    args = parser.parse_args()

    dataset = synthetic_cifar10(n_samples=2000, size=8, difficulty=4.0, seed=7)
    factory = lambda: SimpleCNN(3, 10, width=16, seed=0)

    for method in ("asgd", "dgs"):
        result = train(
            RunConfig(
                method,
                factory,
                dataset,
                num_workers=args.workers,
                batch_size=32,
                total_iterations=args.workers * args.iters,
                hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.05, secondary_ratio=0.05),
                seed=0,
            ),
            backend="process",
        )
        print(
            f"{method:5s}  acc {100 * result.final_accuracy:5.2f}%  "
            f"real time {result.makespan_s:5.1f}s  "
            f"mean staleness {result.mean_staleness:.2f}  "
            f"wire bytes {result.upload_bytes + result.download_bytes:,}"
        )


if __name__ == "__main__":
    main()
