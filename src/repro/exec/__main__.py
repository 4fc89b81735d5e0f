"""Backend-matrix smoke: run a tiny workload on every registered backend.

Usage::

    python -m repro.exec                       # all backends, dgs
    python -m repro.exec --backends threaded,sync --method asgd
    python -m repro.exec --iters 60 --workers 3

Each run is validated against the unified ``TrainResult`` schema
(:func:`repro.exec.validate_result`, including the backend's declared
``measures``) and must actually learn; the exit code is non-zero on any
violation.  ``make backend-matrix`` and CI call this.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..core.methods import Hyper
from ..data.synthetic import make_blobs
from ..nn.models.mlp import MLP
from .backend import get_backend, list_backends
from .config import RunConfig
from .result import validate_result
from .trainer import Trainer


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.exec", description=__doc__)
    parser.add_argument(
        "--backends",
        default=",".join(list_backends()),
        help="comma-separated backend names (default: every registered backend)",
    )
    parser.add_argument("--method", default="dgs")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--iters", type=int, default=40, help="global iteration budget")
    parser.add_argument(
        "--min-accuracy",
        type=float,
        default=0.5,
        help="fail a backend whose final accuracy is below this (blobs chance is 0.25)",
    )
    args = parser.parse_args(argv)

    dataset = make_blobs(n_samples=400, num_classes=4, dim=12, sep=2.5, noise=0.8, seed=1)
    config = RunConfig(
        args.method,
        lambda: MLP(12, (24,), 4, seed=7),
        dataset,
        num_workers=args.workers,
        batch_size=16,
        total_iterations=args.iters,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
    )

    failures = 0
    header = f"{'backend':10s} {'clock':8s} {'acc':>7s} {'staleness':>9s} {'up-bytes':>10s} {'ratio':>6s} {'real':>6s}"
    print(header)
    print("-" * len(header))
    for name in [b.strip() for b in args.backends.split(",") if b.strip()]:
        backend = get_backend(name)
        t0 = time.perf_counter()
        result = Trainer(config, backend).run()
        elapsed = time.perf_counter() - t0
        problems = validate_result(result, measures=backend.measures)
        if result.backend != backend.name:
            problems.append(f"result.backend={result.backend!r} != {backend.name!r}")
        if result.clock != backend.clock:
            problems.append(f"result.clock={result.clock!r} != {backend.clock!r}")
        if result.final_accuracy < args.min_accuracy:
            problems.append(
                f"final_accuracy={result.final_accuracy:.3f} < {args.min_accuracy} (did not learn)"
            )
        print(
            f"{name:10s} {result.clock or '-':8s} {100 * result.final_accuracy:6.2f}% "
            f"{result.mean_staleness:9.2f} {result.upload_bytes:10,d} "
            f"{result.compression_ratio:6.1f} {elapsed:5.1f}s"
        )
        for p in problems:
            print(f"  schema violation [{name}]: {p}", file=sys.stderr)
        failures += len(problems)

    if failures:
        print(f"backend-matrix: {failures} violation(s)", file=sys.stderr)
        return 1
    print("backend-matrix: all backends conform to the TrainResult schema")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
