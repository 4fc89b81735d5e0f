#!/usr/bin/env python
"""Extending the library: write your own compression strategy.

Implements a *sign-SGD with error feedback* worker strategy from scratch —
not one of the paper's methods — adds it to the method catalogue as one
``MethodSpec`` naming its factory, and trains it through the unmodified
simulator against DGS.  This is the extension path a downstream
researcher would use to prototype a new compressor on the DGS substrate
(dual-way model-difference tracking comes for free from the server side).

Usage:  python examples/custom_strategy.py [--fast]
"""

import argparse
from collections import OrderedDict

import numpy as np

from repro.compression import TernaryTensor
from repro.core.methods import METHODS, MethodSpec
from repro.core.strategies import WorkerStrategy
from repro.harness import get_workload, run_distributed
from repro.metrics import format_table


class SignSGDStrategy(WorkerStrategy):
    """signSGD with error feedback (Karimireddy et al. style).

    Send ``sign(e + η∇)·scale`` where ``scale`` is the mean magnitude and
    ``e`` accumulates the compression error — 2 bits/element on the wire.
    """

    def __init__(self, shapes):
        super().__init__(shapes)
        self.error = OrderedDict((n, np.zeros(s)) for n, s in self.shapes.items())

    def prepare(self, grads, lr):
        out = OrderedDict()
        for name, g in grads.items():
            e = self.error[name]
            corrected = e + lr * g
            scale = float(np.abs(corrected).mean())
            signs = np.sign(corrected.reshape(-1)).astype(np.int8)
            out[name] = TernaryTensor(signs, scale, corrected.shape)
            # error feedback: keep what the sign code could not express
            e[...] = corrected - (signs.reshape(corrected.shape) * scale)
        return out

    def state_bytes(self):
        return sum(e.nbytes for e in self.error.values())


def sign_sgd(shapes, hyper, dtype=None, seed=0):
    """The strategy factory a ``MethodSpec`` names (signSGD draws nothing)."""
    return SignSGDStrategy(shapes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args()
    # One catalogue entry, and every trainer and bench can run signsgd.
    METHODS["signsgd"] = MethodSpec(
        name="signsgd",
        label="signSGD-EF",
        strategy=sign_sgd,
        downstream="difference",
        sparsification="1-bit signs + error feedback",
        momentum="N",
    )

    workload = get_workload("cifar10")
    rows = []
    for method in ("dgs", "signsgd"):
        r = run_distributed(method, workload, 4, fast=args.fast, seed=0)
        rows.append((
            method,
            f"{100 * r.final_accuracy:.2f}%",
            f"{r.upload_dense_bytes / max(r.upload_bytes, 1):.0f}x",
        ))
    print(format_table(
        ("method", "top-1 acc", "upload compression"),
        rows,
        title="Custom strategy (signSGD + error feedback) vs DGS, 4 workers",
    ))


if __name__ == "__main__":
    main()
