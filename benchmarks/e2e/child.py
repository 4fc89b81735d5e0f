"""One pinned child interpreter of bench-e2e: a job, or a lockstep run.

``run.py`` starts every round, cold launch and traced run as a fresh
``python child.py ...`` so that nothing — BLAS thread pools, allocator
state, warmed caches — leaks from one measurement into the next, and so
that BLAS is pinned to one thread *before* NumPy is imported (noise rule
1: unpinned, server + 2 workers each spin 2 OpenBLAS threads on 2 cores
and the numbers measure OpenBLAS busy-waiting, 29 vs 97 steps/s) and the
allocator is pinned before the first ``malloc`` (``PINNED_ENV``).

``job``       one complete ``Trainer(cfg, backend).run()`` of a fixed step
              count.  A timed round and a cold launch are the same job at
              different step counts; the output carries both the phase
              times (for ``setup_s``) and the run's metrics and checks.
``lockstep``  the parity check and, with ``--trace 1``, the layer budget
              (see ``lockstep.py``).

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

#: The environment every child must run in; ``run.py`` sets it, this file
#: refuses to measure without it.
#:
#: * BLAS on one thread (noise rule 1), set before NumPy is imported.
#: * glibc malloc serving every request from the heap and never trimming it
#:   (noise rule 6).  By default a 3.68 MB frame buffer is ``mmap``-ed or
#:   carved from the heap depending on a threshold glibc moves at run time,
#:   and fresh pages cost whatever the hypervisor charges that minute: the
#:   same asgd_dense_tcp round ran 54-71 steps/s unpinned (IQR 20 % of the
#:   median over 8 rounds) and 62-70 pinned (7 %); with the threshold stuck
#:   at its 128 kB start it ran 30 steps/s.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # the largest glibc accepts
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
}
#: test seam: ``wrong_bytes`` makes the analytic upload count off by one,
#: so the self-test can see a failing check fail
FAULT_VAR = "BENCH_E2E_FAULT"


def blas_threads() -> int:
    """Assert the pins took; returns OpenBLAS's own thread count where it
    can be asked (NumPy's bundled library, found in this process's maps)."""
    for var, value in PINNED_ENV.items():
        if os.environ.get(var) != value:
            raise SystemExit(f"{var} must be {value} before NumPy is imported (see PINNED_ENV)")
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            probe = getattr(lib, symbol, None)
            if probe is not None:
                threads = int(probe())
                if threads != 1:
                    raise SystemExit(f"BLAS runs {threads} threads despite the pin")
                return threads
    return 1  # not OpenBLAS, or not askable: the environment pin stands


def _weighted_ms(meters) -> float:
    """Count-weighted mean of ``AverageMeter`` s holding seconds, in ms."""
    count = sum(m.count for m in meters)
    return 1e3 * sum(m.count * m.avg for m in meters) / count if count else 0.0


def _cpu_seconds() -> "tuple[float, float]":
    """user+sys CPU of this process and of its reaped children — what
    ``os.times()`` reports, at getrusage's µs resolution instead of 10 ms."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, reaped.ru_utime + reaped.ru_stime


def job(args: argparse.Namespace) -> dict:
    threads = blas_threads()
    import numpy as np
    from repro.exec import Trainer

    import workloads

    t_imported = time.time()
    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.seed)
    t_inputs = time.time()
    trainer = Trainer(workloads.run_config(w, inputs, args.steps), backend=w.backend)
    t_built = time.time()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    result = trainer.run()
    wall = time.perf_counter() - wall0
    cpu1 = _cpu_seconds()
    t_done = time.time()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    steps = args.steps
    applied = result.total_iterations
    per_step = 1.0 / max(applied, 1)
    self_cpu, reaped_cpu = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    train_loss = result.loss_vs_step.ys
    last_quartile = float(np.mean(train_loss[-max(1, len(train_loss) // 4):]))

    failures = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    check(not result.errors, f"TrainResult.errors = {result.errors}")
    check(applied == steps, f"total_iterations {applied} != {steps}")
    check(
        result.samples_processed == steps * workloads.BATCH_SIZE,
        f"samples_processed {result.samples_processed} != {steps * workloads.BATCH_SIZE}",
    )
    fault = os.environ.get(FAULT_VAR) == "wrong_bytes"
    for way, total, frame in (
        ("upload", result.upload_bytes, w.up_frame_bytes),
        ("download", result.download_bytes, w.down_frame_bytes),
    ):
        if frame is not None:
            expected = steps * frame + (way == "upload" and fault)
            check(total == expected, f"{way}_bytes {total} != analytic {expected}")
    check(
        result.compression_ratio >= w.min_compression_ratio,
        f"compression_ratio {result.compression_ratio:.1f} < {w.min_compression_ratio}",
    )
    if args.check_loss:
        check(
            result.final_loss < math.log(workloads.NUM_CLASSES),
            f"val_loss_final {result.final_loss:.4f} >= ln {workloads.NUM_CLASSES} (not learned)",
        )
        check(last_quartile >= 0.05, f"training loss {last_quartile:.4f} < 0.05 (degenerate)")

    server = trainer.engine.server
    shards = getattr(server, "shards", [server])
    virtual = result.clock == "virtual"
    mib = 1.0 / 2**20
    return {
        "steps": steps,
        "applied": applied,
        "failures": failures,
        "serve_mode": workloads.serve_mode(w),
        "inputs_digest": inputs.digest,
        "blas_threads": threads,
        "numpy": np.__version__,
        "phases": {
            "exec.import_s": t_imported - args.t0,
            "exec.dataset_s": t_inputs - t_imported,
            "exec.build_s": t_built - t_inputs,
            "exec.run1_s": t_done - t_built,
            "setup_s": t_done - args.t0,
        },
        "e2e": {
            "steps_per_s": applied / wall,
            "cpu_ms_per_step": 1e3 * (self_cpu + reaped_cpu) * per_step,
            "up_bytes_per_step": result.upload_bytes * per_step,
            "down_bytes_per_step": result.download_bytes * per_step,
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "val_loss_final": result.final_loss,
        },
        "layer": {
            "ps.lock_wait_ms_mean": _weighted_ms([s.lock_wait_meter for s in shards]),
            "ps.lock_hold_ms_mean": _weighted_ms([s.lock_hold_meter for s in shards]),
            "ps.staleness_p50": result.staleness_p50,
            "ps.staleness_p99": result.staleness_p99,
            "ps.server_state_mb": (result.server_state_bytes or 0) * mib,
            "worker.state_mb": (result.worker_state_bytes or 0) * mib,
            "exec.server_cpu_ms_per_step": 1e3 * self_cpu * per_step,
            "exec.worker_cpu_ms_per_step": 1e3 * reaped_cpu * per_step,
            "transport.wire_up_bytes_per_step": (result.wire_bytes_up or 0) * per_step,
            "transport.wire_down_bytes_per_step": (result.wire_bytes_down or 0) * per_step,
            "compression.ratio": result.compression_ratio,
            "sim.virtual_s_per_step": result.makespan_s * per_step if virtual else 0.0,
            "sim.uplink_utilisation": result.uplink_utilisation or 0.0,
            "sim.downlink_utilisation": result.downlink_utilisation or 0.0,
        },
        "train_loss_last_quartile": last_quartile,
    }


def lockstep_run(args: argparse.Namespace) -> dict:
    threads = blas_threads()
    import lockstep
    import workloads

    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.seed)
    out = lockstep.run(w, inputs, args.steps, args.warmup, bool(args.trace))
    out["inputs_digest"] = inputs.digest
    out["blas_threads"] = threads
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("job", "lockstep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--t0", type=float, default=time.time(),
                        help="time.time() at which the parent spawned this interpreter")
    parser.add_argument("--check-loss", type=int, default=0)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    out = job(args) if args.mode == "job" else lockstep_run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
