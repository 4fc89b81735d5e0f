"""Micro-kernel performance regression gate.

Times the reference/optimised kernel pairs from ``kernel_pairs.py`` and
compares the measured **speedup ratios** (reference time / optimised time)
against the committed baseline in ``benchmarks/BENCH_kernels.json``.
Ratios — not absolute times — are what the baseline records, so the gate
is meaningful on any machine: a real regression in the optimised path
shrinks the ratio everywhere.

Usage::

    python benchmarks/check_regression.py           # gate (CI): fail on
                                                    #   >1.3x ratio erosion
    python benchmarks/check_regression.py --update  # re-measure and
                                                    #   rewrite the baseline

The baseline must also keep the headline claim honest: at least
``MIN_WINS`` of the gated kernels (top-k select, COO encode, payload
apply) must show a >= 1.5x speedup, or ``--update`` refuses to write it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

# BLAS on one thread, as the end-to-end benchmark pins it, set before NumPy
# is imported: a threaded float64 dgemm swings from run to run with whatever
# else the machine is doing (the record-only ``mlp_forward_backward`` pair
# read 1.6x one run and 43x the next unpinned).  The gated pairs use no BLAS.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from kernel_pairs import GATED, RECORD_ONLY, MIN_WINS, N, RATIO, make_pairs  # noqa: E402

BASELINE = pathlib.Path(__file__).parent / "BENCH_kernels.json"

#: a kernel fails the gate when its ratio drops below baseline / TOLERANCE
TOLERANCE = 1.3
#: the committed baseline must show this speedup on >= MIN_WINS gated kernels
REQUIRED_SPEEDUP = 1.5


def _time(fn, repeats: int = 7, min_sample_s: float = 0.02) -> float:
    """Best-of-``repeats`` seconds per call (loops short calls up)."""
    fn()  # warmup (allocations, branch caches)
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    number = max(1, int(min_sample_s / max(once, 1e-9)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def measure() -> "dict[str, dict[str, float]]":
    out: "dict[str, dict[str, float]]" = {}
    for name, (ref, opt) in make_pairs().items():
        ref_s = _time(ref)
        opt_s = _time(opt)
        out[name] = {
            "ref_ms": round(ref_s * 1e3, 4),
            "opt_ms": round(opt_s * 1e3, 4),
            "speedup": round(ref_s / opt_s, 3),
        }
    return out


def _print_table(rows: "dict[str, dict[str, float]]", baseline=None) -> None:
    hdr = f"{'kernel':30s} {'ref ms':>10s} {'opt ms':>10s} {'speedup':>8s}"
    if baseline:
        hdr += f" {'baseline':>9s} {'floor':>7s}"
    print(hdr)
    for name, row in rows.items():
        line = f"{name:30s} {row['ref_ms']:10.3f} {row['opt_ms']:10.3f} {row['speedup']:7.2f}x"
        if baseline and name in baseline:
            base = baseline[name]["speedup"]
            floor = "     --" if name in RECORD_ONLY else f"{base / TOLERANCE:6.2f}x"
            line += f" {base:8.2f}x {floor}"
        print(line)


def cmd_update() -> int:
    rows = measure()
    wins = sum(1 for k in GATED if rows[k]["speedup"] >= REQUIRED_SPEEDUP)
    _print_table(rows)
    if wins < MIN_WINS:
        print(
            f"refusing to write baseline: only {wins}/{len(GATED)} gated kernels "
            f"reach {REQUIRED_SPEEDUP}x (need {MIN_WINS}); the optimised path "
            "no longer earns its keep",
            file=sys.stderr,
        )
        return 1
    BASELINE.write_text(
        json.dumps(
            {
                "n": N,
                "ratio": RATIO,
                "tolerance": TOLERANCE,
                "kernels": rows,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"baseline written to {BASELINE} ({wins}/{len(GATED)} gated kernels >= {REQUIRED_SPEEDUP}x)")
    return 0


def cmd_check() -> int:
    if not BASELINE.exists():
        print(f"missing baseline {BASELINE}; run with --update first", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE.read_text())["kernels"]
    rows = measure()
    _print_table(rows, baseline)
    failures = []
    for name, base in baseline.items():
        if name in RECORD_ONLY:
            continue
        if name not in rows:
            failures.append(f"{name}: in baseline but no longer measured")
            continue
        got = rows[name]["speedup"]
        floor = base["speedup"] / TOLERANCE
        if got < floor:
            failures.append(
                f"{name}: speedup {got:.2f}x fell below {floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x / {TOLERANCE})"
            )
    if failures:
        print("\nPERFORMANCE REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nok: all kernel speedups within tolerance of the committed baseline")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--update", action="store_true", help="re-measure and rewrite the baseline")
    args = ap.parse_args(argv)
    return cmd_update() if args.update else cmd_check()


if __name__ == "__main__":
    raise SystemExit(main())
