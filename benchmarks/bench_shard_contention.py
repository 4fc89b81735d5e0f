"""Shard-contention benchmark for the sharded server (record-only).

Runs the threaded backend with a fixed model and ``WORKERS`` workers,
sweeping the parameter server across 1/2/4/8 shards, and extracts two
figures per shard count from the run's own metrics registry:

* ``samples_per_s`` — end-to-end training throughput (wall clock);
* ``lock_wait_p99_s`` — p99 of ``server.lock_wait_s`` with the counts of
  every per-worker/per-shard histogram series merged (plus the same
  figure per worker), via the Prometheus-style estimator.

The point of sharding is that N independent locks shear one contended
lock into N mostly-uncontended ones, so lock-wait p99 should not *rise*
as shards are added and the fan-out should not cost real throughput.
Three observations are printed against that expectation:

* merged lock-wait p99 non-increasing across the sweep (within
  ``P99_TOLERANCE`` to absorb timer noise);
* sharded throughput within ``THROUGHPUT_TOLERANCE`` of the 1-shard run;
* against the committed ``BENCH_shards.json``: the throughput *ratios*
  (shard-S over shard-1) not eroded by more than ``RATIO_TOLERANCE`` —
  skipped (loudly) when this machine's core count differs from the
  baseline's, since how much 8 worker threads overlap depends on it.

**Record-only.**  The sweep does not gate.  On a 2-core box the 1-shard
throughput is bimodal — 7.8k, 7.9k, 22.6k, 22.7k, 25.8k samples/s in five
back-to-back runs (8 worker threads on one GIL either convoy on the lock
or do not) — and 4/8 shards sit at 5.8–6.9k every time, so "within 1.5x
of 1 shard" fails or passes on the scheduler's mood (ratios 0.25–0.84x)
and no committed ratio separates a regression from it; ``--update`` used
to refuse to write for that reason.  Why more shards are not faster here
is in ``docs/performance.md``, "Shard lanes: a negative result".
Observations that do not hold are printed as ``record-only:`` lines and
the exit code is 0; the numbers are kept so the day sharding stops
costing throughput is visible against them.

Usage::

    python benchmarks/bench_shard_contention.py            # measure + compare
    python benchmarks/bench_shard_contention.py --update   # rewrite baseline
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import Hyper  # noqa: E402
from repro.data import make_blobs  # noqa: E402
from repro.exec import RunConfig, Trainer  # noqa: E402
from repro.nn import MLP  # noqa: E402
from repro.obs import names as obs_names  # noqa: E402
from repro.obs.metrics import quantile_from_counts  # noqa: E402

BASELINE = pathlib.Path(__file__).parent / "BENCH_shards.json"

WORKERS = 8
SHARD_SWEEP = (1, 2, 4, 8)
ITERS_PER_WORKER = 40
REPEATS = 3

#: p99 may wobble this factor above the previous shard count (timer noise
#: on microsecond-scale waits) and still count as "non-increasing"
P99_TOLERANCE = 1.15
#: sharded throughput must stay within this factor of the 1-shard run:
#: every shard's bookkeeping (tracker update, metrics, spans) is serial
#: overhead under the GIL — ~25% at 8 shards — so this bounds the cost of
#: the fan-out.
THROUGHPUT_TOLERANCE = 1.5
#: committed throughput ratios must not erode by more than this factor
RATIO_TOLERANCE = 1.3


def _make_config(num_shards: int) -> RunConfig:
    ds = make_blobs(n_samples=800, num_classes=4, dim=24, sep=2.0, noise=0.8, seed=11)
    return RunConfig(
        "dgs",
        # 4 hidden layers -> 10 parameter tensors, so the 8-shard point in
        # the sweep is a real 8-way partition (num_shards clamps to layers)
        lambda: MLP(24, (48, 40, 32, 24), 4, seed=3),
        ds,
        num_workers=WORKERS,
        batch_size=16,
        total_iterations=ITERS_PER_WORKER * WORKERS,
        # cool lr + damping: 8 wall-clock workers on a loaded machine reach
        # double-digit staleness, and a diverged (NaN) run times nothing real
        hyper=Hyper(lr=0.01, momentum=0.7, ratio=0.1, min_sparse_size=0),
        staleness_damping=0.5,
        seed=0,
        num_shards=num_shards,
    )


def _lock_wait_histograms(metrics: "list[dict]") -> "list[dict]":
    return [
        r
        for r in metrics
        if r.get("name") == obs_names.METRIC_SERVER_LOCK_WAIT_S
        and r.get("kind") == "histogram"
    ]


def _merge_p99(records: "list[dict]") -> float:
    """p99 over the union of the given histogram series (shared buckets)."""
    if not records:
        return float("nan")
    buckets = tuple(records[0]["buckets"])
    counts = [0] * (len(buckets) + 1)
    for r in records:
        assert tuple(r["buckets"]) == buckets, "histogram buckets diverged"
        for i, c in enumerate(r["counts"]):
            counts[i] += c
    return quantile_from_counts(buckets, counts, 0.99)


def measure_one(num_shards: int) -> "dict[str, object]":
    """Best-of-``REPEATS`` throughput; lock-wait counts pooled over repeats."""
    best_throughput = 0.0
    pooled: "list[dict]" = []
    by_worker: "dict[str, list[dict]]" = {}
    for _ in range(REPEATS):
        result = Trainer(_make_config(num_shards), backend="threaded").run()
        assert result.num_shards == num_shards
        best_throughput = max(best_throughput, result.throughput)
        histograms = _lock_wait_histograms(result.metrics or [])
        pooled.extend(histograms)
        for r in histograms:
            by_worker.setdefault(str(r["labels"]["worker"]), []).append(r)
    return {
        "samples_per_s": round(best_throughput, 1),
        "lock_wait_p99_s": _merge_p99(pooled),
        "per_worker_p99_s": {
            w: _merge_p99(rs) for w, rs in sorted(by_worker.items())
        },
        "histogram_series": len(pooled) // REPEATS,
    }


def measure() -> "dict[str, dict[str, object]]":
    return {str(s): measure_one(s) for s in SHARD_SWEEP}


def _print_table(rows: "dict[str, dict[str, object]]") -> None:
    base = rows["1"]["samples_per_s"]
    print(f"{'shards':>6s} {'samples/s':>12s} {'vs 1 shard':>11s} {'lock-wait p99':>14s} {'series':>7s}")
    for shards, row in rows.items():
        p99 = row["lock_wait_p99_s"]
        print(
            f"{shards:>6s} {row['samples_per_s']:12.1f} "
            f"{row['samples_per_s'] / base:10.2f}x {p99 * 1e6:11.2f} us "
            f"{row['histogram_series']:>7d}"
        )


def _structural_notes(rows: "dict[str, dict[str, object]]") -> "list[str]":
    """Expectations that did not hold, measured fresh on this machine."""
    notes: "list[str]" = []
    base = rows["1"]["samples_per_s"]
    prev_p99 = None
    for shards in SHARD_SWEEP:
        row = rows[str(shards)]
        p99 = row["lock_wait_p99_s"]
        if math.isnan(p99):
            notes.append(f"{shards} shards: no lock-wait samples observed")
            continue
        if prev_p99 is not None and p99 > prev_p99 * P99_TOLERANCE:
            notes.append(
                f"{shards} shards: lock-wait p99 {p99 * 1e6:.2f}us rose above "
                f"{prev_p99 * 1e6:.2f}us x {P99_TOLERANCE} from the previous "
                "shard count (sharding must relieve contention, not add it)"
            )
        prev_p99 = min(p99, prev_p99) if prev_p99 is not None else p99
        if row["samples_per_s"] < base / THROUGHPUT_TOLERANCE:
            notes.append(
                f"{shards} shards: {row['samples_per_s']:.1f} samples/s fell below "
                f"the 1-shard run ({base:.1f}) / {THROUGHPUT_TOLERANCE} — the "
                "fan-out is costing real throughput"
            )
    return notes


def _print_notes(notes: "list[str]") -> None:
    for note in notes:
        print(f"record-only: {note}")


def cmd_update() -> int:
    rows = measure()
    _print_table(rows)
    _print_notes(_structural_notes(rows))
    BASELINE.write_text(
        json.dumps(
            {
                "workers": WORKERS,
                "iters_per_worker": ITERS_PER_WORKER,
                "repeats": REPEATS,
                "cpu_count_at_update": os.cpu_count() or 1,
                "p99_tolerance": P99_TOLERANCE,
                "throughput_tolerance": THROUGHPUT_TOLERANCE,
                "ratio_tolerance": RATIO_TOLERANCE,
                "runs": rows,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"baseline written to {BASELINE}")
    return 0


def cmd_check() -> int:
    if not BASELINE.exists():
        print(f"missing baseline {BASELINE}; run with --update first", file=sys.stderr)
        return 1
    committed = json.loads(BASELINE.read_text())
    baseline = committed["runs"]
    rows = measure()
    _print_table(rows)
    notes = _structural_notes(rows)
    # Throughput *ratios* vs 1 shard carry however much the 8 worker
    # threads overlapped on the baseline machine, which its core count
    # decides; across different counts the comparison means nothing, so it
    # is skipped, loudly.
    cpus = os.cpu_count() or 1
    baseline_cpus = committed.get("cpu_count_at_update", 1)
    if cpus != baseline_cpus:
        print(
            f"ratio comparison skipped: baseline from a {baseline_cpus}-CPU machine, "
            f"this machine has {cpus}; re-baseline with --update"
        )
    else:
        base_now = rows["1"]["samples_per_s"]
        base_then = baseline["1"]["samples_per_s"]
        for shards in SHARD_SWEEP[1:]:
            key = str(shards)
            if key not in baseline:
                notes.append(f"{shards} shards: in sweep but missing from baseline")
                continue
            ratio_now = rows[key]["samples_per_s"] / base_now
            ratio_then = baseline[key]["samples_per_s"] / base_then
            if ratio_now < ratio_then / RATIO_TOLERANCE:
                notes.append(
                    f"{shards} shards: throughput ratio {ratio_now:.2f}x eroded below "
                    f"baseline {ratio_then:.2f}x / {RATIO_TOLERANCE}"
                )
    _print_notes(notes)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--update", action="store_true", help="re-measure and rewrite the baseline")
    args = ap.parse_args(argv)
    return cmd_update() if args.update else cmd_check()


if __name__ == "__main__":
    raise SystemExit(main())
