#!/usr/bin/env python3
"""bench-e2e: the end-to-end baseline and the layer budget of one exchange.

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                 [--trace 0|1 | --no-trace] [--quick] [--aa]
                                 [--json OUT]

Runs the four workloads of ``workloads.py`` through the public front-end
(``repro.exec.Trainer(RunConfig, backend=...)``), prints every metric of
``BENCHMARK.json`` by name with its unit, checks that the outputs are
correct, and exits non-zero if any check fails.  This process only
orchestrates: every round, cold launch and traced run is a fresh child
interpreter with BLAS pinned to one thread (``child.py``).

With exactly one ``--workload`` the last line of stdout is the result
object of the benchmark contract: ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics under ``--trace 0``, the per-layer
metrics under ``--trace 1``, both when neither is given.

See README.md for the metric definitions, the noise rules this design
follows, and the layer-metric → end-to-end-metric prediction table.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import FAULT_VAR, PINNED_ENV
from workloads import COLD_LAUNCHES, ROUNDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: children cache bytecode here, so every cold launch but a checkout's very
#: first loads the same warm cache and nothing is written outside this
#: directory, whatever PYTHONDONTWRITEBYTECODE says in the caller's shell
PYCACHE = HERE / ".cache" / "pycache"
CHILD_TIMEOUT_S = 150
#: traced lockstep steps after warm-up (100 samples: p90 has ten beyond it)
TRACE_STEPS, TRACE_WARMUP = 100, 10
#: steps of the parity check when no trace is wanted
PARITY_STEPS = 20
#: metrics that must repeat exactly from round to round and set to set
EXACT = ("up_bytes_per_step", "down_bytes_per_step")


def launch(mode: str, w: Workload, seed: int, steps: int, fault: "str | None" = None, **opts) -> dict:
    """Run one pinned child interpreter to completion; its JSON result."""
    env = {**os.environ, **PINNED_ENV, "PYTHONPYCACHEPREFIX": str(PYCACHE)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop(FAULT_VAR, None)
    if fault:
        env[FAULT_VAR] = fault
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", w.name,
           "--seed", str(seed), "--steps", str(steps), "--t0", repr(time.time())]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(int(value))]
    # Own session: on a timeout the whole tree (forked workers too) dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:6])} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


@dataclass
class Arm:
    """One workload's measurements in one set (``--aa`` runs two sets)."""

    workload: Workload
    label: str
    rounds: "list[dict]" = field(default_factory=list)
    launches: "list[dict]" = field(default_factory=list)
    lockstep: "dict | None" = None


def interleaved(groups: "list[list[Arm]]", repeats: int):
    """Round-robin across workloads (host contention drifts over tens of
    seconds, so no workload may own a stretch of wall-clock), alternating
    which set goes first per workload and per repeat."""
    for r in range(repeats):
        for i, arms in enumerate(groups):
            yield from arms if (r + i) % 2 == 0 else reversed(arms)


def measure(groups, seed, seconds, quick, trace, fault) -> None:
    """Fill every arm: timed rounds, cold launches, then lockstep runs."""
    end_to_end = trace != 1  # --trace 1 needs rounds only for their layer readings
    n_rounds = ROUNDS if end_to_end and not quick else 1
    n_launches = COLD_LAUNCHES if end_to_end and not quick else 2
    for arm in interleaved(groups, n_rounds):
        w = arm.workload
        arm.rounds.append(launch("job", w, seed, w.steps(seconds, quick),
                                 fault=fault, check_loss=not quick))
    for arm in interleaved(groups, n_launches):
        w = arm.workload
        arm.launches.append(launch("job", w, seed, w.num_workers))
    for arms in groups:
        for arm in arms:
            if trace == 0:
                steps, warmup = PARITY_STEPS, 0
            elif quick:
                steps, warmup = 20, 2
            else:
                steps, warmup = TRACE_STEPS, TRACE_WARMUP
            arm.lockstep = launch("lockstep", arm.workload, seed, steps,
                                  warmup=warmup, trace=trace != 0)


def summarise(arm: Arm, spec: dict) -> dict:
    """Medians, checks and operation counts of one arm."""
    failures = []
    attempted = failed = 0
    for i, r in enumerate(arm.rounds):
        attempted += r["steps"]
        failed += r["steps"] if r["failures"] else r["steps"] - r["applied"]
        failures += [f"round {i}: {f}" for f in r["failures"]]
    for i, r in enumerate(arm.launches):
        failures += [f"cold launch {i}: {f}" for f in r["failures"]]
    if not arm.lockstep["parity"]:
        failures.append("final model differs between real transport and direct calls")

    end_to_end = {}
    for name in arm.rounds[0]["e2e"]:
        values = [r["e2e"][name] for r in arm.rounds]
        if name in EXACT and len(set(values)) > 1:
            failures.append(f"{name} does not repeat across rounds: {values}")
        end_to_end[name] = {"value": statistics.median(values), "min": min(values),
                            "max": max(values), "rounds": values}
    # Set-up noise is purely additive, so the minimum is the estimate.
    best = min(arm.launches, key=lambda r: r["phases"]["setup_s"])
    totals = [r["phases"]["setup_s"] for r in arm.launches]
    end_to_end["setup_s"] = {"value": min(totals), "min": min(totals), "max": max(totals),
                             "rounds": totals}

    # Every per-layer name is reported on every workload; a layer the
    # workload does not run through reads 0.
    per_layer = {m["name"]: 0.0 for m in spec["per_layer"]}
    measured = {name: statistics.median(r["layer"][name] for r in arm.rounds)
                for name in arm.rounds[0]["layer"]}
    measured.update({k: v for k, v in best["phases"].items() if k != "setup_s"})
    measured.update(arm.lockstep["layer"])
    unknown = sorted(set(measured) - set(per_layer))
    if unknown:
        raise RuntimeError(f"metrics not named in BENCHMARK.json: {unknown}")
    per_layer.update(measured)

    invariants = arm.lockstep["invariants"]
    if arm.lockstep["layer"] and arm.workload.real_transport:
        if per_layer["trace.coverage"] < 0.90:
            failures.append(f"trace.coverage {per_layer['trace.coverage']:.3f} < 0.90")
        if invariants["negative_self"]:
            failures.append(f"{invariants['negative_self']} spans with negative self time")
    if failures:
        failed = max(failed, 1)
    return {
        "set": arm.label,
        "steps_per_round": arm.rounds[0]["steps"],
        "serve_mode": arm.rounds[0]["serve_mode"],
        "inputs_digest": arm.rounds[0]["inputs_digest"],
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_invariants": invariants,
    }


def reported(summary: dict, trace: "int | None") -> "dict[str, float]":
    """The metrics a run reports: end-to-end unless ``--trace 1``, per-layer
    unless ``--trace 0``."""
    out = {}
    if trace != 1:
        out.update({k: v["value"] for k, v in summary["end_to_end"].items()})
    if trace != 0:
        out.update(summary["per_layer"])
    return out


def compare_sets(a: dict, b: dict, spec: dict) -> "list[dict]":
    """A/A: the two sets' medians must agree within each metric's bound."""
    rows = []
    for m in spec["end_to_end"]:
        va, vb = a["end_to_end"][m["name"]]["value"], b["end_to_end"][m["name"]]["value"]
        spread = abs(va - vb) / min(abs(va), abs(vb))
        limit = 0.0 if m["name"] in EXACT else m["bound"]
        rows.append({"metric": m["name"], "a": va, "b": vb, "spread": spread,
                     "bound": limit, "ok": spread <= limit})
    return rows


def fingerprint(seed: int, seconds: float, quick: bool, load: float, arms: "list[Arm]") -> dict:
    """What a set of runs was measured on; ``load`` is the 1-min load
    average before the first child started."""
    cores = os.cpu_count() or 1
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "cpu_count": cores,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": arms[0].rounds[0]["blas_threads"],
        "loadavg_1m_at_start": load,
        "noisy_host": load > cores / 2,
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "steps_per_round": {a.workload.name: a.workload.steps(seconds, quick) for a in arms},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds the dataset, loader and model generators only")
    parser.add_argument("--seconds", type=float,
                        help="budget of the timed rounds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    parser.add_argument("--quick", action="store_true",
                        help="N/10, one round, 2 cold launches, 20 traced steps (< 30 s)")
    parser.add_argument("--aa", action="store_true",
                        help="run two interleaved sets and require their medians to agree")
    parser.add_argument("--json", metavar="OUT", help="also write the full result document")
    parser.add_argument("--self-test-fault", choices=("wrong_bytes",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench-e2e: no program to measure under {ROOT} (src/repro missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = 0 if args.aa else args.trace
    selected = [WORKLOADS[name] for name in args.workload or WORKLOADS]
    load_at_start = os.getloadavg()[0]

    groups = [[Arm(w, label) for label in ("A", "B")[: 2 if args.aa else 1]] for w in selected]
    measure(groups, args.seed, seconds, args.quick, trace, args.self_test_fault)
    arms = [arm for arms in groups for arm in arms]
    doc = {"fingerprint": fingerprint(args.seed, seconds, args.quick, load_at_start,
                                      [g[0] for g in groups]),
           "workloads": {}}
    print("# " + json.dumps(doc["fingerprint"]))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    summaries = {}
    for arm in arms:
        s = summaries[arm.workload.name, arm.label] = summarise(arm, spec)
        ok = ok and not s["failures"]
        tag = arm.workload.name + (f"[{arm.label}]" if args.aa else "")
        for name, value in reported(s, trace).items():
            print(f"{tag} {name} {value!r} {units[name]}")
        print(f"{tag} serve_mode {s['serve_mode']}")
        print(f"{tag} ops_attempted {s['ops_attempted']} count")
        print(f"{tag} ops_failed {s['ops_failed']} count")
        for failure in s["failures"]:
            print(f"{tag} CHECK FAILED: {failure}")
        doc["workloads"].setdefault(arm.workload.name, []).append(s)

    if args.aa:
        doc["aa"] = {}
        for w in selected:
            rows = compare_sets(summaries[w.name, "A"], summaries[w.name, "B"], spec)
            doc["aa"][w.name] = rows
            for row in rows:
                ok = ok and row["ok"]
                print(f"{w.name} A/A {row['metric']}: A={row['a']:.6g} B={row['b']:.6g} "
                      f"spread={row['spread']:.4f} bound={row['bound']:.2f} "
                      f"{'ok' if row['ok'] else 'DISAGREE'}")
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")

    if len(arms) == 1:  # the contract's result object
        s = summaries[arms[0].workload.name, "A"]
        print(json.dumps({
            "correct": ok,
            "attempted": s["ops_attempted"],
            "failed": s["ops_failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported(s, trace).items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
