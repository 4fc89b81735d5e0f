"""The benchmark's test of itself.

    python -m pytest benchmarks/e2e -q        (about two minutes)

Outside tier-1's ``testpaths``; under ``pytest benchmarks/ --benchmark-only``
every test here is skipped (none uses the ``benchmark`` fixture) and the
runner files match neither ``bench_*.py`` nor ``test_*.py``.
"""

from __future__ import annotations

import fnmatch
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lockstep
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: metrics that are counts, not clocks: two runs must agree on them exactly.
#: ``transport.alloc_kb_per_step`` is left out on purpose — how many chunks
#: ``recv`` returns decides whether ``b"".join`` copies, so it only repeats
#: to within one payload on TCP.
COUNTS = [
    "up_bytes_per_step", "down_bytes_per_step",
    "transport.wire_up_bytes_per_step", "transport.wire_down_bytes_per_step",
    "wire.frames_per_step", "wire.up_frame_bytes", "wire.down_frame_bytes",
    "compression.up_nnz_per_step", "compression.down_nnz_per_step",
    "wire.alloc_kb_per_step", "tracker.alloc_kb_per_step", "strategy.alloc_kb_per_step",
    "sim.virtual_s_per_step", "sim.uplink_utilisation", "sim.downlink_utilisation",
    "ps.server_state_mb", "worker.state_mb",
]


def run_bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(doc: dict, workload: str) -> dict:
    entry = doc["workloads"][workload][0]
    return {**{k: v["value"] for k, v in entry["end_to_end"].items()}, **entry["per_layer"]}


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two complete ``--quick`` runs of the whole suite, same seed."""
    out = []
    for i in range(2):
        path = tmp_path_factory.mktemp("e2e") / f"quick{i}.json"
        proc = run_bench("--quick", "--json", str(path))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        out.append((proc.stdout, json.loads(path.read_text())))
    return out


def test_benchmark_json_names_what_the_code_produces():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [w["name"] for w in SPEC["workloads"]] + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(lockstep.SELF_TIME_METRICS.values()) | set(lockstep.ALLOC_GROUPS) <= set(PER_LAYER)


def test_runner_files_escape_the_bench_smoke_glob():
    runners = [p.name for p in HERE.glob("*.py") if p.name != Path(__file__).name]
    assert runners and not any(
        fnmatch.fnmatch(name, pat) for name in runners for pat in ("bench_*.py", "test_*.py")
    )


def test_every_metric_is_printed_once_per_workload_with_its_unit(quick_runs):
    stdout, _ = quick_runs[0]
    lines = stdout.splitlines()
    for w in workloads.WORKLOADS:
        for name in END_TO_END + PER_LAYER:
            hits = [ln for ln in lines if ln.startswith(f"{w} {name} ")]
            assert len(hits) == 1, (w, name, hits)
            _, _, value, unit = hits[0].split(" ")
            assert unit == UNITS[name]
            float(value)
        assert sum(ln.startswith(f"{w} ops_attempted ") for ln in lines) == 1
        assert sum(ln.startswith(f"{w} ops_failed 0 ") for ln in lines) == 1


def test_count_metrics_repeat_exactly(quick_runs):
    (_, first), (_, second) = quick_runs
    for w in workloads.WORKLOADS:
        a, b = values(first, w), values(second, w)
        assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}, w
        assert first["workloads"][w][0]["inputs_digest"] == second["workloads"][w][0]["inputs_digest"]


def test_analytic_byte_counts():
    assert workloads.dense_frame_bytes() == 3_679_880
    assert workloads.topk_frame_bytes() == 74_800


def test_span_tree_invariants_hold(quick_runs):
    _, doc = quick_runs[0]
    for name, w in workloads.WORKLOADS.items():
        entry = doc["workloads"][name][0]
        assert entry["trace_invariants"]["negative_self"] == 0, name
        assert entry["trace_invariants"]["escapes"] == 0, name  # children inside parents
        if w.real_transport:
            assert entry["per_layer"]["trace.coverage"] >= 0.90, name
        assert all(v >= 0 for k, v in entry["per_layer"].items() if k.endswith("_ms")
                   and k != "service.overhead_ms"), name


def test_budget_self_time_is_duration_minus_covered_children():
    step, wait, handle, inner = lockstep.STEP, lockstep.WAIT, lockstep.HANDLE, lockstep.APPLY_UPDATE
    rows = [
        [step, 0.0, 0.010, -1, 0, 0],
        [wait, 0.002, 0.009, 0, 0, 0],
        [handle, 0.003, 0.008, 1, 0, 0],
        [inner, 0.004, 0.006, 2, 0, 0],
        [lockstep.RECV_UP, 0.0, 0.5, -1, 0, 0],  # outside the tree: ignored
    ]
    tree = lockstep.budget(rows, 1)
    assert tree["self_ms"][step] == pytest.approx(3.0)
    assert tree["self_ms"][wait] == pytest.approx(2.0)
    assert tree["self_ms"][handle] == pytest.approx(3.0)
    assert tree["self_ms"][inner] == pytest.approx(2.0)
    assert tree["coverage"] == pytest.approx(0.7)
    assert (tree["negative_self"], tree["escapes"]) == (0, 0)
    rows[3][lockstep.END] = 0.020  # a child that pokes 12 ms out of its parent
    assert lockstep.budget(rows, 1)["escapes"] == 1


def test_merge_cuts_a_send_where_the_peer_has_the_frame():
    worker = [
        [lockstep.STEP, 0.0, 10.0, -1, 0, 0],
        [lockstep.SEND_UP, 1.0, 5.0, 0, 0, 0],
        [lockstep.WAIT, 5.0, 9.0, 0, 0, 0],
    ]
    server = [
        [lockstep.RECV_UP, 0.0, 3.0, -1, 0, 0],
        [lockstep.DEC_UP, 3.0, 4.0, -1, 0, 0],
        [lockstep.SEND_DOWN, 7.0, 9.5, -1, 0, 0],
    ]
    rows = lockstep.merge_rows(worker, server)
    by_name = {r[lockstep.NAME]: r for r in rows}
    assert by_name[lockstep.SEND_UP][lockstep.END] == 3.0
    assert by_name[lockstep.WAIT][lockstep.START] == 3.0
    assert by_name[lockstep.SEND_DOWN][lockstep.END] == 9.0
    assert by_name[lockstep.DEC_UP][lockstep.PARENT] == 2
    assert by_name[lockstep.RECV_UP][lockstep.PARENT] == -1


def test_another_seed_changes_the_inputs_and_nothing_else(quick_runs, tmp_path):
    _, base = quick_runs[0]
    path = tmp_path / "seed1.json"
    proc = run_bench("--quick", "--seed", "1", "--workload", "dgs_dual_tcp", "--json", str(path))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    other = json.loads(path.read_text())
    a, b = base["workloads"]["dgs_dual_tcp"][0], other["workloads"]["dgs_dual_tcp"][0]
    assert a["inputs_digest"] != b["inputs_digest"]
    assert a["steps_per_round"] == b["steps_per_round"]
    assert a["ops_attempted"] == b["ops_attempted"]
    va, vb = values(base, "dgs_dual_tcp"), values(other, "dgs_dual_tcp")
    fixed = [k for k in COUNTS if not k.endswith("alloc_kb_per_step")]
    assert {k: va[k] for k in fixed} == {k: vb[k] for k in fixed}


def test_a_broken_check_fails_the_command():
    proc = run_bench("--quick", "--no-trace", "--workload", "asgd_dense_tcp",
                     "--self-test-fault", "wrong_bytes")
    assert proc.returncode != 0
    result = result_line(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "CHECK FAILED" in proc.stdout and "analytic" in proc.stdout


def test_no_result_without_the_program(tmp_path):
    """The contract's bare directory: BENCHMARK.json and ``paths`` only."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = run_bench("--workload", "asgd_dense_tcp", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
