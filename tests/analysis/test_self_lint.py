"""The merge gate: the analysis suite must be green over the shipped tree."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.__main__ import main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).parent / "fixtures"


def test_src_tree_has_zero_findings():
    findings = run_analysis(root=SRC)
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_cli_exits_zero_on_a_clean_tree(capsys):
    # the src/ tree itself is analysed once, above; the CLI's exit-0 path
    # runs every pillar over a small tree that is clean by construction
    assert main([str(FIXTURES / "clean")]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s) — OK" in out


def test_cli_exits_nonzero_on_bad_fixtures(capsys):
    assert main([str(FIXTURES), "--no-sanitize"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    # findings are rule-tagged and anchored to the fixture files
    for rule in ("RNG001", "MUT001", "EXC001", "LCK001", "LCK002", "LCK003"):
        assert rule in out, f"expected {rule} in CLI output"
    assert "bad_lint.py" in out and "bad_locks.py" in out


def test_cli_select_filters_rules(capsys):
    assert main([str(FIXTURES), "--no-sanitize", "--select", "LCK001"]) == 1
    out = capsys.readouterr().out
    assert "LCK001" in out
    assert "RNG001" not in out


def test_cli_rejects_nonexistent_path():
    with pytest.raises(SystemExit) as exc:
        main(["does/not/exist", "--no-sanitize"])
    assert exc.value.code == 2


def test_cli_rejects_unknown_select_rule():
    with pytest.raises(SystemExit) as exc:
        main([str(FIXTURES), "--no-sanitize", "--select", "BOGUS999"])
    assert exc.value.code == 2


def test_cli_json_format_is_jsonl(capsys):
    # one JSON object per line so CI/editors can stream-parse findings
    main([str(FIXTURES), "--no-sanitize", "--format", "json"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    findings = [json.loads(line) for line in lines]
    for f in findings:
        assert {"rule", "path", "line", "col", "message"} <= set(f)
    assert any(f["rule"] == "LCK004" for f in findings)  # lock graph included


def test_cli_human_format_is_default(capsys):
    main([str(FIXTURES), "--no-sanitize"])
    out = capsys.readouterr().out
    assert "finding(s) — FAILED" in out  # summary line, not JSON
    first = out.splitlines()[0]
    with pytest.raises(json.JSONDecodeError):
        json.loads(first)


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("RNG001", "DTY001", "TEN001", "LCK001", "LCK004", "LCK006", "ARC001", "SAN001"):
        assert rule in out


def test_pillars_can_be_disabled_independently():
    # lint off → only lock findings remain for the fixtures tree
    findings = run_analysis(root=FIXTURES, lint=False, sanitizer=False)
    assert findings and all(f.rule.startswith("LCK") for f in findings)
    findings = run_analysis(root=FIXTURES, locks=False, sanitizer=False)
    assert findings and not any(f.rule.startswith("LCK") for f in findings)
