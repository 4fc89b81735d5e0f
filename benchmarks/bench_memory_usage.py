"""§5.6.2 — memory accounting: DGS moves worker memory to the server."""

from repro.harness.experiments import memory_usage
from repro.harness.config import is_fast_mode


def test_memory_usage(run_experiment):
    report = run_experiment(memory_usage, "memory_usage")
    if is_fast_mode():
        return  # smoke pass: shape assertions hold at full scale only
    rows = {r[0]: r for r in report.rows}
    # Paper's claims: ASGD server pays 1 model unit; difference tracking adds
    # 1 unit per worker; DGS worker holds 1 buffer vs DGC's 2; DGS and
    # GD-async totals are equal (memory moved, not added).
    assert float(rows["ASGD"][1]) == 1.0
    assert float(rows["DGS"][1]) == float(rows["GD-async"][1]) > 1.0
    assert float(rows["DGS"][2]) == 1.0
    assert float(rows["DGC-async"][2]) == 2.0
    assert float(rows["DGS"][3]) == float(rows["GD-async"][3])
    # This implementation: no v_k without difference tracking, and with it
    # M + journal + the v_k of workers the journal no longer covers — more
    # than M, less than the paper's M + K·v_k.
    assert float(rows["ASGD"][4]) == 1.0
    for method in ("GD-async", "DGC-async", "DGS"):
        assert 1.0 < float(rows[method][4]) < float(rows[method][1])
