"""ExperimentReport container."""

import pytest

from repro.harness.report import ExperimentReport


@pytest.fixture
def report():
    rep = ExperimentReport(
        experiment_id="Table X",
        title="demo",
        headers=("a", "b"),
        paper_rows=[("p1", "p2")],
    )
    rep.add_row("r1", "r2")
    rep.add_note("a note")
    rep.figures.append("ASCII FIG")
    rep.svgs["chart"] = "<svg/>"
    return rep


class TestReport:
    def test_claims_stay_out_of_the_renderings(self, report):
        report.claim("a claim", 1 > 2)
        assert report.claims == [("a claim", False)]
        assert "a claim" not in report.markdown() and "a claim" not in report.render()

    def test_table_contains_id_and_rows(self, report):
        out = report.table()
        assert "Table X" in out and "r1" in out

    def test_markdown_has_both_tables(self, report):
        md = report.markdown()
        assert "Table X: demo" in md
        assert "Table X (paper)" in md
        assert "> a note" in md

    def test_render_includes_figures_and_paper(self, report):
        out = report.render()
        assert "ASCII FIG" in out
        assert "paper reported" in out
        assert "note: a note" in out

    def test_add_row_tuples(self, report):
        report.add_row(1, 2.5)
        assert report.rows[-1] == (1, 2.5)

    def test_empty_report_renders(self):
        rep = ExperimentReport("F", "t", ("x",))
        assert "F: t" in rep.render()
