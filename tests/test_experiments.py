"""Tests for repro.experiments — small-scale runs asserting the paper's
qualitative findings (the benchmarks run the full-scale versions)."""

import pytest

from repro.experiments import (
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
    PAPER_CONFIGS,
    SyntheticConfig,
    Table1Config,
    Table2Config,
    Table3Config,
    Fig5Row,
    Table1Row,
    Table2Row,
    format_series,
    format_table,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_table1,
    render_table2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_table1,
    run_table2,
    run_table3,
    select_display_patterns,
)

SMALL_FIG3 = Fig3Config(runs=1, length=5_000, multiples=(1, 2, 3))
SMALL_FIG4 = Fig4Config(
    runs=1, length=4_000, multiples=(1, 10, 40), method="exact", noisy=True
)
SMALL_FIG5 = Fig5Config(sizes=(2_048, 4_096), repeats=1, sketch_dimensions=8)
SMALL_FIG6 = Fig6Config(
    runs=1, length=5_000, ratios=(0.0, 0.3), combos=("R", "D")
)
SMALL_TABLE1 = Table1Config(
    retail_days=120, power_days=200, retail_max_period=200,
    thresholds=(90, 70, 50, 30),
)
SMALL_TABLE2 = Table2Config(retail_days=120, power_days=200, thresholds=(90, 70, 50))
SMALL_TABLE3 = Table3Config(retail_days=120, top=6, max_arity=6)


class TestWorkloads:
    def test_paper_configs_cross(self):
        labels = {c.label for c in PAPER_CONFIGS}
        assert labels == {"U, P=25", "N, P=25", "U, P=32", "N, P=32"}

    def test_periods_for_caps_at_half_length(self):
        config = SyntheticConfig("uniform", 25, length=100)
        assert config.periods_for([1, 2, 3]) == [25, 50]

    def test_periods_for_rejects_all_too_large(self):
        config = SyntheticConfig("uniform", 60, length=100)
        with pytest.raises(ValueError):
            config.periods_for([1])

    def test_multiples_shorthand(self):
        config = SyntheticConfig("normal", 10, length=200)
        assert config.multiples(3) == [10, 20, 30]


class TestFig3:
    def test_inerrant_confidence_is_one(self):
        series = run_fig3(SMALL_FIG3)
        assert set(series) == {c.label for c in PAPER_CONFIGS}
        for curve in series.values():
            for confidence in curve.values():
                assert confidence == pytest.approx(1.0)

    def test_noisy_confidence_high_and_unbiased(self):
        config = Fig3Config(
            runs=1, length=5_000, multiples=(1, 2, 3), noisy=True, noise_ratio=0.15
        )
        series = run_fig3(config)
        for curve in series.values():
            values = list(curve.values())
            assert all(v > 0.6 for v in values)       # paper: above 70%-ish
            assert max(values) - min(values) < 0.15   # unbiased in the period

    def test_render_contains_title_and_labels(self):
        text = render_fig3(run_fig3(SMALL_FIG3), SMALL_FIG3)
        assert "Fig. 3" in text and "U, P=25" in text


class TestFig4:
    def test_bias_toward_large_periods(self):
        series = run_fig4(SMALL_FIG4)
        for curve in series.values():
            multiples = sorted(curve)
            assert curve[multiples[-1]] > curve[multiples[0]]


class TestFig5:
    def test_miner_outperforms_trends(self):
        rows = run_fig5(SMALL_FIG5)
        assert len(rows) == 2
        for row in rows:
            assert row.miner_seconds < row.trends_seconds

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            run_fig5(Fig5Config(sizes=()))


class TestFig6:
    def test_replacement_degrades_gracefully_deletion_collapses(self):
        series = run_fig6(SMALL_FIG6)
        assert series["R"][0.0] == pytest.approx(1.0)
        assert series["R"][0.3] > 0.4
        assert series["D"][0.3] < 0.3
        assert series["R"][0.3] > series["D"][0.3]


class TestTable1:
    def test_structure_and_nesting(self):
        results = run_table1(SMALL_TABLE1)
        for rows in results.values():
            counts = [r.period_count for r in rows]
            assert counts == sorted(counts)  # thresholds descend, counts grow

    def test_expected_periods_detected(self):
        results = run_table1(SMALL_TABLE1)
        retail_50 = next(
            r for r in results["retail"] if r.threshold_percent == 50
        )
        assert retail_50.period_count > 0
        power_50 = next(r for r in results["power"] if r.threshold_percent == 50)
        assert power_50.period_count > 0

    def test_rejects_empty_thresholds(self):
        with pytest.raises(ValueError):
            run_table1(Table1Config(thresholds=()))


class TestTable2:
    def test_counts_shrink_with_threshold(self):
        results = run_table2(SMALL_TABLE2)
        for rows in results.values():
            counts = {r.threshold_percent: r.pattern_count for r in rows}
            assert counts[90] <= counts[70] <= counts[50]

    def test_retail_overnight_very_low_patterns(self):
        results = run_table2(SMALL_TABLE2)
        at_70 = next(r for r in results["retail"] if r.threshold_percent == 70)
        symbols = {s for s, _ in at_70.sample_patterns}
        assert "a" in symbols  # the very-low overnight hours


class TestTable3:
    def test_patterns_meet_threshold(self):
        result = run_table3(SMALL_TABLE3)
        assert result.patterns
        for pattern in result.patterns:
            assert pattern.support >= SMALL_TABLE3.psi - 1e-9

    def test_display_selection_prefers_deep_patterns(self):
        result = run_table3(SMALL_TABLE3)
        shown = select_display_patterns(result, SMALL_TABLE3.period, SMALL_TABLE3.top)
        assert shown
        arities = [p.arity for p in shown]
        assert arities == sorted(arities, reverse=True) or len(set(arities)) > 1
        assert all(p.arity >= 2 for p in shown)


class TestRenderers:
    """The renderers format the result they are handed; nothing runs."""

    def test_figure_titles_follow_the_config(self):
        series = {"U, P=25": {1: 1.0, 2: 0.5}}
        assert render_fig3(series, Fig3Config(noisy=True)).startswith(
            "Fig. 3(b) Noisy Data"
        )
        assert render_fig4(series, Fig4Config()).startswith("Fig. 4(a) Inerrant Data")
        text = render_fig6({"R": {0.0: 1.0}}, Fig6Config(distribution="normal", period=32))
        assert text.splitlines()[0] == "Fig. 6 (Normal, Period=32): resilience to noise"
        assert "0.500" in render_fig3(series, Fig3Config())

    def test_fig5_speedup_column(self):
        text = render_fig5([Fig5Row(size=4_096, miner_seconds=0.01, trends_seconds=0.2)])
        assert text.splitlines()[-1].split() == ["4096", "0.0100", "0.2000", "20.0x"]

    def test_tables_render_both_datasets(self):
        text = render_table1(
            {
                "retail": [Table1Row(70, 2, (24, 168))],
                "power": [Table1Row(90, 0, ())],
            }
        )
        assert "Table 1 (Wal-Mart-like data)" in text and "24, 168" in text
        assert text.splitlines()[-1].split() == ["90", "0", "-"]
        config = Table2Config(retail_period=24, power_period=7)
        text = render_table2(
            {
                "retail": [Table2Row(80, 1, (("a", 3),))],
                "power": [Table2Row(80, 0, ())],
            },
            config,
        )
        assert "period=24" in text and "period=7" in text and "(a,3)" in text


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_missing_points(self):
        text = format_series({"x": {1: 0.5}, "y": {2: 0.7}}, "k", "v")
        assert "-" in text
