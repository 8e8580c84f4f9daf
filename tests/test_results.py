"""Tests for repro.core.results — the mine() facade."""

import pytest

from repro.core import MiningResult, SpectralMiner, SymbolSequence, mine


class TestMineFacade:
    def test_paper_example_spectral(self, paper_series):
        result = mine(paper_series, psi=2 / 3)
        rendered = sorted(
            p.to_string(result.alphabet) for p in result.patterns_for(3)
        )
        assert rendered == ["*b*", "a**", "ab*"]

    def test_paper_example_convolution(self, paper_series):
        result = mine(paper_series, psi=2 / 3, algorithm="convolution")
        rendered = sorted(
            p.to_string(result.alphabet) for p in result.patterns_for(3)
        )
        assert rendered == ["*b*", "a**", "ab*"]

    def test_algorithms_agree(self, paper_series):
        spectral = mine(paper_series, psi=0.5)
        convolution = mine(paper_series, psi=0.5, algorithm="convolution")
        assert {(p.period, p.slots) for p in spectral.patterns} == {
            (p.period, p.slots) for p in convolution.patterns
        }

    def test_unknown_algorithm(self, paper_series):
        with pytest.raises(ValueError):
            mine(paper_series, psi=0.5, algorithm="magic")

    def test_unknown_engine_rejected_for_spectral(self, paper_series):
        with pytest.raises(ValueError, match="unknown engine"):
            mine(paper_series, psi=0.5, engine="bogus")

    def test_zero_workers_rejected_for_spectral(self, paper_series):
        with pytest.raises(ValueError, match="workers"):
            mine(paper_series, psi=0.5, workers=0)

    def test_options_checked_with_a_given_table(self, paper_series):
        table = mine(paper_series, psi=0.5).table
        with pytest.raises(ValueError, match="unknown algorithm"):
            mine(paper_series, psi=0.5, algorithm="magic", table=table)

    def test_worker_count_does_not_change_the_result(self, paper_series):
        for algorithm, engine in (("spectral", "bitand"), ("convolution", "parallel")):
            one = mine(paper_series, psi=0.5, algorithm=algorithm, engine=engine,
                       workers=1)
            two = mine(paper_series, psi=0.5, algorithm=algorithm, engine=engine,
                       workers=2)
            assert one == two

    def test_candidate_periods_sorted(self, paper_series):
        result = mine(paper_series, psi=0.5)
        assert list(result.candidate_periods) == sorted(result.candidate_periods)

    def test_single_patterns_subset_of_patterns(self, paper_series):
        result = mine(paper_series, psi=0.5)
        all_slots = {(p.period, p.slots) for p in result.patterns}
        for single in result.single_patterns:
            assert (single.period, single.slots) in all_slots

    def test_periods_restriction(self, paper_series):
        result = mine(paper_series, psi=0.5, periods=[3])
        assert {p.period for p in result.patterns} == {3}
        # the evidence table still covers other periods
        assert result.confidence(4) > 0

    def test_max_period_limits_table(self, paper_series):
        result = mine(paper_series, psi=0.5, max_period=3)
        assert max(result.table.periods) <= 3

    def test_given_full_table_answers_lower_thresholds(self):
        series = SymbolSequence.from_string("abcabcabcaaa")
        pruned = mine(series, psi=0.9)
        full = mine(
            series, psi=0.9,
            table=SpectralMiner(psi=None).periodicity_table(series),
        )
        assert full.periodicities == pruned.periodicities
        # the unpruned table can answer lower-threshold queries
        assert len(full.table.periodicities(0.1)) > len(
            pruned.table.periodicities(0.1)
        )

    def test_confidence_passthrough(self, paper_series):
        result = mine(paper_series, psi=0.5)
        assert result.confidence(3) == result.table.confidence(3)

    def test_render_mentions_patterns(self, paper_series):
        text = mine(paper_series, psi=2 / 3).render()
        assert "ab*" in text and "psi=" in text

    def test_render_limit(self, paper_series):
        text = mine(paper_series, psi=0.4).render(limit=1)
        assert len(text.splitlines()) == 2

    def test_result_is_frozen(self, paper_series):
        result = mine(paper_series, psi=0.5)
        with pytest.raises(AttributeError):
            result.psi = 0.9
