"""Tests for repro.core.results — the mine() facade."""

import pytest

from repro.core import (
    ConvolutionMiner,
    MiningResult,
    SpectralMiner,
    SymbolSequence,
    mine,
)


class TestMineOptionChecks:
    """Every bad option raises, naming its argument, before any table."""

    SERIES = SymbolSequence.from_string("abcab" * 20)  # n = 100

    @pytest.fixture
    def no_table(self, monkeypatch):
        def build(self, series):
            raise AssertionError("a table was built")

        for miner in (SpectralMiner, ConvolutionMiner):
            monkeypatch.setattr(miner, "periodicity_table", build)

    @pytest.mark.parametrize(
        "options, error, message",
        [
            ({"psi": 1.5}, ValueError, r"psi must be in \(0, 1\], got 1.5"),
            ({"psi": 1.5, "algorithm": "convolution", "max_period": 30},
             ValueError, "psi must be in"),
            ({"max_arity": 0}, ValueError, "max_arity must be >= 1"),
            ({"max_arity": -3}, ValueError, "max_arity must be >= 1"),
            ({"max_period": 30, "periods": [0]}, ValueError,
             "periods entry 0 is outside 1..30"),
            ({"max_period": 30, "periods": [5, 40]}, ValueError,
             "periods entry 40 is outside 1..30"),
            ({"periods": [51]}, ValueError, "periods entry 51 is outside 1..50"),
            ({"max_period": 2.5}, TypeError, "max_period must be an integer"),
            ({"max_arity": 2.5}, TypeError, "max_arity must be an integer"),
            ({"workers": 2.5}, TypeError, "workers must be an integer"),
            ({"periods": [2.5]}, TypeError, "periods entry must be an integer"),
        ],
        ids=["psi", "psi-convolution", "max-arity-zero", "max-arity-negative",
             "periods-zero", "periods-above-max-period", "periods-above-n-half",
             "max-period-float", "max-arity-float", "workers-float",
             "periods-float"],
    )
    def test_rejected_before_any_table(self, no_table, options, error, message):
        kwargs = {"psi": 0.5, **options}
        with pytest.raises(error, match=message):
            mine(self.SERIES, **kwargs)

    def test_no_periods_is_valid(self):
        result = mine(self.SERIES, psi=0.5, max_period=30, periods=[])
        assert result.patterns == ()
        assert result.candidate_periods  # the table is still mined


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
