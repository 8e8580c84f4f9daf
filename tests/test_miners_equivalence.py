"""Property-based equivalence: both miners == the brute-force oracle.

The central correctness property of the reproduction: the paper's exact
convolution miner (both engines), the scalable spectral miner, and the
naive shift-and-compare oracle all compute the same F2 evidence for
every series.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_table
from repro.core import ConvolutionMiner, SpectralMiner

from conftest import series_strategy


@settings(max_examples=80, deadline=None)
@given(series=series_strategy(min_size=2, max_size=50))
def test_exact_miner_equals_oracle(series):
    assert ConvolutionMiner().periodicity_table(series) == brute_force_table(series)


@settings(max_examples=80, deadline=None)
@given(series=series_strategy(min_size=2, max_size=50))
def test_spectral_miner_equals_oracle(series):
    assert SpectralMiner().periodicity_table(series) == brute_force_table(series)


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=40))
def test_kronecker_engine_equals_oracle(series):
    miner = ConvolutionMiner(engine="kronecker")
    assert miner.periodicity_table(series) == brute_force_table(series)


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=40))
def test_parallel_engine_equals_oracle(series):
    """The threaded count path is exact too."""
    miner = ConvolutionMiner(engine="parallel", workers=2)
    assert miner.periodicity_table(series) == brute_force_table(series)


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=50), cap=st.integers(1, 12))
def test_max_period_restriction_consistent(series, cap):
    """Capped miners agree with the capped oracle."""
    exact = ConvolutionMiner(max_period=cap).periodicity_table(series)
    spectral = SpectralMiner(max_period=cap).periodicity_table(series)
    oracle = brute_force_table(series, max_period=cap)
    assert exact == oracle
    assert spectral == oracle


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=4, max_size=40))
def test_alphabet_permutation_invariance(series):
    """Relabelling symbols permutes the evidence but not its structure."""
    from repro.core import Alphabet, SymbolSequence

    sigma = series.sigma
    permuted_codes = (series.codes + 1) % sigma
    permuted = SymbolSequence.from_codes(permuted_codes, Alphabet.of_size(sigma))
    original = ConvolutionMiner().periodicity_table(series)
    relabelled = ConvolutionMiner().periodicity_table(permuted)
    for p in set(original.periods) | set(relabelled.periods):
        source = original.counts_for(p)
        target = relabelled.counts_for(p)
        mapped = {((k + 1) % sigma, l): v for (k, l), v in source.items()}
        assert mapped == target


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=40))
def test_confidence_bounded_by_one(series):
    table = SpectralMiner().periodicity_table(series)
    for p in table.periods:
        assert 0.0 <= table.confidence(p) <= 1.0
