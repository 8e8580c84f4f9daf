"""Ablation — cost of the exact (paper-faithful) miner.

DESIGN.md documents why the library ships two miners: the paper's exact
convolution carries Theta(n)-bit witnesses, so its real cost grows
super-linearly however it is evaluated.  This bench times the exact
miner's two engines against the spectral miner on the same series and
asserts they remain interchangeable in output while diverging in cost.
"""

import numpy as np
import pytest

from repro.core import Alphabet, ConvolutionMiner, SpectralMiner, SymbolSequence

N = 1_200
SIGMA = 4
MAX_PERIOD = 100


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(2004)
    return SymbolSequence.from_codes(
        rng.integers(0, SIGMA, size=N).astype(np.int64), Alphabet.of_size(SIGMA)
    )


@pytest.mark.benchmark(group="ablation-bigint")
def test_exact_bitand_engine(benchmark, series):
    miner = ConvolutionMiner(engine="bitand", max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_exact_kronecker_engine(benchmark, series):
    miner = ConvolutionMiner(engine="kronecker", max_period=MAX_PERIOD)
    table = benchmark.pedantic(
        lambda: miner.periodicity_table(series), rounds=1, iterations=1
    )
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_spectral_miner_same_series(benchmark, series):
    miner = SpectralMiner(max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_all_three_identical_output(benchmark, series):
    def run():
        return (
            ConvolutionMiner(engine="bitand", max_period=MAX_PERIOD).periodicity_table(series),
            ConvolutionMiner(engine="kronecker", max_period=MAX_PERIOD).periodicity_table(series),
            SpectralMiner(max_period=MAX_PERIOD).periodicity_table(series),
        )

    bitand, kronecker, spectral = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bitand == kronecker == spectral
