"""repro — obscure periodic pattern mining in one pass.

A complete reproduction of *"Using Convolution to Mine Obscure Periodic
Patterns in One Pass"* (Elfeky, Aref, Elmagarmid — EDBT 2004): the
convolution-based one-pass miner, a scalable counting twin, the baselines
it is compared against, data simulators for its (proprietary) evaluation
datasets, and the harness regenerating each of its tables and figures.

Quickstart::

    from repro import SymbolSequence, mine

    T = SymbolSequence.from_string("abcabbabcb")
    result = mine(T, psi=2 / 3)
    for pattern in result.patterns_for(3):
        print(pattern.to_string(result.alphabet), pattern.support)

Sub-packages:

* :mod:`repro.core` — data model, the threaded count kernel, both
  miners, pattern mining;
* :mod:`repro.convolution` — FFT / big-integer / direct convolution engines;
* :mod:`repro.baselines` — periodic trends, Ma-Hellerstein, Han-style
  partial miner, brute-force oracle;
* :mod:`repro.data` — synthetic generator, noise models, discretizers,
  CIMEG/Wal-Mart-like simulators;
* :mod:`repro.streaming` — chunked readers, the online miner, the
  sliding window and the drift monitor;
* :mod:`repro.analysis` — confidence and timing harnesses;
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .core import (
    Alphabet,
    ConvolutionMiner,
    DONT_CARE,
    ENGINES,
    Engine,
    MiningResult,
    PeriodicPattern,
    PeriodicityTable,
    SpectralMiner,
    SymbolPeriodicity,
    SymbolSequence,
    mine,
    mine_patterns,
)
from .streaming import ChunkedReader, OnlineMiner
from .pipeline import PeriodicityPipeline, PipelineReport

__version__ = "1.0.0"

__all__ = [
    "Alphabet",
    "ConvolutionMiner",
    "DONT_CARE",
    "ENGINES",
    "Engine",
    "MiningResult",
    "PeriodicPattern",
    "PeriodicityTable",
    "SpectralMiner",
    "SymbolPeriodicity",
    "SymbolSequence",
    "mine",
    "mine_patterns",
    "ChunkedReader",
    "OnlineMiner",
    "PeriodicityPipeline",
    "PipelineReport",
    "__version__",
]
