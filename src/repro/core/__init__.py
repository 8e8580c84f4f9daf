"""Core model and miners: the paper's primary contribution.

Public surface:

* data model — :class:`Alphabet`, :class:`SymbolSequence`, projections;
* evidence — :class:`SymbolPeriodicity`, :class:`PeriodicityTable`;
* miners — :class:`ConvolutionMiner` (exact, Fig. 2 of the paper) and
  :class:`SpectralMiner` (threaded count kernel with a ``psi`` bound,
  identical output, plus the FFT period detector);
* patterns — :class:`PeriodicPattern`, candidate generation, and the
  :func:`mine` facade returning a :class:`MiningResult`.
"""

from .alphabet import Alphabet
from .sequence import SymbolSequence
from .projection import (
    f2,
    f2_projection,
    projection,
    projection_length,
    projection_pairs,
)
from .mapping import (
    Witness,
    binary_vector,
    binary_vector_bits,
    decode_witness,
    witness_power,
)
from .periodicity import PeriodicityTable, SymbolPeriodicity
from .convolution_miner import ENGINES, ConvolutionMiner, Engine
from .spectral_miner import SpectralMiner
from .patterns import DONT_CARE, PeriodicPattern
from .candidates import (
    cartesian_candidates,
    levelwise,
    mine_patterns,
    pattern_support,
    segment_match_matrix,
    single_symbol_patterns,
)
from .results import MiningResult, mine
from .segment import segment_supports
from .pattern_text import parse_pattern, segment_matches

__all__ = [
    "Alphabet",
    "SymbolSequence",
    "f2",
    "f2_projection",
    "projection",
    "projection_length",
    "projection_pairs",
    "Witness",
    "binary_vector",
    "binary_vector_bits",
    "decode_witness",
    "witness_power",
    "PeriodicityTable",
    "SymbolPeriodicity",
    "ConvolutionMiner",
    "Engine",
    "ENGINES",
    "SpectralMiner",
    "DONT_CARE",
    "PeriodicPattern",
    "cartesian_candidates",
    "levelwise",
    "mine_patterns",
    "pattern_support",
    "segment_match_matrix",
    "single_symbol_patterns",
    "MiningResult",
    "mine",
    "segment_supports",
    "parse_pattern",
    "segment_matches",
]
