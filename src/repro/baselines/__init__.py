"""Baselines: comparison algorithms the paper cites, plus an oracle.

* :mod:`repro.baselines.periodic_trends` — Indyk et al. sketch ranking
  (the paper's experimental comparator, Figs. 4 and 5);
* :mod:`repro.baselines.sketch` — its random-projection substrate;
* :mod:`repro.baselines.ma_hellerstein` — linear inter-arrival detector;
* :mod:`repro.baselines.han_partial` — known-period partial pattern
  miner (a multi-pass pipeline's second pass);
* :mod:`repro.baselines.brute_force` — quadratic oracle for testing.
"""

from .brute_force import brute_force_table
from .sketch import SelfDistanceSketch, exact_self_distances
from .periodic_trends import PeriodicTrends, TrendsResult
from .ma_hellerstein import MaHellerstein, PeriodCandidate, chi_squared_threshold
from .han_partial import HanPartialMiner
from .warping import WarpingDetector, banded_edit_distance
from .max_subpattern import MaxSubpatternMiner, MaxSubpatternTree
from .asynchronous import AsynchronousMiner, ValidSubsequence
from .merge_mining import MergeMiner, merge_trees

__all__ = [
    "brute_force_table",
    "SelfDistanceSketch",
    "exact_self_distances",
    "PeriodicTrends",
    "TrendsResult",
    "MaHellerstein",
    "PeriodCandidate",
    "chi_squared_threshold",
    "HanPartialMiner",
    "WarpingDetector",
    "banded_edit_distance",
    "MaxSubpatternMiner",
    "MaxSubpatternTree",
    "AsynchronousMiner",
    "ValidSubsequence",
    "MergeMiner",
    "merge_trees",
]
