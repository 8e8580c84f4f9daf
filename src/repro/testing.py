"""Public test helpers for downstream users of the library.

Code that builds on ``repro`` will want to test its own periodicity
logic; these helpers wrap the brute-force oracle this repository's own
suite checks every miner against, exported as a stable surface (the
``numpy.testing`` pattern):

* :func:`random_series` — reproducible random symbol series;
* :func:`oracle_table` — the brute-force evidence table (slow, exact);
* :func:`assert_tables_equal` — rich diff on evidence mismatch;
* :func:`assert_miner_correct` — one-call conformance check for any
  object with a ``periodicity_table(series)`` method.
"""

from __future__ import annotations

import numpy as np

from .baselines.brute_force import brute_force_table
from .core.alphabet import Alphabet
from .core.periodicity import PeriodicityTable
from .core.sequence import SymbolSequence

__all__ = [
    "random_series",
    "oracle_table",
    "assert_tables_equal",
    "assert_miner_correct",
]


def random_series(
    n: int,
    sigma: int,
    seed: int | np.random.Generator = 0,
) -> SymbolSequence:
    """A reproducible i.i.d. uniform series of ``n`` symbols."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    codes = rng.integers(0, sigma, size=n).astype(np.int64)
    return SymbolSequence.from_codes(codes, Alphabet.of_size(sigma))


def oracle_table(
    series: SymbolSequence, max_period: int | None = None
) -> PeriodicityTable:
    """The ground-truth evidence table by exhaustive comparison."""
    return brute_force_table(series, max_period=max_period)


def assert_tables_equal(
    actual: PeriodicityTable, expected: PeriodicityTable
) -> None:
    """Assert two evidence tables are identical, with a useful diff."""
    if actual == expected:
        return
    problems: list[str] = []
    if actual.n != expected.n:
        problems.append(f"n: {actual.n} != {expected.n}")
    if actual.alphabet != expected.alphabet:
        problems.append("alphabets differ")
    periods = sorted(set(actual.periods) | set(expected.periods))
    for p in periods:
        got = actual.counts_for(p)
        want = expected.counts_for(p)
        if got != want:
            missing = {k: v for k, v in want.items() if got.get(k) != v}
            extra = {k: v for k, v in got.items() if want.get(k) != v}
            problems.append(
                f"period {p}: expected-but-wrong {missing}, got-but-wrong {extra}"
            )
        if len(problems) > 6:
            problems.append("... (truncated)")
            break
    raise AssertionError("evidence tables differ:\n  " + "\n  ".join(problems))


def assert_miner_correct(
    miner,
    trials: int = 10,
    max_length: int = 60,
    max_sigma: int = 5,
    seed: int = 0,
) -> None:
    """Conformance-check anything exposing ``periodicity_table(series)``.

    Runs the miner against the brute-force oracle on ``trials``
    reproducible random series; raises on the first mismatch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(2, max_length + 1))
        sigma = int(rng.integers(1, max_sigma + 1))
        series = random_series(n, sigma, rng)
        try:
            assert_tables_equal(miner.periodicity_table(series), oracle_table(series))
        except AssertionError as error:
            raise AssertionError(
                f"miner diverged from the oracle on trial {trial} "
                f"(n={n}, sigma={sigma}): {error}"
            ) from None
