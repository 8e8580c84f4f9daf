"""Pruned evidence miner: the exact count kernel plus a support bound.

The paper reads every witness off ``X & (X >> sigma p)`` — the shifted
compare ``t_j = t_{j+p}`` — and this miner builds its table the same
way: one :func:`repro.core.projection.f2_keys` call counts
``F2(s_k, pi_{p,l})`` for every ``(k, l)`` of every period on a thread
pool (the kernel and pool of ``engine="parallel"``).

With ``psi`` set, the table keeps only the ``(k, p)`` cells that could
reach support ``psi``.  The aggregate match count
``M_k(p) = |{j : t_j = t_{j+p} = s_k}|`` is the row sum
``sum_l F2(s_k, pi_{p,l})`` of the counts the kernel already returned,
and since ``F2 <= M_k(p)`` while every projection of period ``p`` has at
least ``min_pairs(p)`` adjacent pairs, any ``(k, p)`` with
``M_k(p) / min_pairs(p) < psi`` is dropped.  The bound only shrinks the
table; it saves no compare work.

The FFT is the *detector*: :meth:`SpectralMiner.match_counts` yields
``M_k(p)`` for every shift at once from one batched autocorrelation of
the symbol indicators, without looking at positions.  It serves
:meth:`SpectralMiner.candidate_period_symbols` (the Fig. 5 comparison
with the periodic-trends baseline) and the segment supports.

With ``psi = None`` the miner returns the full evidence and is then
*exactly* interchangeable with
:class:`repro.core.convolution_miner.ConvolutionMiner` — the test suite
asserts equality of the tables.
"""

from __future__ import annotations

import numpy as np

from ..convolution.fft import _smooth_size, correlate_fft
from .periodicity import PeriodicityTable
from .projection import f2_keys, projection_pairs_array, resolve_max_period
from .sequence import SymbolSequence, whole

__all__ = ["SpectralMiner"]

#: float64 elements per batch of indicator rows in :meth:`match_counts`;
#: keeps each transform array near 32 MB at any ``sigma``.
_FFT_BATCH_ELEMENTS = 1 << 22


class SpectralMiner:
    """Exact-kernel miner with an optional support bound and an FFT detector.

    Parameters
    ----------
    psi:
        Bound for the table.  ``None`` keeps every cell (full table,
        exact-miner parity).  When set, the table only retains
        ``(period, symbol)`` cells that could reach support ``psi`` —
        mining with any threshold ``>= psi`` is unaffected.
    max_period:
        Largest period to analyse; defaults to ``n // 2``.
    workers:
        Thread cap of the count kernel (default: CPU count), as for
        ``ConvolutionMiner(engine="parallel")``.
    """

    def __init__(
        self,
        psi: float | None = None,
        max_period: int | None = None,
        workers: int | None = None,
    ) -> None:
        if psi is not None and not 0 < psi <= 1:
            raise ValueError("psi must be in (0, 1] or None")
        if workers is not None and whole("workers", workers) < 1:
            raise ValueError("workers must be >= 1")
        self._psi = psi
        self._max_period = max_period
        self._workers = workers

    # -- detector: aggregate match counts ---------------------------------------

    def match_counts(self, series: SymbolSequence) -> np.ndarray:
        """``M_k(p)`` for every symbol and every shift ``0..max_period``.

        Shape ``(sigma, max_period + 1)``; column 0 holds occurrence
        counts.  One batched :func:`correlate_fft` of the indicator rows
        gives every row's autocorrelation.
        """
        n = series.length
        max_period = resolve_max_period(n, self._max_period)
        counts = np.zeros((series.sigma, max_period + 1), dtype=np.int64)
        if n == 0:
            return counts
        rows = max(1, _FFT_BATCH_ELEMENTS // _smooth_size(n + max_period))
        for lo in range(0, series.sigma, rows):
            symbols = np.arange(lo, min(lo + rows, series.sigma))
            indicators = series.codes == symbols[:, None]
            counts[symbols] = np.rint(correlate_fft(indicators, None, max_period))
        return counts

    def candidate_period_symbols(
        self, series: SymbolSequence, psi: float
    ) -> list[tuple[int, int]]:
        """Periodicity-detection phase only: plausible ``(period, symbol)``.

        Returns the ``(p, k)`` pairs whose aggregate match count admits a
        support ``>= psi`` at some position — everything the detector
        alone can decide, and the natural unit for the Fig. 5 timing
        comparison (the periodic-trends baseline likewise only
        nominates periods, not positions).
        """
        if not 0 < psi <= 1:
            raise ValueError("psi must be in (0, 1]")
        n = series.length
        max_period = resolve_max_period(n, self._max_period)
        if max_period < 1:
            return []
        counts = self.match_counts(series)
        eligible = counts / _min_pairs(n, max_period + 1) >= psi
        eligible[:, 0] = False
        ks, ps = np.nonzero(eligible)
        return sorted((int(p), int(k)) for k, p in zip(ks, ps))

    # -- full mining --------------------------------------------------------------

    def periodicity_table(self, series: SymbolSequence) -> PeriodicityTable:
        """Mine the ``F2`` evidence table (bounded only if ``psi`` is set).

        The bound divides the exact ``M_k(p)`` by ``min_pairs(p)``
        rather than comparing with ``psi * min_pairs(p)``: correctly
        rounded division is monotone, so a support that rounds to
        exactly ``psi`` is never dropped.
        """
        n, sigma = series.length, series.sigma
        max_period = resolve_max_period(n, self._max_period)
        parts = f2_keys(series.codes, sigma, max_period, self._workers)
        if self._psi is not None:
            min_pairs = _min_pairs(n, max_period + 1)
            for p, (keys, counts) in parts.items():
                symbols = keys // p
                # M_k(p) as exact integers in float64, the dtype of the
                # division either way.
                totals = np.bincount(symbols, weights=counts, minlength=sigma)
                keep = (totals / min_pairs[p] >= self._psi)[symbols]
                parts[p] = (keys[keep], counts[keep])
        return PeriodicityTable.from_period_keys(n, series.alphabet, parts)


def _min_pairs(n: int, size: int) -> np.ndarray:
    """Fewest adjacent pairs of any projection, for shifts ``0 .. size - 1``.

    The support denominator of period ``p`` is smallest at position
    ``l = p - 1``; it is clamped to 1 so the bound never divides by 0.
    Shift 0 is no period; its entry is only a placeholder.
    """
    periods = np.maximum(np.arange(size), 1)
    return np.maximum(projection_pairs_array(n, periods, periods - 1), 1)
