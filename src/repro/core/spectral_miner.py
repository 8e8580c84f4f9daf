"""Scalable FFT miner producing the same evidence as the exact miner.

The paper's exact convolution carries one witness power of two per
match, which forces big-integer arithmetic.  This miner keeps the
algorithmic idea — *one* batch of FFT correlations answers every shift
at once — but replaces the witness bookkeeping with two cheap stages:

1. **Spectral stage.**  For every symbol ``s_k`` the FFT
   autocorrelation of its 0/1 indicator vector gives the aggregate
   match counts ``M_k(p) = |{j : t_j = t_{j+p} = s_k}|`` for *all*
   shifts ``p`` simultaneously — ``O(sigma n log n)`` total, one pass
   over the data.  Because ``F2(s_k, pi_{p,l}) <= M_k(p)`` and the
   support denominator is at least ``min_pairs(p)``, any ``(k, p)``
   with ``M_k(p) / min_pairs(p) < psi`` can be discarded without ever
   looking at positions.
2. **Residue stage.**  For each period with a surviving ``(k, p)`` the
   per-position split ``F2(s_k, pi_{p,l})`` is one shifted compare of
   the codes and a bincount of the match positions by ``(k, j mod p)``
   (the exact miner's kernel); pruned symbols' entries are dropped.
   Each period hands its non-zero keys ``k * p + l`` and counts to
   :meth:`PeriodicityTable.from_period_keys`, which concatenates them
   into the table's columns once.

On periodic data almost every ``(k, p)`` dies in stage 1, so the total
work stays near the FFT cost; the adversarial worst case (a constant
series, where every shift of every symbol survives) degrades to the
quadratic residue stage, which ``max_period`` bounds.

With ``psi = None`` (or ``psi`` close to 0) the miner returns the full,
unpruned evidence and is then *exactly* interchangeable with
:class:`repro.core.convolution_miner.ConvolutionMiner` — the test suite
asserts equality of the tables.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..convolution.external import blocked_match_counts
from ..convolution.fft import correlate_fft
from .periodicity import PeriodicityTable
from .projection import f2_counts_for_period, narrow_codes, projection_pairs_array
from .sequence import SymbolSequence

__all__ = ["SpectralMiner"]


class SpectralMiner:
    """FFT-based miner, interchangeable with the exact convolution miner.

    Parameters
    ----------
    psi:
        Pruning threshold for the spectral stage.  ``None`` disables
        pruning (full table, exact-miner parity).  When set, the table
        only retains ``(period, symbol)`` cells that could reach support
        ``psi`` — mining with any threshold ``>= psi`` is unaffected.
    max_period:
        Largest period to analyse; defaults to ``n // 2``.
    use_numpy_fft:
        Use numpy's C FFT (default) or the package's from-scratch
        transform.  Identical results, different speed.
    """

    def __init__(
        self,
        psi: float | None = None,
        max_period: int | None = None,
        use_numpy_fft: bool = True,
    ) -> None:
        if psi is not None and not 0 < psi <= 1:
            raise ValueError("psi must be in (0, 1] or None")
        self._psi = psi
        self._max_period = max_period
        self._use_numpy_fft = use_numpy_fft

    # -- stage 1: aggregate match counts ---------------------------------------

    def match_counts(self, series: SymbolSequence) -> np.ndarray:
        """``M_k(p)`` for every symbol and every shift ``0..max_period``.

        Shape ``(sigma, max_period + 1)``; column 0 holds occurrence
        counts.  This is the quantity one batch of FFT autocorrelations
        yields for all shifts at once.
        """
        n = series.length
        max_period = self._resolve_max_period(n)
        counts = np.zeros((series.sigma, max_period + 1), dtype=np.int64)
        if n == 0:
            return counts
        for k in range(series.sigma):
            indicator = series.indicator(k)
            if not indicator.any():
                continue
            corr = correlate_fft(indicator, use_numpy=self._use_numpy_fft)
            upto = min(max_period + 1, corr.size)
            counts[k, :upto] = np.rint(corr[:upto]).astype(np.int64)
        return counts

    def candidate_period_symbols(
        self, series: SymbolSequence, psi: float
    ) -> list[tuple[int, int]]:
        """Periodicity-detection phase only: plausible ``(period, symbol)``.

        Returns the ``(p, k)`` pairs whose aggregate match count admits a
        support ``>= psi`` at some position — everything the spectral
        stage alone can decide, and the natural unit for the Fig. 5
        timing comparison (the periodic-trends baseline likewise only
        nominates periods, not positions).
        """
        if not 0 < psi <= 1:
            raise ValueError("psi must be in (0, 1]")
        n = series.length
        max_period = self._resolve_max_period(n)
        if max_period < 1:
            return []
        counts = self.match_counts(series)
        eligible = counts / _min_pairs(n, max_period + 1) >= psi
        eligible[:, 0] = False
        ks, ps = np.nonzero(eligible)
        return sorted((int(p), int(k)) for k, p in zip(ks, ps))

    # -- full mining --------------------------------------------------------------

    def periodicity_table(self, series: SymbolSequence) -> PeriodicityTable:
        """Mine the ``F2`` evidence table (pruned only if ``psi`` is set)."""
        n = series.length
        max_period = self._resolve_max_period(n)
        if n < 2 or max_period < 1:
            return PeriodicityTable(n, series.alphabet, {})
        return self._residue_table(series, self.match_counts(series))

    def periodicity_table_out_of_core(
        self,
        code_blocks: Iterable[np.ndarray],
        series_for_residues: SymbolSequence,
    ) -> PeriodicityTable:
        """Variant running stage 1 through the blocked external kernel.

        ``code_blocks`` streams the same codes held by
        ``series_for_residues``; stage 1 then never materialises more
        than one block, demonstrating the paper's external-FFT remark.
        Stage 2 still needs the series (it is position-local and cheap).
        """
        n = series_for_residues.length
        max_period = self._resolve_max_period(n)
        if n < 2 or max_period < 1:
            return PeriodicityTable(n, series_for_residues.alphabet, {})
        match_counts = blocked_match_counts(
            code_blocks, series_for_residues.sigma, max_period
        )
        return self._residue_table(series_for_residues, match_counts)

    # -- internals -------------------------------------------------------------------

    def _resolve_max_period(self, n: int) -> int:
        max_period = n // 2 if self._max_period is None else self._max_period
        if self._max_period is not None and self._max_period < 1:
            raise ValueError("max_period must be >= 1")
        return min(max_period, n - 1) if n > 1 else 0

    def _residue_table(
        self, series: SymbolSequence, match_counts: np.ndarray
    ) -> PeriodicityTable:
        """Stage 2: split the surviving ``(k, p)`` cells by ``l = j mod p``.

        One shifted compare per period with a surviving symbol
        (:func:`repro.core.projection.f2_counts_for_period`); the
        pruned symbols' entries are dropped from its count vector and
        its non-zero keys go straight into the table's columns.  The
        bound compares ``M_k(p) / min_pairs(p)``, not
        ``psi * min_pairs(p)``: correctly rounded division is monotone,
        so a support that rounds to exactly ``psi`` is never pruned.
        """
        n, sigma = series.length, series.sigma
        if self._psi is None:
            keep = match_counts > 0
        else:
            keep = match_counts / _min_pairs(n, match_counts.shape[1]) >= self._psi
        keep[:, 0] = False
        codes = narrow_codes(series.codes, sigma)
        parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for p in np.flatnonzero(keep.any(axis=0)).tolist():
            vector = f2_counts_for_period(codes, sigma, p)
            vector.reshape(sigma, p)[~keep[:, p]] = 0
            keys = np.flatnonzero(vector)
            parts[p] = (keys, vector[keys])
        return PeriodicityTable.from_period_keys(n, series.alphabet, parts)


def _min_pairs(n: int, size: int) -> np.ndarray:
    """Fewest adjacent pairs of any projection, for shifts ``0 .. size - 1``.

    The support denominator of period ``p`` is smallest at position
    ``l = p - 1``; it is clamped to 1 so the bound never divides by 0.
    Shift 0 is no period; its entry is only a placeholder.
    """
    periods = np.maximum(np.arange(size), 1)
    return np.maximum(projection_pairs_array(n, periods, periods - 1), 1)
