"""Drift monitoring of a periodicity over a live stream.

The operational companion of the sliding-window miner: watch the
confidence of one period over the recent window and raise an alarm when
it stays below a floor for several consecutive checks — the "our weekly
rhythm broke" pager for the paper's data-stream setting.

The monitor counts only the lag it watches, and it is built for the
small chunks a live feed delivers, so each call costs a fixed handful
of numpy calls on arrays no longer than one sub-chunk:

* one preallocated code buffer holds the last ``period`` codes followed
  by room for one sub-chunk; before the stream has ``period`` codes its
  head holds ``sigma``, which never equals a code, so no pad forms a
  pair.  A sub-chunk is written behind the history, compared against
  the codes ``period`` earlier in one vectorised ``!=``, and the tail
  moves to the front with one copy;
* a ``window``-slot ring remembers, for each in-window element ``e``,
  the key ``code * period + e % period`` of the pair ``(e, e + period)``
  — or the "no pair" dump key ``sigma * period`` when the two symbols
  differ.  The counters have one extra dump cell at that index, so
  keys are scattered and retracted without a mask, and the ring is read
  and written as at most two contiguous slices;
* sub-chunks end on ``check_every`` boundaries and hold at most
  ``min(check_every, window - period)`` codes, so every pair a
  sub-chunk evicts was found by an earlier one and none it finds leaves
  the window within it.

Memory is ``O(window + sigma * period)``.  Confidence reads go through
the same :func:`~repro.streaming.counts.block_confidence` as
:meth:`SlidingWindowMiner.confidence
<repro.streaming.window.SlidingWindowMiner.confidence>`, so the two
agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from ..core.alphabet import Alphabet
from ..core.sequence import whole
from .counts import block_confidence, scatter
from .online import stream_codes

__all__ = ["DriftEvent", "PeriodicityMonitor"]


@dataclass(frozen=True, slots=True)
class DriftEvent:
    """One alarm: the watched period's confidence broke the floor.

    ``position`` is the stream index at which the alarm fired;
    ``confidence`` the window confidence at that moment.
    """

    position: int
    confidence: float


def _ring_slices(first: int, size: int, length: int) -> tuple[slice, ...]:
    """The slots of elements ``first .. first + size - 1`` in a ``length`` ring.

    ``size <= length``, so that is at most two contiguous slices, in
    element order.
    """
    start = first % length
    stop = start + size
    if stop <= length:
        return (slice(start, stop),)
    return slice(start, length), slice(0, stop - length)


class PeriodicityMonitor:
    """Alarm when a period's windowed confidence drops and stays low.

    Parameters
    ----------
    alphabet:
        Stream alphabet.
    period:
        The period to watch.
    window:
        Sliding-window length (symbols).
    floor:
        Confidence floor; readings below it count toward an alarm.
    patience:
        Consecutive low checks required before an alarm fires.
    check_every:
        Run a confidence check every this many symbols.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        period: int,
        window: int | None = None,
        floor: float = 0.5,
        patience: int = 3,
        check_every: int | None = None,
    ) -> None:
        period = whole("period", period)
        patience = whole("patience", patience)
        window = 8 * period if window is None else whole("window", window)
        if check_every is None:
            check_every = period
        check_every = whole("check_every", check_every)
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0 < floor <= 1:
            raise ValueError("floor must lie in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if window <= period:
            raise ValueError("window must exceed the period")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._alphabet = alphabet
        self._period = period
        self._window = window
        self._floor = floor
        self._patience = patience
        self._check_every = check_every
        self._n = 0
        sigma = len(alphabet)
        self._dump = sigma * period  # the key of "no pair"
        self._span = min(check_every, window - period)  # longest sub-chunk
        # [0, period): the last period codes (sigma before the stream has
        # them); [period, period + span): the sub-chunk being counted.
        self._codes = np.full(period + self._span, sigma, dtype=np.int64)
        self._residues = np.arange(period + self._span) % period
        # Slot e % window: the key of the pair (e, e + period) while e is
        # in the window.
        self._pair_keys = np.full(window, self._dump, dtype=np.int64)
        self._counts = np.zeros(self._dump + 1, dtype=np.int64)
        self._low_streak = 0
        self._alarmed = False
        self._events: list[DriftEvent] = []

    # -- feeding -------------------------------------------------------------------

    @property
    def events(self) -> tuple[DriftEvent, ...]:
        """All alarms raised so far."""
        return tuple(self._events)

    @property
    def alarmed(self) -> bool:
        """Whether the monitor is currently in the alarmed state."""
        return self._alarmed

    @property
    def confidence(self) -> float:
        """Current windowed confidence of the watched period."""
        n = self._n
        block = self._counts[: self._dump].reshape(-1, self._period)
        return block_confidence(block, min(n, self._window), max(n - self._window, 0))

    def append(self, symbol: Hashable) -> DriftEvent | None:
        """Consume one symbol; returns an event iff an alarm fires now."""
        return self.append_code(self._alphabet.code(symbol))

    def append_code(self, code: int) -> DriftEvent | None:
        """Consume one symbol code; returns an event iff an alarm fires."""
        fired = self.extend_codes((code,))
        return fired[0] if fired else None

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> list[DriftEvent]:
        """Consume many codes; returns every alarm fired along the way.

        Chunked fast path: confidence checks only ever happen at stream
        positions that are multiples of ``check_every``, so the codes
        are counted in vectorised sub-chunks that end exactly on those
        boundaries (and are at most ``window - period`` long) and the
        check runs between them — the fired :class:`DriftEvent`
        sequence is identical to per-symbol feeding.
        """
        block = stream_codes(codes, len(self._alphabet))
        fired: list[DriftEvent] = []
        consumed = 0
        while consumed < block.size:
            step = min(self._check_every - self._n % self._check_every, self._span)
            upto = min(block.size, consumed + step)
            self._ingest(block[consumed:upto])
            consumed = upto
            event = self._check()
            if event is not None:
                fired.append(event)
        return fired

    def _ingest(self, chunk: np.ndarray) -> None:
        """Retract the pairs of elements leaving the window; count new ones.

        The chunk holds stream indices ``first .. end - 1``, at most
        ``min(check_every, window - period)`` of them.  It pairs the
        earlier elements ``first - period .. end - period - 1`` with their
        successors ``period`` later.  The elements it pushes out of the
        window lie before ``end - window <= first - period``: their pairs
        were counted by earlier chunks and are read from the ring before
        this chunk overwrites any slot.
        """
        period, window, ring = self._period, self._window, self._pair_keys
        first, size = self._n, chunk.size
        end = first + size
        if end > window:
            gone = max(first - window, 0)
            for part in _ring_slices(gone, end - window - gone, window):
                scatter(self._counts, ring[part], -1)
        codes = self._codes
        codes[period : period + size] = chunk
        keys = chunk * period
        residue = first % period
        keys += self._residues[residue : residue + size]
        np.putmask(keys, codes[:size] != chunk, self._dump)
        done = 0
        for part in _ring_slices(first - period, size, window):
            width = part.stop - part.start
            ring[part] = keys[done : done + width]
            done += width
        scatter(self._counts, keys, 1)
        codes[:period] = codes[size : size + period]
        self._n = end

    def _check(self) -> DriftEvent | None:
        n = self._n
        if n % self._check_every or n < self._window:
            return None
        confidence = self.confidence
        if confidence < self._floor:
            self._low_streak += 1
        else:
            self._low_streak = 0
            self._alarmed = False
        if self._low_streak >= self._patience and not self._alarmed:
            self._alarmed = True
            event = DriftEvent(position=n, confidence=confidence)
            self._events.append(event)
            return event
        return None
