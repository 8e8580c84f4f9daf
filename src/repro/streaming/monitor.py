"""Drift monitoring of a periodicity over a live stream.

The operational companion of the sliding-window miner: watch the
confidence of one period over the recent window and raise an alarm when
it stays below a floor for several consecutive checks — the "our weekly
rhythm broke" pager for the paper's data-stream setting.

The monitor counts only the lag it watches.  It keeps the ``(sigma,
period)`` counter block of that lag, the last ``period`` codes, and a
``window``-slot ring that remembers, for each in-window element ``e``,
the key of the pair ``(e, e + period)`` (or ``-1`` when the two symbols
differ).  An arrival adds at most one pair; an eviction retracts the one
its ring slot holds — one compare per symbol and no lag sweep, so memory
is ``O(window + sigma * period)``.  Confidence reads go through the same
:func:`~repro.streaming.counts.block_confidence` as
:meth:`SlidingWindowMiner.confidence
<repro.streaming.window.SlidingWindowMiner.confidence>`, so the two
agree bit for bit.
"""

from __future__ import annotations

import operator
from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from ..core.alphabet import Alphabet
from ..core.sequence import integer_codes
from .counts import block_confidence, scatter
from .online import check_code_range, last_codes

__all__ = ["DriftEvent", "PeriodicityMonitor"]


@dataclass(frozen=True, slots=True)
class DriftEvent:
    """One alarm: the watched period's confidence broke the floor.

    ``position`` is the stream index at which the alarm fired;
    ``confidence`` the window confidence at that moment.
    """

    position: int
    confidence: float


def _whole(name: str, value: object) -> int:
    """``value`` as an ``int``, or a ``TypeError`` naming the argument."""
    try:
        return operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
        period = _whole("period", period)
        patience = _whole("patience", patience)
        window = 8 * period if window is None else _whole("window", window)
        if check_every is None:
            check_every = period
        check_every = _whole("check_every", check_every)
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
        self._recent = np.empty(0, dtype=np.int64)  # last <= period codes
        # Slot e % window: key code * period + e % period of the pair
        # (e, e + period) while e is in the window, -1 if no pair.
        self._pair_keys = np.full(window, -1, dtype=np.int64)
        self._counts = np.zeros(len(alphabet) * period, dtype=np.int64)
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
        block = self._counts.reshape(-1, self._period)
        return block_confidence(block, min(n, self._window), max(n - self._window, 0))

    def append(self, symbol: Hashable) -> DriftEvent | None:
        """Consume one symbol; returns an event iff an alarm fires now."""
        return self.append_code(self._alphabet.code(symbol))

    def append_code(self, code: int) -> DriftEvent | None:
        """Consume one symbol code; returns an event iff an alarm fires."""
        block = np.array([code], dtype=np.int64)
        check_code_range(block, len(self._alphabet))
        self._ingest(block)
        return self._check()

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> list[DriftEvent]:
        """Consume many codes; returns every alarm fired along the way.

        Chunked fast path: confidence checks only ever happen at stream
        positions that are multiples of ``check_every``, so the codes
        are counted in vectorised sub-chunks that end exactly on those
        boundaries and the check runs between them — the fired
        :class:`DriftEvent` sequence is identical to per-symbol feeding.
        """
        block = integer_codes(codes)
        check_code_range(block, len(self._alphabet))
        fired: list[DriftEvent] = []
        consumed = 0
        while consumed < block.size:
            boundary = (self._n // self._check_every + 1) * self._check_every
            upto = min(block.size, consumed + boundary - self._n)
            self._ingest(block[consumed:upto])
            consumed = upto
            event = self._check()
            if event is not None:
                fired.append(event)
        return fired

    def _ingest(self, chunk: np.ndarray) -> None:
        """Count the chunk's pairs at the watched lag; retract evicted ones.

        The chunk pairs earlier elements ``lo .. end - period - 1`` with
        their successors ``period`` later.  Elements leaving the window
        lose their pair: those found by earlier chunks are read from the
        ring, those found by this chunk are never counted.
        """
        period, window = self._period, self._window
        first = self._n
        end = first + chunk.size
        lo = first - self._recent.size  # == max(first - period, 0)
        start = max(end - window, 0)
        leaving = np.arange(max(first - window, 0), min(start, lo))
        gone = self._pair_keys[leaving % window]
        scatter(self._counts, gone[gone >= 0], -1)
        joined = np.concatenate((self._recent, chunk))
        skip = max(start - lo, 0)  # pairs evicted within this chunk
        earlier = joined[skip:-period]
        if earlier.size:
            index = np.arange(lo + skip, end - period)
            matched = earlier == joined[skip + period :]
            keys = np.where(matched, earlier * period + index % period, -1)
            self._pair_keys[index % window] = keys
            scatter(self._counts, keys[keys >= 0], 1)
        self._recent = last_codes(self._recent, chunk, period)
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
