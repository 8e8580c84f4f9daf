"""Streaming scenario: one-pass mining of data that never fits in memory.

Two one-pass modes beyond plain batch mining:

* **from a file** — the series lives on disk; a :class:`ChunkedReader`
  streams it block by block into an :class:`OnlineMiner`, which keeps
  only the last ``max_period`` symbols and ends with the same evidence
  table as in-memory mining;
* **online** — symbols arrive one at a time; an :class:`OnlineMiner`
  maintains the evidence incrementally, so periodicities can be watched
  as they strengthen (the paper's data-stream motivation, and the
  incremental extension of its reference [4]).

Run:  python examples/streaming_mining.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import OnlineMiner, SpectralMiner
from repro.data import generate_periodic, apply_noise
from repro.streaming import ChunkedReader, write_symbol_file


def main() -> None:
    rng = np.random.default_rng(2004)
    series = apply_noise(
        generate_periodic(length=120_000, period=48, sigma=8, rng=rng),
        ratio=0.1,
        kinds="R",
        rng=rng,
    )

    # --- from a file: mine it without loading it wholesale -------------
    with tempfile.TemporaryDirectory() as tmp:
        path = write_symbol_file(series, Path(tmp) / "stream.txt")
        size = path.stat().st_size
        reader = ChunkedReader(path, alphabet=series.alphabet, block_size=8_192)
        streamed = OnlineMiner(series.alphabet, max_period=256)
        reader.feed_into(streamed)
        table = streamed.table()
        print(f"streamed {size / 1024:.0f} KiB from disk in 8 KiB blocks: "
              f"confidence at 48 = {table.confidence(48):.2f}")
        in_memory = SpectralMiner(max_period=256).periodicity_table(series)
        assert table == in_memory, "streamed table != in-memory table"
        print(f"identical to in-memory mining: {table == in_memory}")

    # --- online: watch the evidence build up as symbols arrive ---------
    online = OnlineMiner(series.alphabet, max_period=64)
    checkpoints = (500, 2_000, 10_000, 30_000)
    position = 0
    print("\nonline mining (confidence at the true period 48 over time):")
    for checkpoint in checkpoints:
        online.extend_codes(series.codes[position:checkpoint])
        position = checkpoint
        print(f"  after {checkpoint:>6} symbols: {online.confidence(48):.2f}")

    hits = online.periodicities(0.6)
    periods = sorted({h.period for h in hits})
    print(f"\nperiods with support >= 0.6 so far: {periods}")


if __name__ == "__main__":
    main()
