"""Table 3 — multi-symbol periodic patterns of the retail data.

Regenerates the paper's final table: period-24 patterns of the
Wal-Mart-like data at a 35% threshold.  Asserts the published shape:
long patterns dominated by the overnight very-low run plus daytime
level bands, all meeting the threshold, with supports well above it for
the overnight cores.
"""

import pytest

from repro.experiments import (
    Table3Config,
    render_table3,
    run_table3,
    select_display_patterns,
)

from _bench_utils import record

CONFIG = Table3Config(psi=0.35, period=24, retail_days=456, max_arity=10, top=12)


@pytest.mark.benchmark(group="table3")
def test_table3(benchmark):
    result = benchmark.pedantic(lambda: run_table3(CONFIG), rounds=1, iterations=1)
    record("table3", render_table3(result, CONFIG))
    shown = select_display_patterns(result, CONFIG.period, CONFIG.top)

    assert shown, "the table must contain multi-symbol patterns"
    for pattern in result.patterns:
        assert pattern.support >= CONFIG.psi - 1e-9

    # The deepest patterns fix the overnight very-low hours ('a' at some
    # of hours 0-5/22-23), the signature shape of the paper's table.
    deepest = shown[0]
    overnight = {0, 1, 2, 3, 4, 5, 22, 23}
    a_code = result.alphabet.code("a")
    fixed_overnight = {
        l for l, k in deepest.items if k == a_code and l in overnight
    }
    assert len(fixed_overnight) >= 3
    assert deepest.arity >= 5
