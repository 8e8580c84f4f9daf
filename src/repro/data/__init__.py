"""Data substrate: generators, noise models, and discretizers.

* :mod:`repro.data.synthetic` — the paper's controlled synthetic data;
* :mod:`repro.data.noise` — replacement/insertion/deletion noise;
* :mod:`repro.data.discretize` — numeric-to-symbol discretizers;
* :mod:`repro.data.power` — CIMEG-like daily power consumption;
* :mod:`repro.data.retail` — Wal-Mart-like hourly transactions;
* :mod:`repro.data.eventlog` — slotted event logs with planted periods.
"""

from .synthetic import generate_pattern, generate_periodic, generate_random
from .noise import (
    NOISE_KINDS,
    apply_noise,
    delete_noise,
    insert_noise,
    parse_noise_spec,
    replace_noise,
)
from .discretize import (
    FIVE_LEVELS,
    Discretizer,
    EqualWidthDiscretizer,
    GaussianDiscretizer,
    QuantileDiscretizer,
    ThresholdDiscretizer,
)
from .power import CIMEG_THRESHOLDS, PowerConsumptionSimulator
from .retail import (
    DEFAULT_HOURLY_PROFILE,
    RetailTransactionsSimulator,
    WALMART_THRESHOLDS,
)
from .eventlog import EventLogSimulator, PlantedEvent

__all__ = [
    "generate_pattern",
    "generate_periodic",
    "generate_random",
    "NOISE_KINDS",
    "apply_noise",
    "delete_noise",
    "insert_noise",
    "parse_noise_spec",
    "replace_noise",
    "FIVE_LEVELS",
    "Discretizer",
    "EqualWidthDiscretizer",
    "GaussianDiscretizer",
    "QuantileDiscretizer",
    "ThresholdDiscretizer",
    "CIMEG_THRESHOLDS",
    "PowerConsumptionSimulator",
    "DEFAULT_HOURLY_PROFILE",
    "RetailTransactionsSimulator",
    "WALMART_THRESHOLDS",
    "EventLogSimulator",
    "PlantedEvent",
]
