"""Shared fast-simulation substrate (ROADMAP item 1).

The hot engines — ``serving.scheduler``, ``cluster.simulator`` (and
through it ``chaos`` and ``fleet_global``), ``resilience.simulator``,
the ``sdc`` campaign loop, and ``autotune`` evaluation — all run on the
pieces in this package:

- :mod:`repro.fastsim.engine`: the one deterministic event queue, a
  binary heap plus a staged sorted list, popped in the total order
  ``(time_s, tiebreak)``.
- :mod:`repro.fastsim.memo`: memoized kernel-latency tables keyed on
  (op, shape, dtype, frequency, variant).
- :mod:`repro.fastsim.vectorize`: numpy vectorizations of per-request
  math that are *byte-identical* to the scalar loops they replace
  (same RNG draws in the same order, same float accumulation order).

Determinism is the contract: every golden in ``repro.obs.golden`` is
byte-identical on the fast paths.  The exact-path oracles they are
checked against (the NeuroScalar-style fast-path/exact-path split)
live under ``tests/``, where ``test_fastsim_equivalence.py`` proves
report-level parity.
"""

from repro.fastsim.engine import EventEngine
from repro.fastsim.memo import KernelLatencyMemo
from repro.fastsim.vectorize import seeded_poisson_arrivals, sorted_percentile

__all__ = [
    "EventEngine",
    "KernelLatencyMemo",
    "seeded_poisson_arrivals",
    "sorted_percentile",
]
