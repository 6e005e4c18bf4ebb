"""Learned performance surrogates with exact-model verification
(ROADMAP item 3; NeuroScalar / AutoDNNchip, PAPERS.md).

The co-design loop is throttled by the cost of exact performance
evaluation: the kernel cost model is ~10 us per point, a capacity probe
is a full seeded cluster simulation.  This package implements the
fast/accurate split those papers argue for:

- :mod:`repro.surrogate.features` — deterministic analytic features
  (roofline sketches) from ``ChipSpec`` + shape/variant descriptors;
- :mod:`repro.surrogate.dataset` — seeded trace collection off the
  exact models, with ``fastsim.memo`` recorder hooks so memoized exact
  evaluations double as training rows;
- :mod:`repro.surrogate.model` — a pure-numpy, bit-for-bit-reproducible
  ridge + gradient-boosted-stumps stack with measured holdout error
  bands, plus the factorized GEMM sweep path (>=100x cheaper per
  evaluation than the exact kernel model);
- :mod:`repro.surrogate.verify` — the soundness layer: surrogates rank
  or pick starting points, the exact model re-evaluates and certifies,
  and every returned answer is exact-evaluated.

Integrations (a passed ``surrogate=`` is the only selector; without
one they run exactly as before): ``autotune.kernel_tuner.surrogate_tune``
/ ``autotune.tuner``, ``cluster.capacity.replicas_needed`` /
``capacity_sweep``, and
``power.cluster_link.power_limited_capacity_sweep``.  The capacity
searches run through :func:`verified_min_feasible` either way; the
surrogate only picks where it starts.  CLI:
``python -m repro surrogate [--smoke|--sweep]``.

This package never imports ``repro.autotune`` at module level — the
tuner imports *us*, and the cluster/power integrations import their
surrogate helpers lazily inside the functions that use them.
"""

from repro.surrogate.dataset import (
    DatasetRecorder,
    SurrogateDataset,
    collect_executor_dataset,
    collect_executor_graph_dataset,
    collect_gemm_dataset,
    train_capacity_surrogate,
    train_executor_surrogate,
    train_gemm_surrogate,
    train_power_surrogate,
)
from repro.surrogate.features import (
    EXECUTOR_FEATURE_NAMES,
    GEMM_FEATURE_NAMES,
    GemmFeatureSpace,
    GraphSummary,
    capacity_feature_row,
    executor_feature_row,
    power_feature_row,
    summarize_graph,
)
from repro.surrogate.model import (
    BoostedStumps,
    GemmSurrogate,
    RidgeRegressor,
    SurrogateModel,
    TrainReport,
)
from repro.surrogate.verify import (
    VerifiedArgmin,
    verified_argmin,
    verified_min_feasible,
)

__all__ = [
    "BoostedStumps",
    "DatasetRecorder",
    "EXECUTOR_FEATURE_NAMES",
    "GEMM_FEATURE_NAMES",
    "GemmFeatureSpace",
    "GemmSurrogate",
    "GraphSummary",
    "RidgeRegressor",
    "SurrogateDataset",
    "SurrogateModel",
    "TrainReport",
    "VerifiedArgmin",
    "capacity_feature_row",
    "collect_executor_dataset",
    "collect_executor_graph_dataset",
    "collect_gemm_dataset",
    "executor_feature_row",
    "power_feature_row",
    "summarize_graph",
    "train_capacity_surrogate",
    "train_executor_surrogate",
    "train_gemm_surrogate",
    "train_power_surrogate",
    "verified_argmin",
    "verified_min_feasible",
]
