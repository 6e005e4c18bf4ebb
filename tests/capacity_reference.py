"""Reference implementations of the capacity searches, kept as
differential-test oracles.

These are the original linear scans that :mod:`repro.cluster.capacity`
replaced with one boundary search
(:func:`repro.surrogate.verify.verified_min_feasible`):

* :func:`reference_replicas_needed` — walks replica counts up from the
  work-conserving bound with ``fail_fast`` probes and, when no count up
  to ``max_replicas`` holds the SLO, re-runs the ceiling exhaustively;
* :func:`reference_max_qps_at_slo` — steps offered load down from the
  fluid capacity bound in 5% rungs and returns the first rung that holds
  the SLO.

``tests/test_capacity_equivalence.py`` runs them against the production
code and requires the same answers and, without a surrogate, the same
``run_cluster`` calls in the same order.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.cluster.admission import AdmissionConfig
from repro.cluster.capacity import CapacityPoint, _stream
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.service import ServiceModel
from repro.cluster.simulator import ClusterConfig, ClusterReport, run_cluster
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.serving.workload import poisson_stream


def reference_step_fractions(
    qps_step_fraction: float = 0.05,
) -> Tuple[float, ...]:
    """The probe ladder the step-down scan walks, highest first."""
    fractions = []
    fraction = 1.0
    while fraction > qps_step_fraction / 2:
        fractions.append(fraction)
        fraction -= qps_step_fraction
    return tuple(fractions)


def reference_max_qps_at_slo(
    service: ServiceModel,
    replicas: int,
    p99_slo_s: float,
    duration_s: float,
    seed: int,
) -> Tuple[float, float]:
    ceiling = replicas * service.capacity_per_replica()
    config = ClusterConfig(replicas=replicas, num_hosts=replicas, seed=seed)
    for fraction in reference_step_fractions():
        qps = ceiling * fraction
        requests = poisson_stream(qps, duration_s, seed=seed)
        report = run_cluster(config, service, requests)
        if report.meets_slo(p99_slo_s):
            return qps, report.p99_latency_s
    return 0.0, float("inf")


def reference_replicas_needed(
    policy: str,
    offered_qps: float,
    service: ServiceModel,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 40.0,
    max_replicas: int = 96,
    seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
) -> CapacityPoint:
    requests = _stream(offered_qps, duration_s, seed)
    floor = max(1, math.ceil(offered_qps * service.mean_service_s))

    def _config(replicas: int) -> ClusterConfig:
        return ClusterConfig(
            replicas=replicas,
            num_hosts=math.ceil(max_replicas / 24) + 1,
            policy=policy,
            p99_slo_s=p99_slo_s,
            admission=admission or AdmissionConfig(),
            seed=seed,
        )

    def _point(replicas: int, report: ClusterReport,
               feasible: bool) -> CapacityPoint:
        return CapacityPoint(
            policy=policy,
            offered_qps=offered_qps,
            replicas=replicas,
            p99_latency_s=report.p99_latency_s,
            utilization=report.utilization,
            shed_fraction=report.shed_fraction,
            cross_host_fraction=report.cross_host_fraction,
            feasible=feasible,
        )

    for replicas in range(floor, max_replicas + 1):
        report = run_cluster(
            _config(replicas), service, requests, locality=locality,
            fail_fast=True,
        )
        if report.meets_slo(p99_slo_s):
            return _point(replicas, report, True)
    report = run_cluster(
        _config(max_replicas), service, requests, locality=locality
    )
    return _point(max_replicas, report, False)
