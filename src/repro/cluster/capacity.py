"""Capacity planning: hosts needed versus offered QPS at a fixed SLO.

The provisioning question the paper's productionization sections keep
returning to — "a model's throughput at its P99 latency SLO is highly
sensitive to these parameters" (section 4.1) — posed at fleet scale:
for each routing policy, how many replicas does a model need to hold
its P99 SLO (with no shedding) at a given offered request rate?  The
sweep answers it by seeded simulation, searching replica counts upward
from the work-conserving lower bound ``ceil(rate * service_time)``.

A second probe, :func:`policy_comparison`, fixes the replica count and
pushes utilization to a target (default 85%) to expose the tail-latency
ordering between policies — the power-of-two-choices-beats-round-robin
shape the golden tests pin — and the cross-host traffic gap between
queue-blind JSQ and the locality-aware policy.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.admission import AdmissionConfig
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.routing import POLICY_NAMES
from repro.cluster.service import ServiceModel
from repro.cluster.simulator import ClusterConfig, ClusterReport, run_cluster
from repro.obs.tracing import TraceWriter
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.serving.workload import (
    DiurnalTrafficModel,
    Request,
    diurnal_poisson_stream,
    poisson_stream,
)


@dataclasses.dataclass(frozen=True)
class CapacityPoint:
    """One (policy, offered QPS) cell of the sweep."""

    policy: str
    offered_qps: float
    replicas: int
    p99_latency_s: float
    utilization: float
    shed_fraction: float
    cross_host_fraction: float
    feasible: bool  # an SLO-holding replica count was found


@dataclasses.dataclass(frozen=True)
class CapacitySweep:
    """Hosts-needed-vs-QPS, per routing policy."""

    p99_slo_s: float
    points: Tuple[CapacityPoint, ...]

    def point(self, policy: str, offered_qps: float) -> CapacityPoint:
        for candidate in self.points:
            if (candidate.policy == policy
                    and candidate.offered_qps == offered_qps):
                return candidate
        raise KeyError(f"no sweep point for ({policy}, {offered_qps})")

    def table(self) -> str:
        """The sweep as an aligned text table."""
        qps_values = sorted({p.offered_qps for p in self.points})
        policies = sorted({p.policy for p in self.points})
        header = f"{'offered QPS':>12} " + " ".join(
            f"{policy:>12}" for policy in policies
        )
        lines = [f"replicas needed at P99 <= {self.p99_slo_s * 1e3:.0f} ms:",
                 header]
        for qps in qps_values:
            cells = []
            for policy in policies:
                point = self.point(policy, qps)
                cells.append(
                    f"{point.replicas:>12}" if point.feasible else
                    f"{'>' + str(point.replicas):>12}"
                )
            lines.append(f"{qps:>12.0f} " + " ".join(cells))
        return "\n".join(lines)

    def scalars(self) -> Dict[str, float]:
        """Flat scalars for the benchmark-regression harness."""
        out: Dict[str, float] = {"p99_slo_s": self.p99_slo_s}
        for point in self.points:
            key = f"replicas_{point.policy}_at_{point.offered_qps:.0f}qps"
            out[key] = float(point.replicas)
        return out


def _stream(qps: float, duration_s: float, seed: int) -> Sequence[Request]:
    return poisson_stream(
        rate_per_s=qps, duration_s=duration_s,
        samples_per_request=64, seed=seed,
    )


# The offered-load rungs ``max_qps_at_slo`` probes, as fractions of the
# fluid capacity bound, highest first: 1.0, 0.95, ..., 0.05.  Built by
# repeated subtraction, so every rung (and every QPS derived from it) is
# the same float the original step-down scan produced.
_LOAD_LADDER: Tuple[float, ...] = tuple(
    itertools.accumulate([1.0] + [0.05] * 19, operator.sub)
)


def _max_qps_search(
    service: ServiceModel,
    replicas: int,
    p99_slo_s: float,
    duration_s: float,
    seed: int,
    start_fraction: float = 1.0,
) -> Tuple[float, float, int, int]:
    """The load-ladder boundary search behind :func:`max_qps_at_slo`.

    Rung 0 is the highest load; feasibility is monotone non-decreasing
    in the rung index (less load, easier SLO), so
    :func:`~repro.surrogate.verify.verified_min_feasible` finds the
    first rung that holds the SLO.  It starts at the rung nearest
    ``start_fraction``: the top rung by default, which probes rungs in
    step-down order, or a surrogate's predicted fraction.  Returns
    ``(max_qps, p99, exact_runs, scan_runs)``, where ``scan_runs`` is
    what the search started at the top rung would have spent.
    """
    from repro.surrogate.verify import verified_min_feasible

    ceiling = replicas * service.capacity_per_replica()
    config = ClusterConfig(replicas=replicas, num_hosts=replicas, seed=seed)
    probed: Dict[int, Tuple[float, float]] = {}

    def _feasible(rung: int) -> bool:
        qps = ceiling * _LOAD_LADDER[rung]
        requests = poisson_stream(qps, duration_s, seed=seed)
        report = run_cluster(config, service, requests)
        probed[rung] = (qps, report.p99_latency_s)
        return report.meets_slo(p99_slo_s)

    start = min(
        range(len(_LOAD_LADDER)),
        key=lambda rung: abs(_LOAD_LADDER[rung] - start_fraction),
    )
    answer, exact_runs = verified_min_feasible(
        start, 0, len(_LOAD_LADDER) - 1, _feasible
    )
    if answer is None:
        return 0.0, float("inf"), exact_runs, len(_LOAD_LADDER)
    qps, p99 = probed[answer]
    return qps, p99, exact_runs, answer + 1


def max_qps_at_slo(
    service: ServiceModel,
    replicas: int,
    p99_slo_s: float,
    duration_s: float,
    seed: int,
) -> Tuple[float, float]:
    """Largest offered QPS the replica set serves within the SLO with no
    shedding, by stepping down from the fluid capacity bound in 5%
    rungs.

    Returns ``(max_qps, p99_at_max)``; ``(0, inf)`` if even the lightest
    rung misses.  This is the serving tier's Perf primitive: the power
    sweep and the codesign DSE both score candidates with it.
    """
    return _max_qps_search(service, replicas, p99_slo_s, duration_s, seed)[:2]


def replicas_needed(
    policy: str,
    offered_qps: float,
    service: ServiceModel,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 40.0,
    max_replicas: int = 96,
    seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
    surrogate=None,
    registry=None,
) -> CapacityPoint:
    """Smallest replica count holding the SLO with zero shedding.

    Walks upward from the work-conserving bound
    ``ceil(rate * service_time)`` — replica count versus tail latency is
    monotone enough at these scales that a walk from the bound is both
    cheap and exact.  Probes run with ``fail_fast``: the SLO here
    demands *zero* loss, so the first shed or timeout already proves
    infeasibility and the rest of the run is skipped.  A run that
    finishes without loss is identical with or without the flag, so the
    returned point (and its report statistics) match an exhaustive
    search byte for byte.  When no count up to ``max_replicas`` holds,
    the ceiling is re-run exhaustively and returned as infeasible.

    A fitted capacity :class:`~repro.surrogate.model.SurrogateModel`
    (see :func:`repro.surrogate.dataset.train_capacity_surrogate`)
    moves only the walk's *starting point* to its predicted replica
    count; :func:`repro.surrogate.verify.verified_min_feasible`
    certifies the boundary with exact seeded runs from both sides.
    Under the monotone-feasibility assumption the walk already relies
    on, the returned point is identical — only the number of cluster
    simulations changes (tallied under ``surrogate.capacity.*`` on an
    attached registry).
    """
    from repro.surrogate.verify import verified_min_feasible

    if offered_qps <= 0:
        raise ValueError("offered QPS must be positive")
    requests = _stream(offered_qps, duration_s, seed)
    floor = max(1, math.ceil(offered_qps * service.mean_service_s))
    guess = floor
    if surrogate is not None:
        from repro.surrogate.features import capacity_feature_row

        row = capacity_feature_row(
            policy, offered_qps, service.mean_service_s, p99_slo_s,
            service.jitter_sigma,
        )
        guess = int(round(float(surrogate.predict(row[None, :])[0])))

    def _run(replicas: int, fail_fast: bool = False) -> ClusterReport:
        config = ClusterConfig(
            replicas=replicas,
            num_hosts=math.ceil(max_replicas / 24) + 1,
            policy=policy,
            p99_slo_s=p99_slo_s,
            admission=admission or AdmissionConfig(),
            seed=seed,
        )
        return run_cluster(
            config, service, requests, locality=locality,
            fail_fast=fail_fast,
        )

    def _point(
        replicas: int, report: ClusterReport, feasible: bool
    ) -> CapacityPoint:
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

    probed: Dict[int, ClusterReport] = {}

    def _feasible(replicas: int) -> bool:
        probed[replicas] = _run(replicas, fail_fast=True)
        return probed[replicas].meets_slo(p99_slo_s)

    answer, exact_runs = verified_min_feasible(
        guess, floor, max_replicas, _feasible
    )
    if surrogate is not None:
        from repro.obs.metrics import active

        obs = active(registry)
        if obs.enabled:
            obs.counter("surrogate.capacity.predictions").inc()
            obs.counter("surrogate.capacity.exact_runs").inc(exact_runs)
            obs.counter("surrogate.capacity.linear_scan_runs").inc(
                max(0, (max_replicas if answer is None else answer)
                    - floor + 1)
            )
    if answer is not None:
        return _point(answer, probed[answer], feasible=True)
    # No swept size held the SLO: re-run the ceiling exhaustively so the
    # reported statistics describe the full run, not a truncated probe.
    return _point(max_replicas, _run(max_replicas), feasible=False)


def capacity_sweep(
    service: ServiceModel,
    qps_points: Sequence[float],
    policies: Sequence[str] = POLICY_NAMES,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 40.0,
    seed: int = 0,
    surrogate=None,
) -> CapacitySweep:
    """The full hosts-vs-QPS grid, one seeded run per cell step.

    A fitted capacity ``surrogate`` is forwarded into every cell (see
    :func:`replicas_needed`): the grid's points are unchanged, only the
    simulations-per-cell count drops.
    """
    points = [
        replicas_needed(
            policy, qps, service,
            p99_slo_s=p99_slo_s, locality=locality,
            duration_s=duration_s, seed=seed, surrogate=surrogate,
        )
        for policy in policies
        for qps in qps_points
    ]
    return CapacitySweep(p99_slo_s=p99_slo_s, points=tuple(points))


def policy_comparison(
    service: ServiceModel,
    replicas: int = 12,
    target_utilization: float = 0.85,
    policies: Sequence[str] = POLICY_NAMES,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 60.0,
    seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
) -> Dict[str, ClusterReport]:
    """Run every policy on the *same* traffic at high utilization.

    The offered rate is chosen to put the fixed-size replica set at
    ``target_utilization`` — the regime where queue-aware routing earns
    its keep — and the identical seeded request stream goes through each
    policy, so differences are routing and nothing else.  By default no
    shard map is attached (every request is local everywhere): this
    probe isolates pure queueing behaviour, which is what the
    po2-beats-round-robin tail ordering is about.  Pass ``locality`` (or
    use :func:`locality_comparison`) to study shard affinity instead.
    """
    if not (0 < target_utilization <= 1):
        raise ValueError("target utilization must be in (0, 1]")
    qps = target_utilization * replicas / service.mean_service_s
    requests = _stream(qps, duration_s, seed)
    reports: Dict[str, ClusterReport] = {}
    for policy in policies:
        config = ClusterConfig(
            replicas=replicas,
            num_hosts=math.ceil(replicas / 24) + 1,
            policy=policy,
            admission=admission or AdmissionConfig(),
            seed=seed,
        )
        reports[policy] = run_cluster(
            config, service, requests, locality=locality
        )
    return reports


def autoscaled_day(
    service: ServiceModel,
    mean_rate_per_s: float = 30.0,
    peak_to_mean: float = 2.2,
    day_length_s: float = 3600.0,
    policy: str = "po2",
    burst_rate_per_hour: float = 6.0,
    burst_factor: float = 2.5,
    burst_duration_s: float = 30.0,
    fault_rate_per_replica_hour: float = 0.0,
    predictive: bool = True,
    max_replicas: int = 48,
    seed: int = 0,
    tracer: Optional["TraceWriter"] = None,
) -> Tuple[ClusterReport, DiurnalTrafficModel]:
    """One (compressed) diurnal day under the autoscaler.

    Traffic follows the sinusoidal day with burst episodes; the
    autoscaler tracks it reactively and — when ``predictive`` — also
    provisions ahead of the forecast ramp.  Returns the run report and
    the traffic model (for plotting or for re-running with knobs
    changed).  ``fault_rate_per_replica_hour`` composes the resilience
    story in: faulted replicas drain mid-run and their requests retry
    through the front door.
    """
    model = DiurnalTrafficModel(
        mean_rate_per_s=mean_rate_per_s,
        peak_to_mean=peak_to_mean,
        day_length_s=day_length_s,
        phase_s=0.0,
    )
    requests = diurnal_poisson_stream(
        model,
        duration_s=day_length_s,
        burst_rate_per_hour=burst_rate_per_hour,
        burst_factor=burst_factor,
        burst_duration_s=burst_duration_s,
        seed=seed,
    )
    floor = max(1, math.ceil(
        model.rate_at(0.0) * service.mean_service_s / 0.7
    ))
    autoscaler = Autoscaler(
        AutoscalerConfig(
            min_replicas=floor,
            max_replicas=max_replicas,
            tick_interval_s=min(30.0, day_length_s / 60.0),
            cooldown_s=min(60.0, day_length_s / 30.0),
            predictive=predictive,
            predictive_lead_s=day_length_s / 12.0,
        ),
        service,
        traffic_model=model,
    )
    config = ClusterConfig(
        replicas=floor,
        num_hosts=math.ceil(max_replicas / 24) + 1,
        policy=policy,
        fault_rate_per_replica_hour=fault_rate_per_replica_hour,
        seed=seed,
    )
    report = run_cluster(
        config, service, requests, autoscaler=autoscaler, tracer=tracer
    )
    return report, model


def locality_comparison(
    service: ServiceModel,
    replicas: int = 12,
    num_shards: int = 4,
    target_utilization: float = 0.60,
    policies: Sequence[str] = ("jsq", "locality"),
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 60.0,
    seed: int = 0,
) -> Dict[str, ClusterReport]:
    """Shard-affinity probe: queue-blind JSQ versus the locality policy.

    With an attached shard map, every request JSQ spreads to the least
    loaded replica pays the cross-host embedding-fetch penalty whenever
    that replica does not hold its shard; the locality policy keeps
    traffic on shard-holding replicas and spills only under pressure.
    Run below saturation so both policies shed nothing and the
    cross-host fraction is the differentiator.
    """
    shard_map = locality or ShardLocalityMap.uniform(num_shards)
    return policy_comparison(
        service,
        replicas=replicas,
        target_utilization=target_utilization,
        policies=policies,
        locality=shard_map,
        duration_s=duration_s,
        seed=seed,
    )
