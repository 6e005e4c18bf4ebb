"""Exact-path oracles for the fast simulation engines.

The NeuroScalar fast-path/exact-path split: the fast engine is what
``src/`` runs, and the exact model here verifies it.
``tests/test_fastsim_equivalence.py`` runs both on identical seeded
scenarios and requires report-level byte-identity — every float,
every count, every trace byte.

* :func:`schedule_batches_reference` — the original O(n^2)
  scan-the-pending-list device scheduler that
  :func:`repro.serving.scheduler.schedule_batches` (a ready-heap on
  :class:`~repro.fastsim.engine.EventEngine`) replaced.  Kept verbatim.
* :func:`validating_cluster_engine` — the cluster simulator's fast path
  changes *bookkeeping*, not algorithm (queue depths, the routable
  replica list, the up count, the full and tripped sets are all kept
  incrementally), so its oracle is an invariant checker rather than a
  second implementation: inside the context every
  :class:`~repro.cluster.simulator.ClusterSimulator` runs on a
  :class:`ValidatingEngine`, which recounts all of them from scratch
  after each event.
* :func:`healthy_candidates` — the original per-replica front-door scan
  the maintained routable list replaced, kept verbatim;
  :func:`per_replica_scan_routing` patches it (and a recounted up
  count) back into the simulator, and :func:`recorded_cluster_runs`
  captures each run's report and defense tallies for comparison.
* :func:`choice_po2_reference` — the ``Generator.choice`` draw that
  :func:`repro.cluster.routing.po2_pair` recomposes from three bounded
  draws; :func:`choice_po2_routing` patches the original
  ``PowerOfTwoPolicy.choose`` built on it back in.
* :func:`diurnal_poisson_stream_reference` — the original
  Lewis-Shedler thinning loop (and the original ``rate_at`` it calls)
  behind :func:`repro.serving.workload.diurnal_poisson_stream`, kept
  verbatim.

Every patching context yields a :class:`collections.Counter` of the
calls its patches served (the validating engine counts the events it
checked), so a test can require that the oracle actually ran: a later
inlining that bypasses a patched seam fails loudly instead of
comparing the fast path with itself.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.chaos.defense import BREAKER_CLOSED
from repro.cluster.routing import PowerOfTwoPolicy, _least_outstanding
from repro.cluster.simulator import ClusterReport, ClusterSimulator
from repro.fastsim.engine import EventEngine
from repro.obs.metrics import MetricsRegistry, active
from repro.serving.batcher import Batch
from repro.serving.workload import DiurnalTrafficModel, Request


def schedule_batches_reference(
    batches: Sequence["Batch"],
    profile,
    registry: Optional[MetricsRegistry] = None,
):
    """The original O(n^2) scan-the-pending-list device scheduler.

    Byte-identical oracle for ``repro.serving.scheduler.schedule_batches``
    (the fast ready-heap port).  Kept verbatim — do not optimize.
    """
    from repro.serving.scheduler import (
        BatchCompletion,
        ScheduleResult,
        _Job,
    )

    obs = active(registry)
    runnable_depth = obs.histogram("serving.scheduler.runnable_depth")
    jobs: List[_Job] = []
    merge_jobs: Dict[int, _Job] = {}
    for index, batch in enumerate(batches):
        for _ in range(profile.remote_jobs_per_batch):
            jobs.append(
                _Job(
                    batch_index=index,
                    kind="remote",
                    duration_s=profile.remote_time_s + profile.dispatch_overhead_s,
                    enqueue_s=batch.formed_at_s,
                )
            )
        merge = _Job(
            batch_index=index,
            kind="merge",
            duration_s=profile.merge_time_s + profile.dispatch_overhead_s,
            enqueue_s=batch.formed_at_s,
            remaining_deps=profile.remote_jobs_per_batch,
        )
        jobs.append(merge)
        merge_jobs[index] = merge
    # Event-driven single-server simulation.
    pending = sorted(jobs, key=lambda j: (j.enqueue_s, 0 if j.kind == "remote" else 1))
    time = 0.0
    busy = 0.0
    done = 0
    while done < len(jobs):
        runnable = [
            j
            for j in pending
            if j.finish_s < 0 and j.enqueue_s <= time and j.remaining_deps == 0
        ]
        if not runnable:
            # Advance to the next enqueue event.
            future = [j.enqueue_s for j in pending if j.finish_s < 0 and j.remaining_deps == 0]
            if not future:
                raise RuntimeError("scheduler deadlock: jobs with unresolved deps")
            time = max(time, min(future))
            continue
        # FIFO by (current) queue-entry time.
        runnable_depth.observe(float(len(runnable)))
        job = min(runnable, key=lambda j: j.enqueue_s)
        job.start_s = time
        job.finish_s = time + job.duration_s
        busy += job.duration_s
        time = job.finish_s
        done += 1
        if job.kind == "remote":
            merge = merge_jobs[job.batch_index]
            merge.remaining_deps -= 1
            if merge.remaining_deps == 0:
                # The merge is (re)submitted after a host round trip; its
                # new FIFO position is behind any remote already queued —
                # the crux of the remote-remote-merge-merge pattern.
                merge.enqueue_s = time + profile.merge_submission_delay_s
    completions = []
    for index, batch in enumerate(batches):
        remotes = [
            j for j in jobs if j.batch_index == index and j.kind == "remote"
        ]
        completions.append(
            BatchCompletion(
                batch=batch,
                remote_done_s=max(j.finish_s for j in remotes),
                merge_done_s=merge_jobs[index].finish_s,
            )
        )
    makespan = max((j.finish_s for j in jobs), default=0.0)
    result = ScheduleResult(
        completions=completions, device_busy_s=busy, makespan_s=makespan
    )
    if obs.enabled:
        obs.counter("serving.scheduler.jobs_dispatched").inc(len(jobs))
        obs.gauge("serving.scheduler.utilization").set(result.utilization)
        obs.gauge("serving.scheduler.makespan_s").set(makespan)
    return result


def healthy_candidates(replicas, admission, now_s=0.0, defense=None):
    """The admissible routing targets at ``now_s``.

    A replica is a candidate when it is up, reachable (not severed by a
    network partition), and below the admission queue cap; when an
    overload ``defense`` (duck-typing
    :class:`repro.chaos.defense.DefenseRuntime`) is armed, its
    per-replica circuit breaker must also admit traffic.  With
    ``defense=None`` and no partitions this reduces exactly to the
    historical up-and-admissible filter.
    """
    # Inlined ``admission.replica_admissible`` — this filter runs once
    # per routed request and is the cluster tier's hottest loop.
    cap = admission.max_outstanding_per_replica
    candidates = [
        r for r in replicas
        if r.state == "up" and not r.partitioned and r.outstanding < cap
    ]
    if defense is not None:
        candidates = [
            r for r in candidates if defense.replica_allowed(r.replica_id, now_s)
        ]
    return candidates


def validate_counters(simulator: ClusterSimulator, kind: str) -> None:
    """The incremental per-replica and tier-wide queue-depth counters
    must equal full recomputation, and non-serving replicas must hold no
    work (the original tier-wide sum skipped them, the counter does not
    — equality requires both).  The front door's maintained view must
    equal a recount too: the routable list (order included), the up
    count, the set of routable replicas at the admission cap, and the
    defense's set of breakers that are not closed."""
    serving_total = 0
    full_total = 0
    for replica in simulator._replicas.values():
        expected = replica.recount()
        if replica.outstanding != expected:
            raise AssertionError(
                f"replica {replica.replica_id} outstanding counter "
                f"{replica.outstanding} != recount {expected} "
                f"after {kind!r} at t={simulator._now}"
            )
        full_total += expected
        if replica.serving:
            serving_total += expected
    tier_total = simulator._outstanding_total
    if tier_total != full_total or serving_total != full_total:
        raise AssertionError(
            f"tier outstanding counter {tier_total} != "
            f"recount {full_total} (serving {serving_total}) "
            f"after {kind!r} at t={simulator._now}"
        )
    where = f"after {kind!r} at t={simulator._now}"
    routable = [
        r for r in simulator._replicas.values()
        if r.state == "up" and not r.partitioned
    ]
    if simulator._routable != routable:
        raise AssertionError(
            f"routable list {[r.replica_id for r in simulator._routable]} "
            f"!= recount {[r.replica_id for r in routable]} {where}"
        )
    up = sum(1 for r in simulator._replicas.values() if r.state == "up")
    if simulator._up_count() != up:
        raise AssertionError(
            f"up count {simulator._up_count()} != recount {up} {where}"
        )
    cap = simulator.config.admission.max_outstanding_per_replica
    full = {r for r in routable if r.outstanding >= cap}
    if simulator._full != full:
        raise AssertionError(
            f"full set {sorted(r.replica_id for r in simulator._full)} "
            f"!= recount {sorted(r.replica_id for r in full)} {where}"
        )
    defense = simulator.defense
    if defense is not None:
        tripped = {
            replica_id for replica_id, breaker in defense._breakers.items()
            if breaker.state != BREAKER_CLOSED
        }
        if defense._tripped != tripped:
            raise AssertionError(
                f"tripped set {sorted(defense._tripped)} "
                f"!= recount {sorted(tripped)} {where}"
            )


class ValidatingEngine(EventEngine):
    """The production engine plus :func:`validate_counters` after every
    event: each ``pop`` first checks the state the previous event left,
    so the last event is checked by the ``pop`` that finds the queue
    empty."""

    def __init__(self, simulator: ClusterSimulator) -> None:
        super().__init__()
        self.simulator = simulator
        self.last_kind: Optional[str] = None
        self.checks = 0

    def pop(self):
        if self.last_kind is not None:
            validate_counters(self.simulator, self.last_kind)
            self.checks += 1
        entry = super().pop()
        self.last_kind = entry[2][0]
        return entry


@contextlib.contextmanager
def validating_cluster_engine() -> Iterator[List[ValidatingEngine]]:
    """Run every ClusterSimulator built inside the context on a
    :class:`ValidatingEngine`; yields the engines created, so a test
    can prove the oracle actually ran."""
    engines: List[ValidatingEngine] = []
    original_init = ClusterSimulator.__init__

    def init(simulator, *args, **kwargs):
        original_init(simulator, *args, **kwargs)
        simulator._events = ValidatingEngine(simulator)
        engines.append(simulator._events)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterSimulator, "__init__", init)
        yield engines


def defense_tallies(simulator: ClusterSimulator) -> Optional[Tuple[int, int, int]]:
    """The armed defense's run tallies, or ``None`` without one."""
    defense = simulator.defense
    if defense is None:
        return None
    return (
        defense.deadline_drops,
        defense.retries_denied,
        defense.breaker_rejections,
    )


@contextlib.contextmanager
def per_replica_scan_routing() -> Iterator[collections.Counter]:
    """Route every ClusterSimulator inside the context through the
    original per-replica scan: :func:`healthy_candidates` over every
    replica for each routed request, and an up count recounted for
    each brownout observation.  Yields the calls served, under
    ``"_candidates"`` and ``"_up_count"``."""
    calls: collections.Counter = collections.Counter()

    def candidates(simulator):
        calls["_candidates"] += 1
        return healthy_candidates(
            simulator._replicas.values(), simulator.config.admission,
            now_s=simulator._now, defense=simulator.defense,
        )

    def up_count(simulator):
        calls["_up_count"] += 1
        return sum(1 for r in simulator._replicas.values() if r.state == "up")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterSimulator, "_candidates", candidates)
        patch.setattr(ClusterSimulator, "_up_count", up_count)
        yield calls


def choice_po2_reference(rng: np.random.Generator, n: int) -> Tuple[int, int]:
    """The power-of-two pair as routing originally drew it: one
    ``Generator.choice`` call.  Oracle for
    :func:`repro.cluster.routing.po2_pair`, which must return the same
    pair and leave ``rng`` in the same state."""
    first, second = rng.choice(n, size=2, replace=False)
    return int(first), int(second)


@contextlib.contextmanager
def choice_po2_routing() -> Iterator[collections.Counter]:
    """Route every power-of-two choice inside the context — the ``po2``
    policy and the locality policy's spill fallback — through the
    original ``PowerOfTwoPolicy.choose``, kept verbatim on
    :func:`choice_po2_reference`.  Yields the draws made, under
    ``"choice"``."""
    calls: collections.Counter = collections.Counter()

    def choose(policy, candidates, shard_id, rng):
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        calls["choice"] += 1
        first, second = choice_po2_reference(rng, len(candidates))
        return _least_outstanding([candidates[first], candidates[second]])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PowerOfTwoPolicy, "choose", choose)
        yield calls


def rate_at_reference(model: DiurnalTrafficModel, t_s: float) -> float:
    """The original ``DiurnalTrafficModel.rate_at``, kept verbatim."""
    angle = 2.0 * math.pi * (t_s + model.phase_s) / model.day_length_s
    if model.phase_h:
        angle += 2.0 * math.pi * model.phase_h / 24.0
    amplitude = model.peak_to_mean - 1.0
    raw = 1.0 + amplitude * math.sin(angle - math.pi / 2.0)
    return model.mean_rate_per_s * max(raw, model.floor_fraction)


def diurnal_poisson_stream_reference(
    model: DiurnalTrafficModel,
    duration_s: float,
    samples_per_request: int = 64,
    samples_jitter: float = 0.3,
    burst_rate_per_hour: float = 0.0,
    burst_factor: float = 3.0,
    burst_duration_s: float = 30.0,
    seed: int = 0,
) -> Tuple[List[Request], np.random.Generator]:
    """The original diurnal + bursty stream generator, kept verbatim
    (argument checks aside), returning its generator too so a test can
    compare the end state.  Oracle for
    :func:`repro.serving.workload.diurnal_poisson_stream`."""
    rng = np.random.default_rng(seed)
    episodes: List[float] = []
    if burst_rate_per_hour > 0:
        episode_rate = burst_rate_per_hour / 3600.0
        t = 0.0
        while True:
            t += rng.exponential(1.0 / episode_rate)
            if t >= duration_s:
                break
            episodes.append(t)

    def in_burst(t: float) -> bool:
        index = bisect.bisect_right(episodes, t) - 1
        return index >= 0 and t < episodes[index] + burst_duration_s

    lam_max = model.peak_rate_per_s * (burst_factor if episodes else 1.0)
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam_max)
        if t >= duration_s:
            break
        rate = rate_at_reference(model, t) * (
            burst_factor if in_burst(t) else 1.0
        )
        if rng.random() * lam_max <= rate:
            arrivals.append(t)
    sizes = np.maximum(
        1,
        np.round(
            samples_per_request * rng.lognormal(0, samples_jitter, size=len(arrivals))
        ).astype(int),
    )
    requests = [
        Request(arrival_s=float(t), samples=int(s), request_id=i)
        for i, (t, s) in enumerate(zip(arrivals, sizes))
    ]
    return requests, rng


@contextlib.contextmanager
def recorded_cluster_runs() -> Iterator[
    List[Tuple[ClusterReport, Optional[Tuple[int, int, int]]]]
]:
    """Record every ClusterSimulator run inside the context: yields a
    list that fills with one ``(report, defense_tallies)`` per run."""
    runs: List[Tuple[ClusterReport, Optional[Tuple[int, int, int]]]] = []
    original_run = ClusterSimulator.run

    def run(simulator):
        report = original_run(simulator)
        runs.append((report, defense_tallies(simulator)))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterSimulator, "run", run)
        yield runs
