"""Differential tests: the fast engines versus their exact-path oracles.

The determinism contract of :mod:`repro.fastsim`: the ready-heap
scheduler and the incremental-counter event loops change *runtime
only*.  Every report field — every float, every count, every event-log
entry, and the Chrome trace bytes — must match the oracle exactly, not
approximately.  These tests run the same seeded scenarios through the
fast path and the oracle and assert structural equality, which for
tuples of floats is byte-identity.

The oracles live in :mod:`tests.fastsim_reference`:

* serving — :func:`schedule_batches_reference`, the original O(n^2)
  pending-list scan, kept verbatim;
* cluster / chaos / fleet — :func:`validating_cluster_engine`, the same
  event engine plus a from-scratch recount of every incremental
  queue-depth counter after every event (the NeuroScalar-style online
  verifier);
* diurnal traffic — :func:`diurnal_poisson_stream_reference`, the
  original thinning loop, kept verbatim: same requests and the same
  generator end state.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import CampaignConfig as ChaosCampaignConfig
from repro.chaos import run_scenario, scenario_by_name
from repro.cluster import (
    AdmissionConfig,
    ClientRetryConfig,
    ClusterConfig,
    Injection,
    default_service_model,
    run_cluster,
)
from repro.fleet_global import region_outage_drill, run_fleet, standard_fleet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceWriter
from repro.serving.batcher import CoalescingConfig, coalesce
from repro.serving.scheduler import ModelJobProfile, schedule_batches
from repro.serving.workload import (
    DiurnalTrafficModel,
    diurnal_poisson_stream,
    poisson_stream,
)
from tests.fastsim_reference import (
    diurnal_poisson_stream_reference,
    rate_at_reference,
    schedule_batches_reference,
    validating_cluster_engine,
)


def _fast_and_oracle(run):
    """``run()`` on the production engine, then under the validating
    oracle engine (which must have checked at least one event)."""
    fast = run()
    with validating_cluster_engine() as engines:
        oracle = run()
    assert engines and all(engine.checks for engine in engines)
    return fast, oracle


def _schedule_fingerprint(result, registry):
    """Every observable of one scheduling run, floats untouched."""
    depth = registry.histogram("serving.scheduler.runnable_depth")
    return (
        result.device_busy_s,
        result.makespan_s,
        tuple(
            (c.remote_done_s, c.merge_done_s, c.batch.formed_at_s)
            for c in result.completions
        ),
        tuple(result.request_latencies()),
        result.latency_percentile(99.0),
        depth._count,
        depth._sum,
        tuple(depth._buckets),
    )


class TestServingScheduler:
    def test_fast_matches_reference(self):
        profile = ModelJobProfile(
            remote_time_s=0.004,
            merge_time_s=0.009,
            remote_jobs_per_batch=2,
            dispatch_overhead_s=0.001,
            merge_submission_delay_s=0.0008,
        )
        requests = poisson_stream(
            rate_per_s=150.0, duration_s=8.0,
            samples_per_request=64, seed=11,
        )
        batches = coalesce(
            requests,
            CoalescingConfig(
                window_s=0.01, max_parallel_windows=4, max_batch_samples=512
            ),
        )
        fingerprints = {}
        for name, schedule in (
            ("fast", schedule_batches), ("reference", schedule_batches_reference)
        ):
            registry = MetricsRegistry(enabled=True)
            result = schedule(batches, profile, registry=registry)
            fingerprints[name] = _schedule_fingerprint(result, registry)
        assert fingerprints["fast"] == fingerprints["reference"]


def _chaotic_cluster_run():
    """A cluster run exercising every event family the engines order:
    arrivals, departures, faults, autoscale-free injections (outage,
    slowdown, partition), and client retry timers."""
    service = default_service_model()
    requests = poisson_stream(
        rate_per_s=9.0 / service.mean_service_s * 0.75,
        duration_s=12.0,
        samples_per_request=64,
        seed=5,
    )
    config = ClusterConfig(
        replicas=9,
        num_hosts=3,
        policy="po2",
        admission=AdmissionConfig(),
        fault_rate_per_replica_hour=40.0,
        seed=5,
    )
    injections = (
        Injection(time_s=2.0, kind="down", targets=(0, 1)),
        Injection(time_s=4.0, kind="up", targets=(0, 1)),
        Injection(time_s=5.0, kind="slow", targets=(2, 3), magnitude=4.0),
        Injection(time_s=7.0, kind="slow_end", targets=(2, 3)),
        Injection(time_s=8.0, kind="partition", targets=(4,)),
        Injection(time_s=9.5, kind="heal", targets=(4,)),
    )
    return run_cluster(
        config, service, requests,
        client=ClientRetryConfig(timeout_s=0.3, max_retries=2),
        injections=injections,
    )


class TestClusterEngines:
    def test_all_engines_byte_identical(self):
        fast, oracle = _fast_and_oracle(_chaotic_cluster_run)
        assert fast == oracle


def _trace_sha256(tracer: TraceWriter) -> str:
    document = json.dumps(tracer.document(), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


class TestChaosScenario:
    def test_defended_storm_identical_across_engines(self):
        scenario = scenario_by_name("retry_storm")
        config = ChaosCampaignConfig(duration_s=15.0)

        def run():
            tracer = TraceWriter("chaos-equivalence")
            outcome = run_scenario(
                scenario, config, defended=True, tracer=tracer
            )
            return outcome, _trace_sha256(tracer)

        (fast, fast_hash), (oracle, oracle_hash) = _fast_and_oracle(run)
        assert fast == oracle
        # The Chrome trace is the strictest observable: every event's
        # timestamp, lane, and payload, serialized — equal bytes or bust.
        assert fast_hash == oracle_hash


class TestFleetDay:
    def test_outage_drill_identical_across_engines(self):
        fleet = standard_fleet(replicas_per_region=4, duration_s=24.0, seed=3)
        drill = region_outage_drill(fleet)
        fast, oracle = _fast_and_oracle(
            lambda: run_fleet(fleet, drill, defended=True)
        )
        assert fast == oracle


def _stream_and_generator(model, duration_s, **kwargs):
    """``diurnal_poisson_stream`` plus the generator it drew from."""
    made = []
    default_rng = np.random.default_rng

    def recording_default_rng(seed=None):
        made.append(default_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording_default_rng)
        requests = diurnal_poisson_stream(model, duration_s, **kwargs)
    [rng] = made
    return requests, rng


class TestDiurnalStream:
    @pytest.mark.parametrize("model, kwargs", [
        (
            DiurnalTrafficModel(mean_rate_per_s=20.0, day_length_s=300.0),
            dict(burst_rate_per_hour=90.0, burst_duration_s=15.0, seed=4),
        ),
        (
            DiurnalTrafficModel(mean_rate_per_s=20.0, day_length_s=300.0),
            dict(seed=5),
        ),
        (
            DiurnalTrafficModel(
                mean_rate_per_s=20.0, day_length_s=300.0, phase_s=40.0,
                phase_h=-7.5,
            ),
            dict(burst_rate_per_hour=60.0, burst_factor=2.5, seed=6),
        ),
    ], ids=["bursts", "no-bursts", "phase-h"])
    def test_stream_matches_reference(self, model, kwargs):
        fast, fast_rng = _stream_and_generator(model, 300.0, **kwargs)
        oracle, oracle_rng = diurnal_poisson_stream_reference(
            model, 300.0, **kwargs
        )
        assert len(fast) > 1000
        assert fast == oracle
        assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        mean=st.floats(min_value=1e-3, max_value=1e6),
        peak_to_mean=st.floats(min_value=1.0, max_value=10.0),
        day=st.floats(min_value=1.0, max_value=1e6),
        phase_s=st.floats(min_value=-1e5, max_value=1e5),
        phase_h=st.one_of(st.just(0.0), st.floats(min_value=-24, max_value=24)),
        floor=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1e7),
    )
    def test_rate_at_matches_reference(self, mean, peak_to_mean, day,
                                       phase_s, phase_h, floor, t):
        model = DiurnalTrafficModel(
            mean_rate_per_s=mean, peak_to_mean=peak_to_mean,
            day_length_s=day, phase_s=phase_s, phase_h=phase_h,
            floor_fraction=floor,
        )
        assert model.rate_at(t) == rate_at_reference(model, t)
