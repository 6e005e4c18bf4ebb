"""Differential tests: the maintained front door versus the per-replica scan.

:class:`~repro.cluster.simulator.ClusterSimulator` keeps its routable
replica list, up count and set of full replicas up to date per state
change, and asks the defense only about breakers that are not closed.
The original front door rebuilt the candidate list by scanning every
replica, and consulted every breaker, on each routed request.  These
tests run the same seeded inputs through both and require identical
outcomes: every report field (event log, latencies, counters) and the
defense tallies, which count the breaker refusals the scan observes.

The maintained path runs under :func:`validating_cluster_engine`, which
recounts every maintained structure after every event; the scan is
patched back in by :func:`per_replica_scan_routing`.

The power-of-two draw gets the same treatment.
:func:`~repro.cluster.routing.po2_pair` recomposes
``Generator.choice(n, 2, replace=False)`` from three bounded draws.  A
hypothesis test pins pair-for-pair and generator-state identity with
the ``choice`` call, and whole runs with the original ``choose``
patched back in by :func:`choice_po2_routing` must match report for
report.  Stream identity is a property of numpy's internals, so a numpy
upgrade that changes ``choice`` fails here.  All oracles live in
:mod:`tests.fastsim_reference`, and each one counts its calls, so every
comparison also proves that its oracle ran.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    BreakerConfig,
    DefenseConfig,
    DefenseRuntime,
    run_scenario,
    scenario_by_name,
    smoke_config,
    standard_catalog,
)
from repro.cluster import (
    POLICY_NAMES,
    AdmissionConfig,
    ClientRetryConfig,
    ClusterConfig,
    Injection,
    ServiceModel,
    autoscaled_day,
    default_service_model,
    run_cluster,
)
from repro.cluster.capacity import max_qps_at_slo
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.routing import po2_pair
from repro.fleet_global import region_outage_drill, run_fleet, standard_fleet
from repro.serving.workload import poisson_stream
from tests.fastsim_reference import (
    choice_po2_reference,
    choice_po2_routing,
    per_replica_scan_routing,
    recorded_cluster_runs,
    validating_cluster_engine,
)


def _validated(run):
    """``run()`` under the validating engine, which must have checked
    events; returns the result and the recorded ``(report, tallies)``."""
    with recorded_cluster_runs() as runs, \
            validating_cluster_engine() as engines:
        result = run()
    assert engines and all(engine.checks for engine in engines)
    assert len(runs) == len(engines)
    return result, runs


def _both_paths(run):
    """``run()`` on the maintained front door (under the validating
    engine) and on the per-replica scan; every cluster run inside must
    match report for report and tally for tally.  Returns the recorded
    ``(report, tallies)`` pairs of the maintained path and the scan's
    call counts."""
    fast, fast_runs = _validated(run)
    with recorded_cluster_runs() as scan_runs, \
            per_replica_scan_routing() as scan_calls:
        scan = run()
    assert scan_calls["_candidates"] > 0
    assert fast_runs == scan_runs
    assert fast == scan
    return fast_runs, scan_calls


def _both_draws(run):
    """``run()`` with :func:`~repro.cluster.routing.po2_pair` (under the
    validating engine) and with the original ``choice`` draw; every
    cluster run inside must match report for report and tally for
    tally.  Returns the recorded runs of the fast path."""
    fast, fast_runs = _validated(run)
    with recorded_cluster_runs() as choice_runs, \
            choice_po2_routing() as calls:
        oracle = run()
    assert calls["choice"] > 0
    assert fast_runs == choice_runs
    assert fast == oracle
    return fast_runs


@pytest.mark.parametrize("defended", [False, True], ids=["undefended", "defended"])
@pytest.mark.parametrize("name", [s.name for s in standard_catalog()])
def test_chaos_scenarios_identical(name, defended):
    scenario = scenario_by_name(name)
    runs, scan_calls = _both_paths(
        lambda: run_scenario(scenario, smoke_config(), defended=defended)
    )
    assert [tallies is not None for _, tallies in runs] == [defended]
    # The brownout ladder is the only reader of the up count.
    assert (scan_calls["_up_count"] > 0) == (defended and scenario.use_brownout)


@pytest.mark.parametrize("defended", [False, True], ids=["undefended", "defended"])
@pytest.mark.parametrize("seed", [3, 11])
def test_region_outage_drill_identical(seed, defended):
    fleet = standard_fleet(replicas_per_region=4, duration_s=24.0, seed=seed)
    drill = region_outage_drill(fleet)
    runs, scan_calls = _both_paths(
        lambda: run_fleet(fleet, drill, defended=defended)
    )
    assert len(runs) == len(fleet.regions)
    assert (scan_calls["_up_count"] > 0) == defended


def test_autoscaled_day_with_drains_identical():
    service = default_service_model()

    def run():
        report, _ = autoscaled_day(
            service, mean_rate_per_s=0.5 / service.mean_service_s,
            day_length_s=600.0, fault_rate_per_replica_hour=20.0,
            max_replicas=16, seed=2,
        )
        return report

    [(report, _)], _ = _both_paths(run)
    kinds = {kind for _, kind, _ in report.event_log}
    assert {"drain", "replica_retired", "fault"} <= kinds


_SERVICE = ServiceModel(mean_service_s=0.01, jitter_sigma=0.4)
_REPLICAS = 6


def _breaker_run(injections, policy, cap, cooldown_s, probe_quota,
                 client, seed):
    """Six replicas near saturation behind hair-trigger breakers."""
    requests = poisson_stream(
        rate_per_s=0.85 * _REPLICAS / _SERVICE.mean_service_s,
        duration_s=4.0, samples_per_request=64, seed=seed,
    )
    config = ClusterConfig(
        replicas=_REPLICAS, num_hosts=3, policy=policy,
        admission=AdmissionConfig(max_outstanding_per_replica=cap),
        seed=seed,
    )
    defense = DefenseRuntime(DefenseConfig(
        deadline_s=0.5,
        breaker=BreakerConfig(
            failure_threshold=1, cooldown_s=cooldown_s,
            probe_quota=probe_quota, close_after_successes=2,
        ),
    ))
    return run_cluster(
        config, _SERVICE, requests,
        defense=defense, client=client, injections=injections,
    )


def test_breakers_trip_cool_down_and_half_open_identically():
    injections = (
        Injection(time_s=0.5, kind="down", targets=(0, 1)),
        Injection(time_s=0.6, kind="up", targets=(0, 1)),
        Injection(time_s=1.0, kind="partition", targets=(2,)),
        Injection(time_s=1.4, kind="heal", targets=(2,)),
        Injection(time_s=2.0, kind="down", targets=(3,)),
        Injection(time_s=2.05, kind="up", targets=(3,)),
    )
    [(report, tallies)], _ = _both_paths(lambda: _breaker_run(
        injections, "po2", cap=3, cooldown_s=0.3, probe_quota=1,
        client=ClientRetryConfig(timeout_s=0.2, max_retries=2), seed=4,
    ))
    _, _, breaker_rejections = tallies
    assert breaker_rejections > 0
    assert report.served > 0


_INJECTIONS = st.lists(
    st.builds(
        Injection,
        time_s=st.floats(min_value=0.0, max_value=4.0,
                         allow_nan=False, allow_infinity=False),
        kind=st.sampled_from(["down", "up", "partition", "heal"]),
        targets=st.lists(
            st.integers(min_value=0, max_value=_REPLICAS - 1),
            min_size=1, max_size=3, unique=True,
        ).map(tuple),
    ),
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(
    injections=_INJECTIONS,
    policy=st.sampled_from(POLICY_NAMES),
    cap=st.integers(min_value=1, max_value=6),
    cooldown_s=st.floats(min_value=0.05, max_value=1.0,
                         allow_nan=False, allow_infinity=False),
    probe_quota=st.integers(min_value=1, max_value=3),
    client=st.sampled_from(
        [None, ClientRetryConfig(timeout_s=0.15, max_retries=2)]
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_injection_schedules_identical(injections, policy, cap,
                                              cooldown_s, probe_quota,
                                              client, seed):
    _both_paths(lambda: _breaker_run(
        injections, policy, cap, cooldown_s, probe_quota, client, seed,
    ))


# ---------------------------------------------------------------------------
# The power-of-two draw: three bounded draws versus Generator.choice
# ---------------------------------------------------------------------------

_OTHER_DRAWS = {
    "random": lambda rng: rng.random(),
    "exponential": lambda rng: rng.exponential(0.37),
    "lognormal": lambda rng: rng.lognormal(-4.1, 0.45),
    "integers": lambda rng: rng.integers(0, 1000),
}

_POOL_SIZES = st.one_of(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=2, max_value=200_000),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    steps=st.lists(
        st.tuples(
            st.lists(st.sampled_from(sorted(_OTHER_DRAWS)), max_size=4),
            _POOL_SIZES,
        ),
        min_size=1, max_size=40,
    ),
)
def test_po2_pair_is_choice_draw_for_draw(seed, steps):
    """Same pairs, in order, and the same generator state after any
    interleaving with the other draws a cluster run makes."""
    fast = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    for others, n in steps:
        for name in others:
            assert _OTHER_DRAWS[name](fast) == _OTHER_DRAWS[name](oracle)
        assert po2_pair(fast, n) == choice_po2_reference(oracle, n)
    assert fast.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("defended", [False, True], ids=["undefended", "defended"])
@pytest.mark.parametrize("name", [s.name for s in standard_catalog()])
def test_chaos_scenarios_identical_on_choice_draw(name, defended):
    scenario = scenario_by_name(name)
    _both_draws(lambda: run_scenario(scenario, smoke_config(), defended=defended))


@pytest.mark.parametrize("defended", [False, True], ids=["undefended", "defended"])
def test_region_outage_drill_identical_on_choice_draw(defended):
    fleet = standard_fleet(replicas_per_region=4, duration_s=24.0, seed=3)
    drill = region_outage_drill(fleet)
    runs = _both_draws(lambda: run_fleet(fleet, drill, defended=defended))
    assert len(runs) == len(fleet.regions)


def test_locality_spill_identical_on_choice_draw():
    """Local groups saturate, so the locality policy spills through its
    power-of-two fallback."""
    service = ServiceModel(mean_service_s=0.01, jitter_sigma=0.4)
    requests = poisson_stream(
        rate_per_s=0.9 * 8 / service.mean_service_s,
        duration_s=3.0, samples_per_request=64, seed=7,
    )
    config = ClusterConfig(replicas=8, num_hosts=4, policy="locality", seed=7)
    locality = ShardLocalityMap(num_shards=4, shard_weights=(0.7, 0.1, 0.1, 0.1))
    [(report, _)] = _both_draws(
        lambda: run_cluster(config, service, requests, locality=locality)
    )
    assert report.cross_host_served > 0


def test_max_qps_probe_identical_on_choice_draw():
    service = default_service_model()
    runs = _both_draws(lambda: max_qps_at_slo(
        service, replicas=4, p99_slo_s=0.1, duration_s=6.0, seed=1,
    ))
    assert runs
