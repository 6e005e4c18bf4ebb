"""Differential tests: the capacity searches against their linear-scan
oracles.

``replicas_needed`` and ``max_qps_at_slo`` both run through one boundary
search, :func:`repro.surrogate.verify.verified_min_feasible`.  Started at
its lower bound it is the linear scan, so without a surrogate the
searches must issue the oracles' ``run_cluster`` calls — same replica
counts, same offered load, same ``fail_fast`` — in the same order, and
return the same points.  A surrogate only moves where the search starts;
stub surrogates guessing low, high and out of range must still land on
the oracles' answers.  The oracles are the original scans, kept in
:mod:`tests.capacity_reference`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import tests.capacity_reference as reference_module
from repro.cluster import capacity
from repro.cluster.capacity import (
    _LOAD_LADDER,
    capacity_sweep,
    max_qps_at_slo,
    replicas_needed,
)
from repro.cluster.service import ServiceModel
from repro.obs.metrics import MetricsRegistry
from repro.power.cluster_link import (
    power_limited_capacity_sweep,
    service_model_at_budget,
)
from tests.capacity_reference import (
    reference_max_qps_at_slo,
    reference_replicas_needed,
    reference_step_fractions,
)

SERVICE = ServiceModel(mean_service_s=0.004, jitter_sigma=0.3)

# (policy, offered QPS, P99 SLO, max_replicas, seed): a boundary three
# above the work-conserving floor (4 replicas at 900 QPS), one at the
# floor, one at ``max_replicas``, a range with no feasible size, and a
# floor above ``max_replicas`` (an empty range).
REPLICA_CELLS = (
    ("po2", 900.0, 0.012, 40, 0),
    ("round_robin", 900.0, 0.100, 40, 1),
    ("po2", 900.0, 0.012, 7, 0),
    ("po2", 900.0, 0.012, 6, 0),
    ("jsq", 3000.0, 0.100, 8, 2),
)

# (replicas, P99 SLO, seed): a loose and a tight SLO, and one no rung
# of the ladder can hold.
QPS_CELLS = (
    (4, 0.100, 0),
    (8, 0.020, 1),
    (4, 0.001, 0),
)


class _Stub:
    """Any object with ``predict`` serves as a surrogate."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.calls = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        self.calls += 1
        return np.full(len(X), self.value)


def _recording(calls):
    def wrap(run_cluster):
        def recorded(config, service, requests, *args, **kwargs):
            arrivals = hashlib.sha256(
                np.array([r.arrival_s for r in requests]).tobytes()
            ).hexdigest()
            calls.append(
                (config, service, arrivals, kwargs.get("fail_fast", False))
            )
            return run_cluster(config, service, requests, *args, **kwargs)
        return recorded
    return wrap


@pytest.fixture
def run_cluster_calls(monkeypatch):
    """Record every ``run_cluster`` call the searches and oracles make,
    as ``{"new": [...], "reference": [...]}``."""
    calls = {"new": [], "reference": []}
    monkeypatch.setattr(
        capacity, "run_cluster", _recording(calls["new"])(capacity.run_cluster)
    )
    monkeypatch.setattr(
        reference_module, "run_cluster",
        _recording(calls["reference"])(reference_module.run_cluster),
    )
    return calls


def test_load_ladder_is_the_step_down_ladder():
    assert _LOAD_LADDER == reference_step_fractions()


@pytest.mark.parametrize("cell", REPLICA_CELLS)
def test_replicas_needed_matches_scan_call_for_call(cell, run_cluster_calls):
    policy, qps, slo, max_replicas, seed = cell
    kwargs = dict(
        p99_slo_s=slo, duration_s=3.0, max_replicas=max_replicas, seed=seed
    )
    point = replicas_needed(policy, qps, SERVICE, **kwargs)
    expected = reference_replicas_needed(policy, qps, SERVICE, **kwargs)
    assert point == expected
    assert run_cluster_calls["new"] == run_cluster_calls["reference"]
    assert run_cluster_calls["new"]


@pytest.mark.parametrize("cell", QPS_CELLS)
def test_max_qps_at_slo_matches_scan_call_for_call(cell, run_cluster_calls):
    replicas, slo, seed = cell
    answer = max_qps_at_slo(SERVICE, replicas, slo, 3.0, seed)
    expected = reference_max_qps_at_slo(SERVICE, replicas, slo, 3.0, seed)
    assert answer == expected
    assert run_cluster_calls["new"] == run_cluster_calls["reference"]


@pytest.mark.parametrize("cell", REPLICA_CELLS)
@pytest.mark.parametrize("offset", (-6, 9, 500, -500))
def test_guided_replicas_needed_matches_scan(cell, offset):
    """Stub guesses below, above and far outside ``[floor, max]``."""
    policy, qps, slo, max_replicas, seed = cell
    kwargs = dict(
        p99_slo_s=slo, duration_s=3.0, max_replicas=max_replicas, seed=seed
    )
    expected = reference_replicas_needed(policy, qps, SERVICE, **kwargs)
    stub = _Stub(expected.replicas + offset)
    registry = MetricsRegistry()
    point = replicas_needed(
        policy, qps, SERVICE, surrogate=stub, registry=registry, **kwargs
    )
    assert point == expected
    assert stub.calls == 1
    counters = registry.snapshot()["counters"]
    assert counters["surrogate.capacity.predictions"] == 1


def test_guided_replicas_needed_floor_above_max_returns_ceiling():
    """``ceil(qps * service)`` = 120 > ``max_replicas`` = 96: the range
    to search is empty, so the guided search must fall through to the
    exhaustive ceiling run, exactly like the scan, not raise."""
    kwargs = dict(duration_s=0.5, max_replicas=96)
    expected = reference_replicas_needed("po2", 30_000.0, SERVICE, **kwargs)
    stub = _Stub(130.0)
    point = replicas_needed(
        "po2", 30_000.0, SERVICE, surrogate=stub, **kwargs
    )
    assert stub.calls == 1
    assert point == expected
    assert (point.replicas, point.feasible) == (96, False)


def test_guided_capacity_sweep_matches_scan():
    stub = _Stub(12.0)  # above every cell's boundary
    sweep = capacity_sweep(
        SERVICE, qps_points=(500.0, 900.0), policies=("po2", "jsq"),
        duration_s=3.0, surrogate=stub,
    )
    expected = tuple(
        reference_replicas_needed(policy, qps, SERVICE, duration_s=3.0)
        for policy in ("po2", "jsq")
        for qps in (500.0, 900.0)
    )
    assert sweep.points == expected
    assert stub.calls == len(expected)


@pytest.mark.parametrize("fraction", (0.1, 0.99, 5.0, -3.0))
def test_guided_power_sweep_matches_scan(fraction):
    """Stub rungs low, high and out of range on the load ladder."""
    budgets = (1200.0, 2000.0)
    kwargs = dict(replicas=8, duration_s=2.0, seed=0)
    stub = _Stub(fraction)
    registry = MetricsRegistry()
    sweep = power_limited_capacity_sweep(
        SERVICE, budgets, surrogate=stub, registry=registry, **kwargs
    )
    assert stub.calls == len(budgets)
    for point in sweep.points:
        scaled, _ = service_model_at_budget(SERVICE, point.per_chip_budget_w)
        assert (point.max_qps, point.p99_latency_s) == (
            reference_max_qps_at_slo(scaled, 8, sweep.p99_slo_s, 2.0, 0)
        )
    counters = registry.snapshot()["counters"]
    assert counters["surrogate.power.predictions"] == len(budgets)
