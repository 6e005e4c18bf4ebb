"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest simbench/tests``.
"""

import json
import re
import sys
import types

import pytest
from conftest import BENCH
from layers import LEDGER_LAYERS, PER_LAYER_METRICS, LayerProbe
from run import END_TO_END_METRICS, run_op, run_pass, tally
from spans import Patcher, Tracer, span_wrapper
from workloads import WORKLOADS, Check, Op, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in END_TO_END_METRICS + PER_LAYER_METRICS]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END_METRICS + PER_LAYER_METRICS:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _zoo_op(name="LC2"):
    workload = WORKLOADS["zoo_exec"]
    return next(op for op in workload.ops(workload.setup(0)) if op.key == name)


def test_wrong_pinned_digest_is_a_counted_failure():
    op = _zoo_op()
    good = run_op(op, None, None)
    assert good.problems == [] and good.digest
    bad = run_op(op, "0" * 64, None)
    assert bad.problems == ["output differs from the pinned digest"]
    assert bad.digest == good.digest

    workload = Workload("one", "op", lambda seed: None, lambda state: [op])
    passes = [run_pass(workload, None, {op.key: "0" * 64}, {}) for _ in range(2)]
    assert tally(passes) == (2, [
        {"key": "LC2", "problems": ["output differs from the pinned digest"]},
    ] * 2)


def test_raising_op_is_a_counted_failure():
    def boom():
        raise ValueError("model too large")

    result = run_op(Op("x", boom, lambda r: Check((), (), 1)), None, None)
    assert result.problems == ["raised"] and result.digest is None


def test_digests_are_pinned_for_every_seed_variant():
    pins = json.loads((BENCH / "digests.json").read_text())
    for name, workload in WORKLOADS.items():
        for seed in (0, 7, 15, 123):
            for op in workload.ops(workload.setup(seed)):
                assert op.key in pins[name], (name, op.key)


def _synthetic_tracer():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3].
    times = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(times))
    tracer.open("perf.a")
    tracer.open("memory.b")
    tracer.open("kernels.c")
    tracer.close()
    tracer.close()
    tracer.open("memory.d")
    tracer.close()
    tracer.close()
    return tracer


def test_self_time_on_a_synthetic_span_tree():
    tracer = _synthetic_tracer()
    assert tracer.self_s("perf.a") == 3.0  # 10 - (4 - 1) - (9 - 5)
    assert tracer.self_s("memory.b") == 2.0  # 3 - 1
    assert tracer.self_s("kernels.c") == 1.0
    assert tracer.self_s("memory.d") == 4.0
    assert tracer.inclusive_s("memory.b") + tracer.inclusive_s("memory.d") == 7.0
    assert tracer.calls("memory.b") == 1 and tracer.calls("memory.d") == 1
    assert tracer.top_level_s() == 10.0


def test_ledger_rows_sum_to_the_pass_time():
    probe = LayerProbe(_synthetic_tracer())
    rows = probe.ledger(traced_wall_s=12.0)
    assert set(rows) == set(LEDGER_LAYERS) | {"other"}
    assert rows["perf"] == 3.0 and rows["memory"] == 6.0 and rows["kernels"] == 1.0
    assert rows["other"] == 2.0
    assert sum(rows.values()) == 12.0


def test_patcher_replaces_every_binding_and_restores_them():
    def original():
        return 1

    first = types.ModuleType("simbench_test_first")
    second = types.ModuleType("simbench_test_second")
    first.f = second.g = original
    sys.modules.update({first.__name__: first, second.__name__: second})
    try:
        tracer = Tracer()
        patcher = Patcher()
        assert patcher.function(original, lambda fn: span_wrapper(fn, tracer, "perf.f")) == 2
        assert first.f() == second.g() == 1
        assert tracer.calls("perf.f") == 2
        patcher.restore()
        assert first.f is original and second.g is original

        patcher.function(original, lambda fn: span_wrapper(fn, tracer, "perf.f"))
        leaked = first.f
        patcher.restore()
        first.f = leaked
        with pytest.raises(RuntimeError, match="wrappers left installed"):
            patcher.restore()
    finally:
        del sys.modules[first.__name__], sys.modules[second.__name__]


def test_layer_probe_removes_every_wrapper():
    from repro.memory.scratch import plan_allocation
    from repro.perf import executor

    run = executor.Executor.run
    probe = LayerProbe(Tracer())
    probe.install()
    assert executor.Executor.run is not run
    assert executor.plan_allocation is not plan_allocation
    probe.remove()
    assert executor.Executor.run is run
    assert executor.plan_allocation is plan_allocation


def test_traced_op_matches_untraced_digest():
    op = _zoo_op("LC1")
    untraced = run_op(op, None, None)
    probe = LayerProbe(Tracer())
    try:
        probe.install()
        traced = run_op(op, None, untraced.digest)
    finally:
        probe.remove()
    assert traced.problems == []
    assert probe.tracer.calls("perf.run") == 1
    # One kernel estimate per op in the warm-up pass and one in the measured pass.
    ops = probe.tracer.counts["executor_ops"]
    assert ops > 0 and probe.tracer.calls("kernels.estimate") == 2 * ops
