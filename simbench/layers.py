"""Per-layer probes: which entry points of ``repro`` the traced run wraps,
and the per-layer metrics and ledger derived from the spans.

Every wrapper sits on a public entry point of one layer.  Span names are
``<layer>.<entry>``; the ledger attributes each span's self time to its
layer, and whatever no span covers goes to ``other``, so the rows sum to
the traced pass time.

Metric naming: ``<layer>.<x>_s`` is the inclusive host time spent in
that entry point; ``<layer>.self_s`` and ``ledger.<layer>_s`` are self
time (children removed).  Counts and ratios are per traced pass.  What
each group should move, and where:

* perf, kernels, memory LLC -> ``items_per_cpu_s`` on zoo_exec (and on
  codesign_search through the exact rungs);
* memory plan, graph, autotune, surrogate, codesign -> ``items_per_cpu_s``
  on codesign_search;
* cluster, fastsim, chaos, fleet_global, serving -> ``items_per_cpu_s``
  on fleet_outage (cluster and serving also on codesign_search); none of
  these should move anything on zoo_exec.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Patcher, Tracer, count_wrapper, span_wrapper

LEDGER_LAYERS = (
    "perf", "memory", "kernels", "graph", "autotune", "surrogate",
    "codesign", "cluster", "chaos", "fleet_global", "serving",
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("executor.runs", "count"),
    ("executor.ops", "count"),
    ("executor.self_s", "s"),
    ("executor.us_per_op", "us"),
    ("memory.move_s", "s"),
    ("memory.moves", "count"),
    ("memory.llc_accesses", "count"),
    ("memory.llc_hit_rate", "fraction"),
    ("memory.llc_writeback_bytes", "B"),
    ("memory.us_per_llc_access", "us"),
    ("memory.plan_s", "s"),
    ("memory.plan_calls", "count"),
    ("memory.plan_buffers", "count"),
    ("memory.che_s", "s"),
    ("kernels.estimate_s", "s"),
    ("kernels.estimates", "count"),
    ("graph.build_s", "s"),
    ("graph.builds", "count"),
    ("autotune.tune_s", "s"),
    ("autotune.tune_calls", "count"),
    ("autotune.runs_per_decision", "ratio"),
    ("surrogate.train_s", "s"),
    ("surrogate.collect_s", "s"),
    ("surrogate.predict_calls", "count"),
    ("codesign.evals.surrogate", "count"),
    ("codesign.evals.device", "count"),
    ("codesign.evals.serving", "count"),
    ("codesign.eval_s.surrogate", "s"),
    ("codesign.eval_s.device", "s"),
    ("codesign.eval_s.serving", "s"),
    ("codesign.self_s", "s"),
    ("codesign.eval_reduction", "ratio"),
    ("cluster.runs", "count"),
    ("cluster.run_s", "s"),
    ("cluster.requests", "count"),
    ("cluster.us_per_request", "us"),
    ("cluster.probes_per_answer", "ratio"),
    ("cluster.retried", "count"),
    ("cluster.client_retries", "count"),
    ("cluster.duplicate_service", "count"),
    ("cluster.useful_service_ratio", "ratio"),
    ("fastsim.events", "count"),
    ("cluster.us_per_event", "us"),
    ("chaos.defense_s", "s"),
    ("chaos.defense_calls", "count"),
    ("chaos.replica_refusals", "count"),
    ("fleet_global.self_s", "s"),
    ("fleet_global.spill_fraction", "fraction"),
    ("serving.arrivals_s", "s"),
    ("serving.requests_generated", "count"),
    ("serving.ns_per_arrival", "ns"),
    *((f"ledger.{layer}_s", "s") for layer in LEDGER_LAYERS),
    ("ledger.other_s", "s"),
    ("ledger.pass_s", "s"),
    ("trace.overhead", "ratio"),
)

_DEFENSE_METHODS = (
    "past_deadline", "take_retry_token", "backoff_s", "replica_allowed",
    "on_dispatch", "on_replica_success", "on_replica_failure",
)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class LayerProbe:
    """Wraps the layer entry points while active and accumulates counts."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patcher = Patcher()
        self._hierarchies: List = []

    # -- hooks ----------------------------------------------------------

    def _fold_llc(self) -> None:
        counts = self.tracer.counts
        for hierarchy in self._hierarchies:
            if hierarchy.llc is not None:
                stats = hierarchy.llc.stats
                counts["llc_accesses"] += stats.accesses
                counts["llc_hits"] += stats.hits
                counts["llc_writeback_bytes"] += stats.bytes_written_back
        self._hierarchies.clear()

    def _after_executor_run(self, tracer, args, kwargs, report) -> None:
        tracer.counts["executor_ops"] += len(_arg(args, kwargs, 1, "graph").ops)
        if tracer.inside("autotune.tune"):
            tracer.counts["tune_runs"] += 1
        self._fold_llc()

    def _after_hierarchy_init(self, tracer, args, kwargs, result) -> None:
        self._hierarchies.append(args[0])

    @staticmethod
    def _after_plan(tracer, args, kwargs, plan) -> None:
        tracer.counts["plan_buffers"] += len(_arg(args, kwargs, 0, "requests"))

    @staticmethod
    def _after_search(tracer, args, kwargs, result) -> None:
        tracer.counts["candidates_scored"] += result.candidates_scored
        tracer.counts["exact_evals"] += result.exact_evals

    @staticmethod
    def _after_run_cluster(tracer, args, kwargs, report) -> None:
        counts = tracer.counts
        counts["cluster_requests"] += report.offered
        counts["cluster_served"] += report.served
        counts["cluster_retried"] += report.retried
        counts["cluster_client_retries"] += report.client_retries
        counts["cluster_duplicate_service"] += report.duplicate_service
        if tracer.inside("cluster.max_qps"):
            counts["cluster_probes"] += 1

    @staticmethod
    def _after_pop(tracer, args, kwargs, entry) -> None:
        tracer.counts["events"] += 1

    @staticmethod
    def _after_replica_allowed(tracer, args, kwargs, allowed) -> None:
        if not allowed:
            tracer.counts["replica_refusals"] += 1

    @staticmethod
    def _after_fleet(tracer, args, kwargs, report) -> None:
        tracer.counts["fleet_offered"] += report.offered
        tracer.counts["fleet_spilled"] += report.spilled_served

    @staticmethod
    def _after_stream(tracer, args, kwargs, requests) -> None:
        tracer.counts["requests_generated"] += len(requests)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        from repro.autotune.placement import tune_placement
        from repro.chaos.defense import DefenseRuntime
        from repro.cluster.capacity import max_qps_at_slo
        from repro.cluster.simulator import run_cluster
        from repro.codesign.objectives import CodesignObjective
        from repro.codesign.search import run_codesign_search
        from repro.fastsim.engine import EventEngine
        from repro.fleet_global.simulator import run_fleet
        from repro.kernels.registry import estimate_op
        from repro.memory.che import tbe_llc_hit_rate
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.memory.scratch import plan_allocation
        from repro.models.dhen import build_dhen
        from repro.models.dlrm import build_dlrm
        from repro.models.hstu import build_hstu
        from repro.perf.executor import Executor
        from repro.serving.workload import diurnal_poisson_stream, poisson_stream
        from repro.surrogate.dataset import (
            collect_executor_graph_dataset,
            train_executor_surrogate,
        )
        from repro.surrogate.model import SurrogateModel

        tracer, patch = self.tracer, self._patcher

        def span(name, after=None):
            return lambda fn: span_wrapper(fn, tracer, name, after)

        patch.method(Executor, "run", span("perf.run", self._after_executor_run))
        patch.method(
            MemoryHierarchy, "__init__",
            lambda fn: count_wrapper(fn, tracer, self._after_hierarchy_init),
        )
        patch.method(MemoryHierarchy, "read", span("memory.move"))
        patch.method(MemoryHierarchy, "write", span("memory.move"))
        patch.function(plan_allocation, span("memory.plan", self._after_plan))
        patch.function(tbe_llc_hit_rate, span("memory.che"))
        patch.function(estimate_op, span("kernels.estimate"))
        for builder in (build_dlrm, build_dhen, build_hstu):
            patch.function(builder, span("graph.build"))
        patch.function(tune_placement, span("autotune.tune"))
        patch.function(train_executor_surrogate, span("surrogate.train"))
        patch.function(collect_executor_graph_dataset, span("surrogate.collect"))
        patch.method(SurrogateModel, "predict", span("surrogate.predict"))
        patch.function(
            run_codesign_search, span("codesign.search", self._after_search)
        )
        patch.method(
            CodesignObjective, "evaluate",
            span(lambda args, kwargs: "codesign.eval." + _arg(args, kwargs, 3, "fidelity")),
        )
        patch.function(run_cluster, span("cluster.run", self._after_run_cluster))
        patch.function(max_qps_at_slo, span("cluster.max_qps"))
        patch.method(
            EventEngine, "pop", lambda fn: count_wrapper(fn, tracer, self._after_pop)
        )
        for method in _DEFENSE_METHODS:
            after = self._after_replica_allowed if method == "replica_allowed" else None
            patch.method(DefenseRuntime, method, span("chaos.defense", after))
        patch.function(run_fleet, span("fleet_global.run", self._after_fleet))
        patch.function(poisson_stream, span("serving.arrivals", self._after_stream))
        patch.function(
            diurnal_poisson_stream, span("serving.arrivals", self._after_stream)
        )

    def remove(self) -> None:
        self._fold_llc()
        self._patcher.restore()

    # -- results ----------------------------------------------------------

    def ledger(self, traced_wall_s: float) -> Dict[str, float]:
        """Self seconds per layer plus ``other``; rows sum to the wall time."""
        rows = {layer: 0.0 for layer in LEDGER_LAYERS}
        for name, (_, _, self_s) in self.tracer.totals.items():
            rows[name.split(".", 1)[0]] += self_s
        rows["other"] = traced_wall_s - self.tracer.top_level_s()
        return rows

    def metrics(self, passes: int, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
        """Every per-layer metric, per traced pass.

        ``traced_wall_s`` is the summed wall time of the traced passes;
        ``untraced_wall_s`` the median untraced pass, for the overhead.
        """
        t, c = self.tracer, self.tracer.counts

        def per_pass(value: float) -> float:
            return value / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        eval_s = {f: t.inclusive_s(f"codesign.eval.{f}") for f in ("surrogate", "device", "serving")}
        codesign_self = t.self_s("codesign.search") + sum(
            t.self_s(f"codesign.eval.{f}") for f in eval_s
        )
        cluster_s = t.inclusive_s("cluster.run")
        out = {
            "executor.runs": per_pass(t.calls("perf.run")),
            "executor.ops": per_pass(c["executor_ops"]),
            "executor.self_s": per_pass(t.self_s("perf.run")),
            "executor.us_per_op": 1e6 * ratio(t.inclusive_s("perf.run"), c["executor_ops"]),
            "memory.move_s": per_pass(t.inclusive_s("memory.move")),
            "memory.moves": per_pass(t.calls("memory.move")),
            "memory.llc_accesses": per_pass(c["llc_accesses"]),
            "memory.llc_hit_rate": ratio(c["llc_hits"], c["llc_accesses"]),
            "memory.llc_writeback_bytes": per_pass(c["llc_writeback_bytes"]),
            "memory.us_per_llc_access": 1e6 * ratio(
                t.inclusive_s("memory.move"), c["llc_accesses"]
            ),
            "memory.plan_s": per_pass(t.inclusive_s("memory.plan")),
            "memory.plan_calls": per_pass(t.calls("memory.plan")),
            "memory.plan_buffers": per_pass(c["plan_buffers"]),
            "memory.che_s": per_pass(t.inclusive_s("memory.che")),
            "kernels.estimate_s": per_pass(t.inclusive_s("kernels.estimate")),
            "kernels.estimates": per_pass(t.calls("kernels.estimate")),
            "graph.build_s": per_pass(t.inclusive_s("graph.build")),
            "graph.builds": per_pass(t.calls("graph.build")),
            "autotune.tune_s": per_pass(t.inclusive_s("autotune.tune")),
            "autotune.tune_calls": per_pass(t.calls("autotune.tune")),
            "autotune.runs_per_decision": ratio(c["tune_runs"], t.calls("autotune.tune")),
            "surrogate.train_s": per_pass(t.inclusive_s("surrogate.train")),
            "surrogate.collect_s": per_pass(t.inclusive_s("surrogate.collect")),
            "surrogate.predict_calls": per_pass(t.calls("surrogate.predict")),
            **{f"codesign.evals.{f}": per_pass(t.calls(f"codesign.eval.{f}")) for f in eval_s},
            **{f"codesign.eval_s.{f}": per_pass(s) for f, s in eval_s.items()},
            "codesign.self_s": per_pass(codesign_self),
            "codesign.eval_reduction": ratio(c["candidates_scored"], c["exact_evals"]),
            "cluster.runs": per_pass(t.calls("cluster.run")),
            "cluster.run_s": per_pass(cluster_s),
            "cluster.requests": per_pass(c["cluster_requests"]),
            "cluster.us_per_request": 1e6 * ratio(cluster_s, c["cluster_requests"]),
            "cluster.probes_per_answer": ratio(c["cluster_probes"], t.calls("cluster.max_qps")),
            "cluster.retried": per_pass(c["cluster_retried"]),
            "cluster.client_retries": per_pass(c["cluster_client_retries"]),
            "cluster.duplicate_service": per_pass(c["cluster_duplicate_service"]),
            "cluster.useful_service_ratio": ratio(
                c["cluster_served"], c["cluster_served"] + c["cluster_duplicate_service"]
            ),
            "fastsim.events": per_pass(c["events"]),
            "cluster.us_per_event": 1e6 * ratio(cluster_s, c["events"]),
            "chaos.defense_s": per_pass(t.inclusive_s("chaos.defense")),
            "chaos.defense_calls": per_pass(t.calls("chaos.defense")),
            "chaos.replica_refusals": per_pass(c["replica_refusals"]),
            "fleet_global.self_s": per_pass(t.self_s("fleet_global.run")),
            "fleet_global.spill_fraction": ratio(c["fleet_spilled"], c["fleet_offered"]),
            "serving.arrivals_s": per_pass(t.inclusive_s("serving.arrivals")),
            "serving.requests_generated": per_pass(c["requests_generated"]),
            "serving.ns_per_arrival": 1e9 * ratio(
                t.inclusive_s("serving.arrivals"), c["requests_generated"]
            ),
        }
        for layer, seconds in self.ledger(traced_wall_s).items():
            out[f"ledger.{layer}_s"] = per_pass(seconds)
        out["ledger.pass_s"] = per_pass(traced_wall_s)
        out["trace.overhead"] = ratio(per_pass(traced_wall_s), untraced_wall_s)
        return out


def ledger_table(workload: str, metrics: Dict[str, float]) -> str:
    """The per-workload ledger, one row per layer, in the NRSim style."""
    pass_s = metrics["ledger.pass_s"]
    lines = [
        f"layer ledger, {workload} (self host seconds per traced pass):",
        f"{'layer':<14}{'self_s':>10}{'share':>8}",
    ]
    for layer in (*LEDGER_LAYERS, "other"):
        seconds = metrics[f"ledger.{layer}_s"]
        share = seconds / pass_s if pass_s else 0.0
        lines.append(f"{layer:<14}{seconds:>10.4f}{share:>8.1%}")
    lines.append(f"{'total':<14}{pass_s:>10.4f}{1.0:>8.1%}")
    return "\n".join(lines)
