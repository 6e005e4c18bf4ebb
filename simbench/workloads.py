"""The three benchmark workloads, each one tier of the performance model.

A workload builds its inputs from the seed in :meth:`setup` and returns
one pass as a list of :class:`Op`.  An op is one unit that can fail:
one executor run, one fleet arm or one co-design search.  ``call`` is
the timed work; ``check`` (untimed) returns the simulated outputs to
digest, any violated invariant, and the op's work items.

Every op's outputs are pinned in ``digests.json``, so every run is
checked against this commit's model: the zoo and the searches are fixed
inputs whose order the seed permutes, and the fleet's seed selects one of
``VARIANTS`` seeded simulations (``seed % VARIANTS``), all of them pinned.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.arch.mtia import mtia2i_spec
from repro.codesign import SearchConfig, run_codesign_search, smoke_space
from repro.codesign.pareto import dominates
from repro.fleet_global import region_outage_drill, run_fleet, standard_fleet
from repro.models.zoo import figure6_models, table1_models
from repro.perf.executor import Executor
from repro.tensors.tensor import stable_uid_scope

VARIANTS = 16
SEARCHES_PER_PASS = 4


@dataclasses.dataclass(frozen=True)
class Check:
    """What an op produced: digestable outputs, violations, work items."""

    outputs: tuple
    problems: Tuple[str, ...]
    items: int


@dataclasses.dataclass(frozen=True)
class Op:
    key: str  # names the op's inputs; the pinned digest is looked up by it
    call: Callable[[], object]
    check: Callable[[object], Check]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one work item is, for the throughput metric
    setup: Callable[[int], object]
    ops: Callable[[object], List[Op]]


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


# -- zoo_exec: the chip tier alone ------------------------------------------


def _zoo_setup(seed: int):
    """All 14 zoo models, graphs built once under a stable uid scope; the
    seed only permutes the run order, which must not change any output."""
    chip = mtia2i_spec()
    entries = []
    for model in table1_models() + figure6_models():
        with stable_uid_scope():
            entries.append((model, model.build_at(model.batch)))
    order = np.random.default_rng(seed).permutation(len(entries))
    return chip, [entries[i] for i in order]


def _zoo_check(graph):
    def check(report) -> Check:
        problems = []
        if len(report.op_profiles) != len(graph.ops):
            problems.append("profile count differs from the op count")
        if not _positive(report.latency_s):
            problems.append(f"latency {report.latency_s!r} not positive")
        if not _positive(report.energy_j):
            problems.append(f"energy {report.energy_j!r} not positive")
        for name in ("dense_hit_rate", "sparse_hit_rate"):
            if not 0.0 <= getattr(report, name) <= 1.0:
                problems.append(f"{name} outside [0, 1]")
        outputs = (
            report.latency_s, report.energy_j, report.dense_hit_rate,
            report.sparse_hit_rate, report.activations_in_lls,
            report.lls_bytes, report.llc_bytes,
        )
        return Check(outputs, tuple(problems), 1)

    return check


def _zoo_ops(state) -> List[Op]:
    chip, entries = state
    return [
        Op(
            key=model.name,
            call=lambda model=model, graph=graph: Executor(chip).run(graph, model.batch),
            check=_zoo_check(graph),
        )
        for model, graph in entries
    ]


# -- fleet_outage: the request path alone -----------------------------------


def _fleet_setup(seed: int):
    variant = seed % VARIANTS
    config = standard_fleet(
        replicas_per_region=40, users_millions=32, duration_s=30.0, seed=variant
    )
    return variant, config, region_outage_drill(config)


def _fleet_check(defended: bool, offered_by_arm: Dict[bool, int]):
    def check(report) -> Check:
        problems = []
        if (report.served + report.shed + report.timed_out + report.spilled_served
                != report.offered):
            problems.append("fleet conservation violated")
        if report.lb_shed > report.shed:
            problems.append("LB sheds exceed sheds")
        for region in report.regions:
            if (region.served + region.spilled_served + region.shed
                    + region.timed_out != region.offered):
                problems.append(f"region {region.name} conservation violated")
        if not defended and report.spilled_served:
            problems.append("undefended arm spilled requests")
        if len(report.latencies_s) != report.served + report.spilled_served:
            problems.append("one latency per answered request expected")
        offered_by_arm[defended] = report.offered
        if len(set(offered_by_arm.values())) > 1:
            problems.append("the two arms saw different arrivals")
        outputs = (
            report.offered, report.served, report.shed, report.timed_out,
            report.spilled_served, report.lb_shed, report.p99_latency_s,
        )
        return Check(outputs, tuple(problems), report.offered)

    return check


def _fleet_ops(state) -> List[Op]:
    variant, config, drill = state
    offered_by_arm: Dict[bool, int] = {}
    return [
        Op(
            key=f"seed={variant}/{'defended' if defended else 'undefended'}",
            call=lambda defended=defended: run_fleet(config, drill, defended=defended),
            check=_fleet_check(defended, offered_by_arm),
        )
        for defended in (False, True)
    ]


# -- codesign_search: the search drivers ------------------------------------


def _codesign_setup(seed: int):
    """The CLI ``codesign --smoke`` search at search seeds
    ``0..SEARCHES_PER_PASS-1``, in a seed-permuted order.  The search seeds
    stay fixed because the work a search does depends on its seed: with
    four fresh search seeds per run, five runs on a 2-core x86 host spread
    9% in CPU time per pass and 18% in design points scored per CPU second
    (interquartile range over median), hiding any smaller regression."""
    space = smoke_space()
    models = [m for m in figure6_models() if m.name in ("LC1", "LC3", "HC1")]
    configs = [
        SearchConfig(
            seed=int(search_seed), iterations=40,
            device_rung_keep=10, serving_rung_keep=5, train_chips=10,
        )
        for search_seed in np.random.default_rng(seed).permutation(SEARCHES_PER_PASS)
    ]
    return space, models, configs


def _objectives(evaluation) -> tuple:
    return (evaluation.label, *evaluation.objectives())


def _codesign_check(result) -> Check:
    problems = []
    if not result.front:
        problems.append("empty front")
    if not result.all_front_exact:
        problems.append("a front point was not exact-evaluated")
    if not result.mtia2_dominates_mtia1:
        problems.append("MTIA 2i does not dominate MTIA 1")
    if any(dominates(a, b) for a in result.front for b in result.front):
        problems.append("the front holds a dominated point")
    outputs = (
        tuple(_objectives(e) for e in result.front),
        _objectives(result.proposal) if result.proposal is not None else None,
        result.candidates_scored,
        len(result.device_evals),
        len(result.serving_evals),
        result.exact_evals,
    )
    return Check(outputs, tuple(problems), result.candidates_scored)


def _codesign_ops(state) -> List[Op]:
    space, models, configs = state
    return [
        Op(
            key=f"seed={config.seed}",
            call=lambda config=config: run_codesign_search(
                space, models, config, duration_s=4.0
            ),
            check=_codesign_check,
        )
        for config in configs
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("zoo_exec", "executor run", _zoo_setup, _zoo_ops),
        Workload("fleet_outage", "simulated request", _fleet_setup, _fleet_ops),
        Workload("codesign_search", "scored design point", _codesign_setup, _codesign_ops),
    )
}
