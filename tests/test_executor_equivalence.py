"""Differential tests: the executor's priming-only warmup versus the
original loop.

:meth:`repro.perf.Executor.run` estimates each op once per run and warms
the LLC with only the hierarchy reads and writes of a pass.  The oracle,
:class:`tests.executor_reference.ReferenceExecutor`, is the original
``run``, which estimated and fully costed every op in every warmup pass.
Reports must be identical field for field, including every ``OpProfile``,
for all 14 zoo models on MTIA 2i and on a derived chip whose small LLC
evicts, for 0, 1 and 2 warmup passes; the hierarchy must see the same
reads and writes in the same order.
"""

from __future__ import annotations

import pytest

import repro.perf.executor as executor_module
import tests.executor_reference as reference_module
from repro.arch import mtia2i_spec
from repro.codesign import smoke_space
from repro.memory import MemoryHierarchy
from repro.models.zoo import figure6_models, table1_models
from repro.perf.executor import Executor
from repro.tensors.tensor import stable_uid_scope
from tests.executor_reference import ReferenceExecutor

MODELS = table1_models() + figure6_models()
WARMUPS = (0, 1, 2)


def _small_llc_chip():
    """The smoke grid's smallest chip: 128 MiB of SRAM, so its LLC evicts."""
    space = smoke_space()
    return space.to_chip(space.point_at((0,) * len(space.axes())))


CHIPS = {"mtia2i": mtia2i_spec(), "small_llc": _small_llc_chip()}
_GRAPHS = {}


def _graph(model):
    if model.name not in _GRAPHS:
        with stable_uid_scope():
            _GRAPHS[model.name] = model.build_at(model.batch)
    return _GRAPHS[model.name]


def test_zoo_has_14_models():
    assert len(MODELS) == 14


@pytest.mark.parametrize("chip_name", sorted(CHIPS))
@pytest.mark.parametrize("warmup_runs", WARMUPS)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_report_matches_reference(model, warmup_runs, chip_name):
    chip, graph = CHIPS[chip_name], _graph(model)
    runs_before = reference_module.CALLS["runs"]
    warmup_before = reference_module.CALLS["warmup_ops"]
    want = ReferenceExecutor(chip).run(graph, model.batch, warmup_runs=warmup_runs)
    got = Executor(chip).run(graph, model.batch, warmup_runs=warmup_runs)
    assert reference_module.CALLS["runs"] == runs_before + 1
    assert (
        reference_module.CALLS["warmup_ops"] - warmup_before
        == warmup_runs * len(graph.ops)
    )
    assert len(got.op_profiles) == len(graph.ops)
    assert got == want


def test_small_llc_chip_draws_victims(monkeypatch):
    """The derived chip's LLC fills up, so the comparisons above cover
    random-victim eviction."""
    hierarchies = []
    original = MemoryHierarchy.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        hierarchies.append(self)

    monkeypatch.setattr(MemoryHierarchy, "__init__", recording_init)
    for model in MODELS:
        Executor(CHIPS["small_llc"]).run(_graph(model), model.batch)
    evicting = [h for h in hierarchies if h.llc is not None and h.llc.stats.evictions]
    assert evicting and all(h.llc.replacement == "random" for h in evicting)


def _moves(executor, model, monkeypatch, warmup_runs):
    log = []
    for name in ("read", "write"):
        original = getattr(MemoryHierarchy, name)

        def recording(self, tensor, num_bytes=None, _original=original, _name=name):
            log.append((_name, tensor.uid, num_bytes))
            return _original(self, tensor, num_bytes)

        monkeypatch.setattr(MemoryHierarchy, name, recording)
    executor.run(_graph(model), model.batch, warmup_runs=warmup_runs)
    monkeypatch.undo()
    return log


@pytest.mark.parametrize("model", MODELS[:4] + MODELS[-2:], ids=lambda m: m.name)
def test_warmup_moves_match_reference(model, monkeypatch):
    """Warmup still goes through ``MemoryHierarchy.read``/``write``, in
    the original order."""
    chip = CHIPS["mtia2i"]
    want = _moves(ReferenceExecutor(chip), model, monkeypatch, 2)
    got = _moves(Executor(chip), model, monkeypatch, 2)
    assert got and got == want


@pytest.mark.parametrize("warmup_runs", WARMUPS)
def test_each_op_estimated_once(warmup_runs, monkeypatch):
    calls = []
    original = executor_module.estimate_op

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(executor_module, "estimate_op", counting)
    model = MODELS[0]
    graph = _graph(model)
    Executor(CHIPS["mtia2i"]).run(graph, model.batch, warmup_runs=warmup_runs)
    assert calls == list(graph.ops)
