"""Reference executor, kept as a differential-test oracle.

:meth:`repro.perf.Executor.run` estimates each op once and warms the LLC
with only the hierarchy reads and writes of a pass.
:class:`ReferenceExecutor` is the original ``run``: every warmup pass
estimates every op again and routes it through the full traffic model
(read-factor scaling, the TBE Che lookup, writeback accounting), and the
measured pass estimates every op a second time.  Only the unused
index-stream generator and its always-zero TBE replay counters are left
out.  ``tests/test_executor_equivalence.py`` requires identical reports.
"""

from __future__ import annotations

import math
from typing import List

from repro.graph.ops import OpType
from repro.memory.che import tbe_llc_hit_rate
from repro.memory.hierarchy import Traffic
from repro.perf.executor import (
    TBE_LLC_SHARE,
    ExecutionReport,
    Executor,
    OpProfile,
    _scale_traffic,
)
from repro.tensors.tensor import TensorKind

# How often the oracle ran, so a test can prove it was exercised.
CALLS = {"runs": 0, "warmup_ops": 0}


class ReferenceExecutor(Executor):
    """:class:`Executor` with the original warmup and measured loops."""

    def run(self, graph, batch, warmup_runs=1):
        if batch <= 0:
            raise ValueError("batch must be positive")
        if warmup_runs < 0:
            raise ValueError("warmup_runs must be non-negative")
        CALLS["runs"] += 1
        graph.validate_schedule()
        hierarchy, activation_bytes, in_lls = self._build_hierarchy(graph)
        for _ in range(warmup_runs):
            for op in graph.ops:
                CALLS["warmup_ops"] += 1
                estimate = self._estimate(op)
                self._reference_op_traffic(op, hierarchy, estimate)
        profiles: List[OpProfile] = []
        energy = 0.0
        sparse_hits = sparse_total = 0
        dense_hits_before = hierarchy.llc.stats.hits if hierarchy.llc else 0
        dense_total_before = hierarchy.llc.stats.accesses if hierarchy.llc else 0
        for op in graph.ops:
            estimate = self._estimate(op)
            traffic, tbe_stats = self._reference_op_traffic(op, hierarchy, estimate)
            if tbe_stats is not None:
                sparse_hits += tbe_stats["scaled_hits"]
                sparse_total += tbe_stats["total_rows"]
            profile = self._profile_op(op, estimate, traffic)
            profiles.append(profile)
            energy += self._op_energy(profile)
        if hierarchy.llc:
            dense_hits = hierarchy.llc.stats.hits - dense_hits_before
            dense_total = hierarchy.llc.stats.accesses - dense_total_before
        else:
            dense_hits = dense_total = 0
        return ExecutionReport(
            chip_name=self.chip.name,
            model_name=graph.name,
            batch=batch,
            op_profiles=profiles,
            dense_hit_rate=dense_hits / dense_total if dense_total > 0 else 1.0,
            sparse_hit_rate=sparse_hits / sparse_total if sparse_total > 0 else 0.0,
            activation_buffer_bytes=activation_bytes,
            lls_bytes=hierarchy.partition.lls_bytes,
            llc_bytes=hierarchy.partition.llc_bytes,
            activations_in_lls=in_lls,
            weight_bytes=graph.weight_bytes(),
            energy_j=energy,
        )

    def _reference_op_traffic(self, op, hierarchy, estimate):
        traffic = Traffic()
        tbe_stats = None
        writebacks_before = (
            hierarchy.llc.stats.bytes_written_back if hierarchy.llc else 0
        )
        grid_side = max(1, int(round(math.sqrt(self.chip.num_pes))))
        if op.op_type is OpType.TBE:
            tables = [t for t in op.inputs if t.kind == TensorKind.EMBEDDING]
            if tables:
                gathered, tbe_stats = self._reference_tbe_traffic(op, tables, hierarchy)
                traffic += gathered
        seen = set()
        for tensor in op.inputs:
            if tensor.uid in seen:
                continue
            seen.add(tensor.uid)
            if op.op_type is OpType.TBE and tensor.kind == TensorKind.EMBEDDING:
                continue  # handled above
            is_weight = tensor.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING)
            factor = (
                estimate.weight_read_factor if is_weight else estimate.activation_read_factor
            )
            moved = hierarchy.read(tensor)
            replication = 1.0
            if is_weight and not estimate.broadcast_weights:
                replication = float(grid_side)
            scaled = _scale_traffic(moved, factor, noc_scale=factor * replication)
            scaled.host_bytes = moved.host_bytes
            traffic += scaled
        for tensor in op.outputs:
            moved = hierarchy.write(tensor)
            traffic += _scale_traffic(moved, estimate.output_write_factor)
        if hierarchy.llc:
            traffic.dram_bytes += (
                hierarchy.llc.stats.bytes_written_back - writebacks_before
            )
        if self.host_input_fraction != 1.0:
            traffic.host_bytes *= self.host_input_fraction
        return traffic, tbe_stats

    def _reference_tbe_traffic(self, op, tables, hierarchy):
        total_rows = max(1, op.attrs["total_rows"])
        num_tables = max(1, op.attrs["num_tables"])
        row_bytes = max(1, tables[0].shape[1] * tables[0].dtype.bytes)
        if hierarchy.llc is not None:
            hit_rate = tbe_llc_hit_rate(
                num_rows_per_table=tables[0].shape[0],
                num_tables=num_tables,
                row_bytes=row_bytes,
                llc_bytes_for_tbe=int(hierarchy.partition.llc_bytes * TBE_LLC_SHARE),
                block_bytes=hierarchy.block_bytes,
                zipf_exponent=self.zipf_exponent,
            )
        else:
            hit_rate = 0.0
        total_bytes = float(total_rows * row_bytes)
        traffic = Traffic(
            sram_bytes=total_bytes,
            dram_bytes=total_bytes * (1.0 - hit_rate),
            noc_bytes=total_bytes,
        )
        stats = {
            "scaled_hits": int(round(hit_rate * total_rows)),
            "total_rows": total_rows,
        }
        return traffic, stats
