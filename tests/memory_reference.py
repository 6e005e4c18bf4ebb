"""Reference implementations of the memory tier's hot paths, kept as
differential-test oracles.

These are the original, straightforward versions that
:mod:`repro.memory` replaced with faster ones:

* :class:`ReferenceCache` — the ``OrderedDict``-of-lines cache, one
  :meth:`~ReferenceCache.access` per block, copying the set's keys to draw
  a random victim.  It is verbatim except for the ways clamp
  (``min(associativity, total_blocks)``), which fixed a cache smaller
  than one set holding more than its capacity; the oracle carries the
  same geometry so the two stay comparable.
* :class:`ReferenceHierarchy` — :class:`repro.memory.MemoryHierarchy`
  with that cache under it and the original per-block ``_move`` loop over
  :func:`repro.memory.tensor_blocks`.
* :func:`reference_plan_allocation` — the O(n^2) greedy that rescans
  every placed buffer for overlap.

``tests/test_memory_equivalence.py`` runs them against the production
code and requires exact agreement.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Hashable, List, Optional, Sequence

from repro.memory import MemoryHierarchy, Placement, Traffic, tensor_blocks
from repro.memory.cache import CacheStats
from repro.memory.scratch import AllocationPlan, BufferRequest
from repro.memory.scratch import Placement as ScratchPlacement
from repro.memory.scratch import _align

BlockId = Hashable


@dataclasses.dataclass
class _Line:
    block: BlockId
    dirty: bool
    size_bytes: int


class ReferenceCache:
    """The original set-associative cache: an ``OrderedDict`` per set."""

    def __init__(
        self,
        capacity_bytes: int,
        block_bytes: int = 64 * 1024,
        associativity: int = 16,
        replacement: str = "random",
        seed: int = 0,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.replacement = replacement
        total_blocks = max(1, capacity_bytes // block_bytes)
        self.associativity = min(associativity, total_blocks)
        self.num_sets = max(1, total_blocks // self.associativity)
        self._sets: List["OrderedDict[BlockId, _Line]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self._rand_state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        self.stats = CacheStats()

    def _set_for(self, block: BlockId) -> "OrderedDict[BlockId, _Line]":
        return self._sets[hash(block) % self.num_sets]

    def _next_rand(self) -> int:
        self._rand_state = (self._rand_state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._rand_state

    def access(
        self, block: BlockId, write: bool = False, size_bytes: Optional[int] = None
    ) -> bool:
        size = self.block_bytes if size_bytes is None else min(size_bytes, self.block_bytes)
        cache_set = self._set_for(block)
        line = cache_set.get(block)
        if line is not None:
            if self.replacement == "lru":
                cache_set.move_to_end(block)
            line.dirty = line.dirty or write
            self.stats.hits += 1
            self.stats.bytes_hit += size
            return True
        self.stats.misses += 1
        self.stats.bytes_missed += size
        if len(cache_set) >= self.associativity:
            if self.replacement == "lru":
                _, victim = cache_set.popitem(last=False)
            else:
                keys = list(cache_set.keys())
                victim_key = keys[self._next_rand() % len(keys)]
                victim = cache_set.pop(victim_key)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_writebacks += 1
                self.stats.bytes_written_back += victim.size_bytes
        cache_set[block] = _Line(block=block, dirty=write, size_bytes=size)
        return False

    def access_run(self, uid: int, num_bytes: int, write: bool = False):
        """The per-block loop a tensor access used to be: (hit, missed) bytes."""
        hit_bytes = missed_bytes = 0
        for _, index, size in tensor_blocks(uid, num_bytes, self.block_bytes):
            if self.access((uid, index), write=write, size_bytes=size):
                hit_bytes += size
            else:
                missed_bytes += size
        return hit_bytes, missed_bytes

    def contains(self, block: BlockId) -> bool:
        return block in self._set_for(block)

    def invalidate(self, block: BlockId) -> bool:
        cache_set = self._set_for(block)
        return cache_set.pop(block, None) is not None

    def flush(self) -> int:
        dirty = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    dirty += 1
                    self.stats.dirty_writebacks += 1
                    self.stats.bytes_written_back += line.size_bytes
            cache_set.clear()
        return dirty

    @property
    def _ways(self) -> List[List[BlockId]]:
        """Each set's resident blocks in order, in the fast cache's layout."""
        return [list(cache_set) for cache_set in self._sets]

    @property
    def resident_blocks(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def resident_bytes(self) -> int:
        return sum(line.size_bytes for s in self._sets for line in s.values())


class ReferenceHierarchy(MemoryHierarchy):
    """A memory hierarchy over :class:`ReferenceCache`, moving tensors one
    block at a time as the original ``_move`` did."""

    def __init__(self, chip, partition=None, block_bytes=64 * 1024, llc_associativity=16):
        super().__init__(chip, partition, block_bytes, llc_associativity)
        if self.llc is not None:
            self.llc = ReferenceCache(
                capacity_bytes=self.partition.llc_bytes,
                block_bytes=block_bytes,
                associativity=llc_associativity,
            )

    def _move(self, tensor, size, placement, write):
        if size < 0:
            raise ValueError("byte count must be non-negative")
        traffic = Traffic(noc_bytes=float(size))
        if placement is Placement.LOCAL_MEMORY:
            traffic.local_memory_bytes += size
            traffic.noc_bytes = 0.0
        elif placement is Placement.LLS:
            traffic.sram_bytes += size
        elif placement is Placement.DRAM:
            traffic.dram_bytes += size
        elif placement is Placement.HOST:
            traffic.host_bytes += size
        elif placement is Placement.LLC:
            if self.llc is None:
                traffic.dram_bytes += size
            else:
                dirty = write and tensor.uid not in self._no_reuse_hint
                for block in tensor_blocks(tensor.uid, size, self.block_bytes):
                    uid, index, block_size = block
                    hit = self.llc.access((uid, index), write=dirty, size_bytes=block_size)
                    if hit:
                        traffic.sram_bytes += block_size
                    elif write:
                        traffic.sram_bytes += block_size
                    else:
                        traffic.dram_bytes += block_size
                        traffic.sram_bytes += block_size
        else:
            raise AssertionError(f"unhandled placement {placement}")
        return traffic


def reference_plan_allocation(
    requests: Sequence[BufferRequest], alignment: int = 128
) -> AllocationPlan:
    """The original greedy: every request rescans every placed buffer."""
    ordered = sorted(requests, key=lambda r: (r.start, -r.size_bytes))
    placements: List[ScratchPlacement] = []
    for request in ordered:
        live = [p for p in placements if p.request.overlaps(request)]
        live.sort(key=lambda p: p.offset)
        offset = 0
        for placed in live:
            if offset + request.size_bytes <= placed.offset:
                break
            offset = max(offset, _align(placed.end_offset, alignment))
        placements.append(ScratchPlacement(request=request, offset=offset))
    return AllocationPlan(placements=placements)
