"""A set-associative, write-back cache simulator.

This models MTIA 2i's hardware-managed LLC portion of the shared SRAM
(paper section 4.1).  The executor replays tensor accesses through it so
SRAM hit rates — the paper's 40-60% for sparse lookups and >95% for dense
networks — are *measured* from the access stream rather than asserted.

Fidelity note: accesses are simulated at *tensor-block* granularity
(default 64 KiB) rather than 64-byte cache lines.  DLRM working sets are
hundreds of megabytes, so block-granular simulation captures the capacity
and reuse behaviour that determines hit rates, while keeping the simulator
fast enough to run under autotuning sweeps.  Speed comes from the
representation, not from approximation: sets are flat key lists over one
block-state dict, and a whole tensor is fed as one block run
(:meth:`SetAssociativeCache.access_run`) with the counters updated once
per tensor.  Every hit, miss, victim draw and writeback is the same as
accessing the blocks one at a time.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

BlockId = Hashable


@dataclasses.dataclass
class CacheStats:
    """Access counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    bytes_hit: int = 0
    bytes_missed: int = 0
    bytes_written_back: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit; 0.0 if no accesses yet."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def byte_hit_rate(self) -> float:
        """Fraction of bytes served from the cache."""
        total = self.bytes_hit + self.bytes_missed
        return self.bytes_hit / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.evictions = self.dirty_writebacks = 0
        self.bytes_hit = self.bytes_missed = self.bytes_written_back = 0


class SetAssociativeCache:
    """Set-associative cache over arbitrary hashable block ids.

    Blocks may have heterogeneous sizes up to ``block_bytes``; a block
    always occupies one way regardless of its actual size (hardware would
    pad to the allocation unit).

    Two replacement policies are supported.  ``"lru"`` is the textbook
    policy; ``"random"`` (the default) is what large last-level caches
    deploy in practice because LRU degenerates to a 0% hit rate on the
    cyclic streaming patterns ML weight traffic produces — with random
    replacement a working set W larger than capacity C settles near a
    C/W hit rate instead of zero.

    State is kept flat: each set is a list of its resident block ids in
    insertion order (recency order under LRU), which is the index space
    the random victim is drawn from, and one dict maps every resident
    block to ``size_bytes << 1 | dirty``.  A cache smaller than one full
    set has as many ways as it has blocks, so it never holds more than
    ``capacity_bytes``.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_bytes: int = 64 * 1024,
        associativity: int = 16,
        replacement: str = "random",
        seed: int = 0,
    ) -> None:
        if capacity_bytes <= 0 or block_bytes <= 0 or associativity <= 0:
            raise ValueError("capacity, block size, and associativity must be positive")
        if capacity_bytes < block_bytes:
            raise ValueError("cache must hold at least one block")
        if replacement not in ("lru", "random"):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        total_blocks = capacity_bytes // block_bytes
        self.associativity = min(associativity, total_blocks)
        self.replacement = replacement
        self.num_sets = total_blocks // self.associativity
        self._ways: List[List[BlockId]] = [[] for _ in range(self.num_sets)]
        self._lines: Dict[BlockId, int] = {}
        # A deterministic linear-congruential sequence drives random
        # victim selection so runs are reproducible.
        self._rand_state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        self.stats = CacheStats()

    def _access_blocks(
        self, blocks: Iterable[BlockId], sizes: Sequence[int], write: bool
    ) -> Tuple[int, int, int]:
        """Access ``blocks`` in order; returns (hits, hit bytes, missed bytes).

        The one implementation of lookup, install and replacement behind
        :meth:`access` and :meth:`access_run`.  The loop counts only hits
        and writebacks; misses are the remaining accesses, and evictions
        are the misses that did not grow the resident set.  :attr:`stats`
        is updated once per call.
        """
        lines = self._lines
        ways = self._ways
        num_sets = self.num_sets
        associativity = self.associativity
        lru = self.replacement == "lru"
        dirty_bit = 1 if write else 0
        rand_state = self._rand_state
        resident_before = len(lines)
        hits = hit_bytes = writebacks = written_back = 0
        for block, size in zip(blocks, sizes):
            state = lines.get(block)
            if state is not None:
                if lru:
                    keys = ways[hash(block) % num_sets]
                    keys.remove(block)
                    keys.append(block)
                if dirty_bit and not state & 1:
                    lines[block] = state | 1
                hits += 1
                hit_bytes += size
                continue
            keys = ways[hash(block) % num_sets]
            if len(keys) >= associativity:
                if lru:
                    victim = keys.pop(0)
                else:
                    rand_state = (rand_state * 1664525 + 1013904223) & 0xFFFFFFFF
                    victim = keys.pop(rand_state % associativity)
                victim_state = lines.pop(victim)
                if victim_state & 1:
                    writebacks += 1
                    written_back += victim_state >> 1
            keys.append(block)
            lines[block] = size << 1 | dirty_bit
        self._rand_state = rand_state
        misses = len(sizes) - hits
        missed_bytes = sum(sizes) - hit_bytes
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += misses - (len(lines) - resident_before)
        stats.dirty_writebacks += writebacks
        stats.bytes_hit += hit_bytes
        stats.bytes_missed += missed_bytes
        stats.bytes_written_back += written_back
        return hits, hit_bytes, missed_bytes

    def access(
        self, block: BlockId, write: bool = False, size_bytes: Optional[int] = None
    ) -> bool:
        """Access one block; returns True on hit.

        On a miss the block is installed, evicting a victim chosen by the
        replacement policy if the set is full.  A ``write`` access marks
        the line dirty; evicting a dirty line counts a writeback (the
        slow path the paper avoids by keeping weights — clean lines — in
        LLC).
        """
        size = self.block_bytes if size_bytes is None else min(size_bytes, self.block_bytes)
        return self._access_blocks((block,), (size,), write)[0] == 1

    def access_run(self, uid: int, num_bytes: int, write: bool = False) -> Tuple[int, int]:
        """Access a whole tensor; returns (hit bytes, missed bytes).

        The tensor is split like :func:`tensor_blocks` into blocks
        ``(uid, 0)``, ``(uid, 1)``, ... of ``block_bytes`` each (the last
        may be partial), accessed in order exactly as :meth:`access` would
        one at a time.
        """
        if num_bytes < 0:
            raise ValueError("tensor size must be non-negative")
        full, tail = divmod(num_bytes, self.block_bytes)
        sizes = [self.block_bytes] * full
        if tail:
            sizes.append(tail)
        blocks = zip(itertools.repeat(uid), range(len(sizes)))
        _, hit_bytes, missed_bytes = self._access_blocks(blocks, sizes, write)
        return hit_bytes, missed_bytes

    def contains(self, block: BlockId) -> bool:
        """Whether the block is currently resident (no LRU update)."""
        return block in self._lines

    def invalidate(self, block: BlockId) -> bool:
        """Drop a block without a writeback; returns True if it was present."""
        if self._lines.pop(block, None) is None:
            return False
        self._ways[hash(block) % self.num_sets].remove(block)
        return True

    def flush(self) -> int:
        """Write back and drop everything; returns the dirty line count."""
        dirty = 0
        for state in self._lines.values():
            if state & 1:
                dirty += 1
                self.stats.bytes_written_back += state >> 1
        self.stats.dirty_writebacks += dirty
        self._lines.clear()
        for keys in self._ways:
            keys.clear()
        return dirty

    @property
    def resident_blocks(self) -> int:
        """Number of blocks currently cached."""
        return len(self._lines)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently cached (actual block sizes)."""
        return sum(state >> 1 for state in self._lines.values())


def tensor_blocks(tensor_uid: int, num_bytes: int, block_bytes: int) -> List[Tuple[int, int, int]]:
    """Split a tensor into cache blocks.

    Returns ``(tensor_uid, block_index, block_size)`` triples; the last
    block may be partial.
    """
    if num_bytes < 0:
        raise ValueError("tensor size must be non-negative")
    blocks = []
    index = 0
    remaining = num_bytes
    while remaining > 0:
        size = min(block_bytes, remaining)
        blocks.append((tensor_uid, index, size))
        remaining -= size
        index += 1
    return blocks
