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
representation, not from approximation:

* a whole tensor is fed as one block run
  (:meth:`SetAssociativeCache.access_run`) with the counters updated once
  per tensor;
* resident lines are keyed by an integer code, ``uid << 32 | index`` for
  block ``index`` of tensor ``uid``, so the loop hashes ints instead of
  building and hashing ``(uid, index)`` tuples;
* each tensor's set indices, ``hash((uid, index)) % num_sets``, are
  computed once per cache and reused on every later access;
* random victims are read from a buffer filled by LCG jump-ahead
  (``x_k = a^k x_0 + c (a^k - 1) / (a - 1) mod 2^32``, vectorized over a
  shared coefficient table) instead of stepping the generator per
  eviction.

Every hit, miss, victim draw, writeback and the final generator state are
the same as accessing the blocks one at a time with a stepwise LCG.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

BlockId = Hashable

# The victim generator: x <- (a x + c) mod 2^32.
_LCG_MUL = 1664525
_LCG_ADD = 1013904223
_MASK = 0xFFFFFFFF

# Block indices occupy the low 32 bits of a run block's line code.
_INDEX_BITS = 32
_INDEX_LIMIT = 1 << _INDEX_BITS

# Victim draws computed per buffer refill (more if one call needs more).
_VICTIM_CHUNK = 1024

# k steps of the generator map x to (_JUMP_MUL[k] * x + _JUMP_ADD[k]) mod
# 2^32.  A memo of a pure function, shared by every cache and grown by
# doubling on demand; its length never changes a result.
_JUMP_MUL = np.ones(1, dtype=np.uint64)
_JUMP_ADD = np.zeros(1, dtype=np.uint64)


def _jump_table(steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Jump-ahead coefficients for 0..``steps`` generator steps."""
    global _JUMP_MUL, _JUMP_ADD
    mul, add = _JUMP_MUL, _JUMP_ADD
    while len(mul) <= steps:
        # k = len(mul) steps is one past the table; x_{k+j} = A_j x_k + C_j
        # doubles it.  uint64 arithmetic wraps mod 2^64, which 2^32 divides.
        mul_k = int(mul[-1]) * _LCG_MUL & _MASK
        add_k = (int(add[-1]) * _LCG_MUL + _LCG_ADD) & _MASK
        mul, add = (
            np.concatenate((mul, (mul * mul_k) & _MASK)),
            np.concatenate((add, (mul * add_k + add) & _MASK)),
        )
    _JUMP_MUL, _JUMP_ADD = mul, add
    return mul, add


def _lcg_advance(state: int, steps: int) -> int:
    """The generator state ``steps`` draws after ``state``."""
    mul, add = _jump_table(steps)
    return (int(mul[steps]) * state + int(add[steps])) & _MASK


def _victim_draws(state: int, count: int, ways: int) -> List[int]:
    """The next ``count`` victim indices ``x_k % ways`` from ``state``."""
    mul, add = _jump_table(count)
    return (((mul[1 : count + 1] * state + add[1 : count + 1]) & _MASK) % ways).tolist()


def _as_int(value) -> Optional[int]:
    """The int ``value`` equals, if ``int()`` recovers it; else None."""
    try:
        number = operator.index(value)
    except TypeError:
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            return None
        if number != value:
            return None
    return number


def _line_code(block: BlockId):
    """The key a block's line is stored under.

    A run block ``(uid, index)`` with ``0 <= index < 2**32`` maps to
    ``uid << 32 | index``, the code :meth:`SetAssociativeCache.access_run`
    uses.  Its components may be any numbers ``int()`` converts to an
    equal value (Python or numpy ints, bools, integral floats), so a
    2-tuple that compares equal to ``(uid, index)`` is the same line, as
    it was when lines were keyed by the tuple itself.  Any other id maps
    to the 1-tuple ``(block,)``, which no run produces.
    """
    if isinstance(block, tuple) and len(block) == 2:
        uid, index = block
        if type(uid) is not int or type(index) is not int:
            uid, index = _as_int(uid), _as_int(index)
            if uid is None or index is None:
                return (block,)
        if 0 <= index < _INDEX_LIMIT:
            return uid << _INDEX_BITS | index
    return (block,)


def _block_id(code) -> BlockId:
    """Inverse of :func:`_line_code`."""
    if type(code) is tuple:
        return code[0]
    return (code >> _INDEX_BITS, code & _MASK)


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

    Block ``b`` lives in set ``hash(b) % num_sets``.  Integer and int-tuple
    hashes are fixed, but ``str`` hashes are salted per process, so ids
    built from strings land in sets that change with ``PYTHONHASHSEED``;
    key blocks by integers for reproducible hit rates.

    Blocks may have heterogeneous sizes up to ``block_bytes``; a block
    always occupies one way regardless of its actual size (hardware would
    pad to the allocation unit).

    Two replacement policies are supported.  ``"lru"`` is the textbook
    policy; ``"random"`` (the default) is what large last-level caches
    deploy in practice because LRU degenerates to a 0% hit rate on the
    cyclic streaming patterns ML weight traffic produces — with random
    replacement a working set W larger than capacity C settles near a
    C/W hit rate instead of zero.

    State is kept flat: each set is a list of its resident line codes
    (see :func:`_line_code`) in insertion order (recency order under LRU),
    which is the index space the random victim is drawn from, and one dict
    maps every resident code to ``size_bytes << 1 | dirty``.  ``_ways``
    shows the sets as block ids.  A cache smaller than one full set has as
    many ways as it has blocks, so it never holds more than
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
        self._lru = replacement == "lru"
        self.num_sets = total_blocks // self.associativity
        self._sets: List[list] = [[] for _ in range(self.num_sets)]
        self._lines: Dict[object, int] = {}
        # Set indices of each tensor's blocks, by uid.
        self._run_sets: Dict[int, List[int]] = {}
        # A deterministic linear-congruential sequence drives random
        # victim selection so runs are reproducible: ``_victims`` holds
        # the draws after state ``_victim_base``, ``_drawn`` of them used.
        self._victim_base = (seed * 2654435761 + 1) & _MASK
        self._victims: List[int] = []
        self._drawn = 0
        self.stats = CacheStats()

    @property
    def _rand_state(self) -> int:
        """The victim generator's state after every draw made so far."""
        return _lcg_advance(self._victim_base, self._drawn)

    @property
    def _ways(self) -> List[List[BlockId]]:
        """Each set's resident block ids in replacement order."""
        return [[_block_id(code) for code in keys] for keys in self._sets]

    def _access_blocks(
        self,
        codes: Sequence[object],
        set_indices: Sequence[int],
        last_size: int,
        write: bool,
    ) -> Tuple[int, int, int]:
        """Access lines ``codes`` in order; returns (hits, hit bytes, missed bytes).

        The one implementation of lookup, install and replacement behind
        :meth:`access` and :meth:`access_run`.  ``codes`` is non-empty;
        ``set_indices`` may run longer than it.  Every block is
        ``block_bytes`` long except the last, which is ``last_size``.  The
        loop counts only hits and writebacks; misses are the remaining
        accesses, and evictions are the misses that did not grow the
        resident set.  :attr:`stats` is updated once per call.
        """
        count = len(codes)
        lines = self._lines
        sets = self._sets
        associativity = self.associativity
        lru = self._lru
        victims = self._victims
        drawn = self._drawn
        if drawn + count > len(victims) and not lru:
            # At most one draw per access: refill so the loop never runs dry.
            self._victim_base = _lcg_advance(self._victim_base, drawn)
            victims = self._victims = _victim_draws(
                self._victim_base, max(count, _VICTIM_CHUNK), associativity
            )
            drawn = 0
        dirty_bit = 1 if write else 0
        block_bytes = self.block_bytes
        full_line = block_bytes << 1 | dirty_bit
        resident_before = len(lines)
        hits = writebacks = written_back = 0
        for code, set_index in zip(codes, set_indices):
            state = lines.get(code)
            if state is not None:
                if lru:
                    keys = sets[set_index]
                    keys.remove(code)
                    keys.append(code)
                if dirty_bit and not state & 1:
                    lines[code] = state | 1
                hits += 1
                continue
            keys = sets[set_index]
            if len(keys) >= associativity:
                if lru:
                    victim = keys.pop(0)
                else:
                    victim = keys.pop(victims[drawn])
                    drawn += 1
                victim_state = lines.pop(victim)
                if victim_state & 1:
                    writebacks += 1
                    written_back += victim_state >> 1
            keys.append(code)
            lines[code] = full_line
        self._drawn = drawn
        # Lines were installed and hits counted at full size; correct the
        # last block, which ``state`` still describes.
        hit_bytes = hits * block_bytes
        if state is None:
            lines[code] = last_size << 1 | dirty_bit
        else:
            hit_bytes -= block_bytes - last_size
        misses = count - hits
        missed_bytes = (count - 1) * block_bytes + last_size - hit_bytes
        stats = self.stats
        stats.hits += hits
        stats.bytes_hit += hit_bytes
        # Zero updates are skipped; a one-block run pays for each one.
        if misses:
            stats.misses += misses
            stats.bytes_missed += missed_bytes
            stats.evictions += misses - (len(lines) - resident_before)
        if writebacks:
            stats.dirty_writebacks += writebacks
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
        LLC).  Block ``(uid, index)``, or any 2-tuple equal to it (see
        :func:`_line_code`), is the same line as block ``index`` of
        :meth:`access_run` on tensor ``uid``.
        """
        size = self.block_bytes if size_bytes is None else min(size_bytes, self.block_bytes)
        set_index = hash(block) % self.num_sets
        return self._access_blocks((_line_code(block),), (set_index,), size, write)[0] == 1

    def access_run(self, uid: int, num_bytes: int, write: bool = False) -> Tuple[int, int]:
        """Access a whole tensor; returns (hit bytes, missed bytes).

        The tensor is split like :func:`tensor_blocks` into blocks
        ``(uid, 0)``, ``(uid, 1)``, ... of ``block_bytes`` each (the last
        may be partial), accessed in order exactly as :meth:`access` would
        one at a time.
        """
        if num_bytes <= 0:
            if num_bytes < 0:
                raise ValueError("tensor size must be non-negative")
            return 0, 0
        block_bytes = self.block_bytes
        full, tail = divmod(num_bytes, block_bytes)
        count = full + 1 if tail else full
        if count > _INDEX_LIMIT:
            raise ValueError(f"a tensor spans at most {_INDEX_LIMIT} blocks")
        set_indices = self._run_sets.get(uid)
        if set_indices is None or len(set_indices) < count:
            set_indices = self._extend_run_sets(uid, count)
        base = uid << _INDEX_BITS
        _, hit_bytes, missed_bytes = self._access_blocks(
            range(base, base + count), set_indices, tail or block_bytes, write
        )
        return hit_bytes, missed_bytes

    def _extend_run_sets(self, uid: int, count: int) -> List[int]:
        """Memoize the set indices of blocks ``0..count-1`` of tensor ``uid``."""
        num_sets = self.num_sets
        known = self._run_sets.get(uid)
        if known is None:
            # A one-block tensor skips the comprehension's frame.
            known = self._run_sets[uid] = (
                [hash((uid, 0)) % num_sets]
                if count == 1
                else [hash((uid, index)) % num_sets for index in range(count)]
            )
        else:
            known.extend([hash((uid, index)) % num_sets for index in range(len(known), count)])
        return known

    def contains(self, block: BlockId) -> bool:
        """Whether the block is currently resident (no LRU update)."""
        return _line_code(block) in self._lines

    def invalidate(self, block: BlockId) -> bool:
        """Drop a block without a writeback; returns True if it was present."""
        code = _line_code(block)
        if self._lines.pop(code, None) is None:
            return False
        self._sets[hash(block) % self.num_sets].remove(code)
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
        for keys in self._sets:
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
