"""Differential tests: the memory tier's fast paths versus their oracles.

:class:`repro.memory.SetAssociativeCache` keeps flat per-set key lists
and takes a whole tensor per call (``access_run``); ``MemoryHierarchy``
feeds it one run per tensor; ``plan_allocation`` retires ended buffers
instead of rescanning them.  None of that may change a result.  The
oracles in :mod:`tests.memory_reference` are the original per-block,
``OrderedDict`` and full-rescan versions, and every comparison here is
exact: hit and miss bytes, every ``CacheStats`` field, residency, each
set's blocks in replacement order, the random-victim generator state,
``Traffic`` floats and buffer offsets.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.memory import (
    BufferRequest,
    MemoryHierarchy,
    Placement,
    SetAssociativeCache,
    SramPartition,
    plan_allocation,
)
from repro.tensors import activation, weight
from repro.units import MiB
from tests.memory_reference import (
    ReferenceCache,
    ReferenceHierarchy,
    reference_plan_allocation,
)

BLOCK = 16  # bytes: small blocks keep generated tensors a few blocks long

# Capacities stay below the ~40 distinct blocks a stream touches, so sets
# fill up and hits, evictions and victim draws all interleave.
geometries = st.tuples(
    st.integers(min_value=1, max_value=12),  # capacity in blocks
    st.integers(min_value=1, max_value=8),  # associativity
    st.sampled_from(["lru", "random"]),
    st.integers(min_value=0, max_value=3),  # seed
)

# Blocks are (uid, index) pairs from a small space so runs, single
# accesses, probes and invalidations keep colliding.
blocks = st.tuples(st.integers(0, 5), st.integers(0, 6))

calls = st.one_of(
    st.tuples(
        st.just("run"), st.integers(0, 5), st.integers(0, 7 * BLOCK), st.booleans()
    ),
    st.tuples(
        st.just("access"), blocks, st.booleans(),
        st.one_of(st.none(), st.integers(0, 2 * BLOCK)),
    ),
    st.tuples(st.just("contains"), blocks),
    st.tuples(st.just("invalidate"), blocks),
    st.tuples(st.just("flush")),
)


def _state(cache):
    """Everything observable plus what decides future victims: each set's
    blocks in replacement order, and the generator state."""
    return (
        dataclasses.asdict(cache.stats),
        cache.resident_blocks,
        cache.resident_bytes,
        [list(keys) for keys in cache._ways],
        cache._rand_state,
    )


def _apply(cache, call):
    kind = call[0]
    if kind == "run":
        _, uid, num_bytes, write = call
        return cache.access_run(uid, num_bytes, write=write)
    if kind == "access":
        _, block, write, size = call
        return cache.access(block, write=write, size_bytes=size)
    if kind == "flush":
        return cache.flush()
    return getattr(cache, kind)(call[1])


@given(geometry=geometries, stream=st.lists(calls, max_size=80))
@settings(max_examples=300, deadline=None)
def test_cache_matches_reference(geometry, stream):
    capacity_blocks, associativity, replacement, seed = geometry
    kwargs = dict(
        capacity_bytes=capacity_blocks * BLOCK, block_bytes=BLOCK,
        associativity=associativity, replacement=replacement, seed=seed,
    )
    fast, reference = SetAssociativeCache(**kwargs), ReferenceCache(**kwargs)
    assert (fast.num_sets, fast.associativity) == (
        reference.num_sets, reference.associativity
    )
    for call in stream:
        assert _apply(fast, call) == _apply(reference, call), call
        assert _state(fast) == _state(reference), call


@given(
    geometry=geometries,
    tensors=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 9 * BLOCK), st.booleans()),
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_access_run_equals_blockwise_access(geometry, tensors):
    """One ``access_run`` per tensor is the same as its blocks fed one at
    a time through ``access`` on the same cache class."""
    capacity_blocks, associativity, replacement, seed = geometry
    kwargs = dict(
        capacity_bytes=capacity_blocks * BLOCK, block_bytes=BLOCK,
        associativity=associativity, replacement=replacement, seed=seed,
    )
    runs, singles = SetAssociativeCache(**kwargs), SetAssociativeCache(**kwargs)
    for uid, num_bytes, write in tensors:
        hit_bytes = missed_bytes = 0
        index, remaining = 0, num_bytes
        while remaining > 0:
            size = min(BLOCK, remaining)
            if singles.access((uid, index), write=write, size_bytes=size):
                hit_bytes += size
            else:
                missed_bytes += size
            index, remaining = index + 1, remaining - size
        assert runs.access_run(uid, num_bytes, write=write) == (hit_bytes, missed_bytes)
        assert _state(runs) == _state(singles)


@given(
    moves=st.lists(
        st.tuples(
            st.integers(0, 5),  # tensor
            st.sampled_from(list(Placement)),
            st.booleans(),  # write
            st.one_of(st.none(), st.integers(0, 40 * MiB)),  # partial size
            st.booleans(),  # no-reuse hint
        ),
        max_size=40,
    ),
    llc_granules=st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_hierarchy_traffic_matches_reference(moves, llc_granules):
    """``MemoryHierarchy.read``/``write`` return identical ``Traffic`` over
    mixed placements, with and without an LLC, block-run fed or not."""
    chip = mtia2i_spec()
    gran = chip.sram_partition_bytes
    partition = SramPartition(
        lls_bytes=chip.sram.capacity_bytes - llc_granules * gran,
        llc_bytes=llc_granules * gran,
        granularity_bytes=gran,
    )
    # 4 MiB blocks: a 32 MiB LLC holds 8 blocks in two 4-way sets.
    geometry = dict(partition=partition, block_bytes=4 * MiB, llc_associativity=4)
    fast = MemoryHierarchy(chip, **geometry)
    reference = ReferenceHierarchy(chip, **geometry)
    tensors = [
        activation(1024, 4096 * (i + 1)) if i % 2 else weight(2048, 2048 * (i + 1))
        for i in range(6)
    ]
    for index, placement, write, size, no_reuse in moves:
        tensor = tensors[index]
        for hierarchy in (fast, reference):
            hierarchy.place(tensor, placement, reserve=False)
            if no_reuse:
                hierarchy.hint_no_reuse(tensor)
        move = "write" if write else "read"
        got = getattr(fast, move)(tensor, size)
        want = getattr(reference, move)(tensor, size)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert fast.writeback_traffic() == reference.writeback_traffic()
        assert fast.llc_hit_rate() == reference.llc_hit_rate()
        if fast.llc is not None:
            assert _state(fast.llc) == _state(reference.llc)


@given(
    buffers=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5_000),  # size
            st.integers(min_value=0, max_value=15),  # start
            st.integers(min_value=0, max_value=8),  # duration
        ),
        max_size=40,
    ),
    alignment=st.sampled_from([1, 8, 128]),
)
@settings(max_examples=300, deadline=None)
def test_plan_allocation_matches_full_rescan(buffers, alignment):
    """Retiring ended buffers places every buffer at the offset the full
    rescan chose, in the same order."""
    requests = [
        BufferRequest(f"b{i}", size, start, start + duration)
        for i, (size, start, duration) in enumerate(buffers)
    ]
    fast = plan_allocation(requests, alignment=alignment)
    reference = reference_plan_allocation(requests, alignment=alignment)
    assert [(p.request, p.offset) for p in fast.placements] == [
        (p.request, p.offset) for p in reference.placements
    ]
