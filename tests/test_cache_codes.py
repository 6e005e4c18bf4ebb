"""The LLC's integer line codes, memoized set indices and jump-ahead
victims against the original cache.

:class:`repro.memory.SetAssociativeCache` keys a run block ``(uid, index)``
by ``uid << 32 | index`` and every other id by a code no run produces,
reuses each tensor's set indices, and reads random victims from a buffer
filled by LCG jump-ahead.  None of that may change a hit, a victim or the
generator state: these tests pin the jump-ahead against stepwise draws
across table-growth boundaries, and mixed-id streams against
:class:`tests.memory_reference.ReferenceCache`.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory.cache as cache_module
from repro.memory import SetAssociativeCache
from repro.memory.cache import _lcg_advance, _victim_draws
from tests.memory_reference import ReferenceCache
from tests.test_memory_equivalence import _apply, _state

BLOCK = 16
REPO = Path(__file__).resolve().parents[1]


def _stepwise(state, count, ways):
    draws = []
    for _ in range(count):
        state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
        draws.append(state % ways)
    return draws, state


@contextlib.contextmanager
def _fresh_tables(chunk):
    """Start from a one-entry jump table and refill every ``chunk`` draws,
    so short streams cross many growth and refill boundaries."""
    saved = cache_module._JUMP_MUL, cache_module._JUMP_ADD, cache_module._VICTIM_CHUNK
    cache_module._JUMP_MUL = cache_module._JUMP_MUL[:1].copy()
    cache_module._JUMP_ADD = cache_module._JUMP_ADD[:1].copy()
    cache_module._VICTIM_CHUNK = chunk
    try:
        yield
    finally:
        cache_module._JUMP_MUL, cache_module._JUMP_ADD, cache_module._VICTIM_CHUNK = saved


@given(
    state=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 70), max_size=8),
    ways=st.integers(1, 32),
)
@settings(max_examples=200, deadline=None)
def test_jump_ahead_equals_stepwise_draws(state, counts, ways):
    with _fresh_tables(1):
        for count in counts:
            want, end = _stepwise(state, count, ways)
            assert _victim_draws(state, count, ways) == want
            assert _lcg_advance(state, count) == end
            state = end


# Ids of every kind: run blocks (also with negative uids, and with numpy
# ints, bools and floats in place of ints), bare ints that equal run codes,
# strings, other tuples, and 2-tuples whose index is out of a run's range.
def _alike(value):
    """``value`` as a Python int, a numpy int, a float or (0 and 1) a bool."""
    kinds = [st.just(value), st.just(np.int64(value)), st.just(float(value))]
    if value in (0, 1):
        kinds.append(st.just(bool(value)))
    return st.one_of(kinds)


run_blocks = st.tuples(st.integers(-2, 5), st.integers(0, 6))
run_aliases = run_blocks.flatmap(lambda block: st.tuples(_alike(block[0]), _alike(block[1])))
ids = st.one_of(
    run_blocks,
    run_aliases,
    st.tuples(
        st.sampled_from([0.5, -1.5, float("inf"), float("nan")]),
        st.integers(0, 6).map(np.int64),
    ),
    st.integers(-3, 2**33),
    st.sampled_from([0, 1, 2**32, 2**32 + 1, 5 << 32]),
    st.text(max_size=2),
    st.tuples(st.text(max_size=1), st.integers(0, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([(0, -1), (1, 2**32), (0, 2**40), ("a",), None, 2.5]),
)

calls = st.one_of(
    st.tuples(st.just("run"), st.integers(-2, 5), st.integers(0, 7 * BLOCK), st.booleans()),
    st.tuples(
        st.just("access"), ids, st.booleans(),
        st.one_of(st.none(), st.integers(0, 2 * BLOCK)),
    ),
    st.tuples(st.just("access"), run_aliases, st.booleans(), st.none()),
    st.tuples(st.just("contains"), ids),
    st.tuples(st.just("invalidate"), ids),
    st.tuples(st.just("flush")),
)


@given(
    capacity_blocks=st.integers(1, 12),
    associativity=st.integers(1, 8),
    replacement=st.sampled_from(["lru", "random"]),
    seed=st.integers(0, 3),
    chunk=st.integers(1, 6),
    stream=st.lists(calls, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_mixed_ids_match_reference(
    capacity_blocks, associativity, replacement, seed, chunk, stream
):
    kwargs = dict(
        capacity_bytes=capacity_blocks * BLOCK, block_bytes=BLOCK,
        associativity=associativity, replacement=replacement, seed=seed,
    )
    with _fresh_tables(chunk):
        fast, reference = SetAssociativeCache(**kwargs), ReferenceCache(**kwargs)
        for call in stream:
            assert _apply(fast, call) == _apply(reference, call), call
            assert _state(fast) == _state(reference), call


def test_bare_int_is_not_a_run_block():
    """Block 5 and block 5 of tensor 0 share a code space but not a line."""
    cache = SetAssociativeCache(capacity_bytes=64 * BLOCK, block_bytes=BLOCK)
    cache.access_run(0, 6 * BLOCK)
    assert cache.contains((0, 5))
    assert not cache.contains(5)
    assert not cache.access(5)
    assert cache.access((0, 5))


def test_equal_numeric_ids_are_the_run_block():
    """A 2-tuple equal to ``(uid, index)`` is that run block's line, as it
    was when lines were keyed by the tuple itself."""
    cache = SetAssociativeCache(capacity_bytes=64 * BLOCK, block_bytes=BLOCK)
    cache.access_run(3, 4 * BLOCK)
    for block in ((np.int64(3), 1), (3, np.uint8(2)), (3.0, 0), (3, True)):
        assert cache.contains(block)
        assert cache.access(block)
    assert not cache.contains((3.5, 0))
    assert not cache.contains(("3", 0))
    assert cache.resident_blocks == 4


def test_long_run_matches_reference():
    """One run far longer than the refill chunk draws every victim from a
    grown table and leaves the generator where stepwise drawing does."""
    kwargs = dict(capacity_bytes=8 * BLOCK, block_bytes=BLOCK, associativity=4, seed=2)
    fast, reference = SetAssociativeCache(**kwargs), ReferenceCache(**kwargs)
    count = 3 * cache_module._VICTIM_CHUNK
    for uid in range(3):
        assert fast.access_run(uid, count * BLOCK) == reference.access_run(uid, count * BLOCK)
        assert _state(fast) == _state(reference)


def test_tbe_hit_rate_ignores_hash_salt():
    """Row placement uses integer ids, so the measured rate is the same
    under any ``PYTHONHASHSEED``."""
    script = (
        "from repro.kernels import EmbeddingAccessPattern, simulate_tbe_hit_rate\n"
        "from repro.memory import SetAssociativeCache\n"
        "cache = SetAssociativeCache(capacity_bytes=128 << 20, block_bytes=64 << 10)\n"
        "pattern = EmbeddingAccessPattern(num_rows=50_000_000)\n"
        "print(repr(simulate_tbe_hit_rate(pattern, 256, cache, num_lookups=8000)))\n"
    )
    rates = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        rates.append(float(out.stdout))
    assert 0.0 < rates[0] < 1.0
    assert rates[0] == rates[1]
