"""Tests for Che's-approximation cache model (repro.memory.che)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import SetAssociativeCache
from repro.memory.che import (
    TBE_HIT_RATE_MEMO_SIZE,
    che_hit_rate,
    tbe_llc_hit_rate,
    zipf_block_popularities,
)


class TestBlockPopularities:
    def test_normalized(self):
        p = zipf_block_popularities(1_000_000, 256, 1.05)
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(p >= 0)

    def test_head_heavier_than_tail(self):
        p = zipf_block_popularities(1_000_000, 256, 1.05)
        assert p[0] > 10 * p[-1]

    def test_block_count(self):
        p = zipf_block_popularities(1000, 256, 1.05)
        assert len(p) == 4  # ceil(1000/256)

    def test_tail_folding_for_huge_tables(self):
        p = zipf_block_popularities(10**9, 256, 1.05, max_blocks=10_000)
        assert len(p) == 10_000
        assert p.sum() == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_block_popularities(0, 256, 1.05)


class TestCheHitRate:
    def test_cache_covers_everything(self):
        p = zipf_block_popularities(10_000, 256, 1.05)
        assert che_hit_rate(p, cache_blocks=len(p)) == 1.0

    def test_no_cache_no_hits(self):
        p = zipf_block_popularities(10_000, 256, 1.05)
        assert che_hit_rate(p, cache_blocks=0) == 0.0

    def test_monotone_in_capacity(self):
        p = zipf_block_popularities(10_000_000, 256, 1.05)
        rates = [che_hit_rate(p, c) for c in (10, 100, 1000, 10_000)]
        assert rates == sorted(rates)
        assert all(0 <= r <= 1 for r in rates)

    def test_skew_raises_hit_rate(self):
        flat = zipf_block_popularities(10_000_000, 256, 1.02)
        skewed = zipf_block_popularities(10_000_000, 256, 1.3)
        assert che_hit_rate(skewed, 500) > che_hit_rate(flat, 500)

    def test_matches_cache_simulation(self):
        """Che's approximation agrees with an actual cache replay for a
        small system where replaying to steady state is feasible."""
        num_rows, rows_per_block, cache_blocks = 200_000, 256, 128
        p = zipf_block_popularities(num_rows, rows_per_block, 1.1)
        predicted = che_hit_rate(p, cache_blocks)
        cache = SetAssociativeCache(
            capacity_bytes=cache_blocks * 64 * 1024, block_bytes=64 * 1024,
            associativity=16, replacement="lru",
        )
        rng = np.random.default_rng(0)
        draws = np.minimum(rng.zipf(1.1, size=120_000) - 1, num_rows - 1)
        blocks = draws // rows_per_block
        for block in blocks[:60_000]:
            cache.access(int(block))
        cache.stats.reset()
        for block in blocks[60_000:]:
            cache.access(int(block))
        measured = cache.stats.hit_rate
        assert predicted == pytest.approx(measured, abs=0.08)


class TestTbeHitRate:
    def test_paper_band_for_production_tables(self):
        """40-60% for production-scale tables (section 4.2)."""
        rate = tbe_llc_hit_rate(
            num_rows_per_table=10_000_000, num_tables=96, row_bytes=256,
            llc_bytes_for_tbe=120 << 20,
        )
        assert 0.40 <= rate <= 0.70

    def test_small_tables_hit_more(self):
        small = tbe_llc_hit_rate(500_000, 16, 256, 120 << 20)
        big = tbe_llc_hit_rate(50_000_000, 128, 256, 120 << 20)
        assert small > big

    def test_more_capacity_more_hits(self):
        low = tbe_llc_hit_rate(10_000_000, 96, 256, 32 << 20)
        high = tbe_llc_hit_rate(10_000_000, 96, 256, 200 << 20)
        assert high > low

    def test_validation(self):
        with pytest.raises(ValueError):
            tbe_llc_hit_rate(100, 0, 256, 1 << 20)


class TestTbeHitRateMemo:
    ARGS = dict(
        num_rows_per_table=2_000_000, num_tables=24, row_bytes=256,
        llc_bytes_for_tbe=48 << 20,
    )

    def test_repeated_call_returns_identical_float(self):
        first = tbe_llc_hit_rate(**self.ARGS)
        again = tbe_llc_hit_rate(**self.ARGS)
        assert repr(again) == repr(first)
        assert again == tbe_llc_hit_rate.__wrapped__(**self.ARGS)

    def test_int_and_float_arguments_are_separate_entries(self):
        as_int = tbe_llc_hit_rate(500_000, 16, 256, 120 << 20, zipf_exponent=1)
        as_float = tbe_llc_hit_rate(500_000, 16, 256, 120 << 20, zipf_exponent=1.0)
        assert as_int == tbe_llc_hit_rate.__wrapped__(
            500_000, 16, 256, 120 << 20, zipf_exponent=1
        )
        assert as_float == tbe_llc_hit_rate.__wrapped__(
            500_000, 16, 256, 120 << 20, zipf_exponent=1.0
        )

    def test_invalid_arguments_raise_every_time(self):
        size = tbe_llc_hit_rate.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError):
                tbe_llc_hit_rate(100, 0, 256, 1 << 20)
            with pytest.raises(ValueError):
                tbe_llc_hit_rate(100, 4, 256, -1)
        assert tbe_llc_hit_rate.cache_info().currsize == size

    def test_memo_is_bounded(self):
        assert tbe_llc_hit_rate.cache_info().maxsize == TBE_HIT_RATE_MEMO_SIZE

    def test_memo_keeps_no_popularity_arrays(self):
        """A memo entry is the argument tuple and one float: solving a
        table with 2M blocks (a 16 MB popularity array) leaves nowhere
        near that much memory allocated once the call returns."""
        args = (2 * 10**9, 4, 256, 64 << 20)  # 2G rows -> 2M blocks (capped)
        tbe_llc_hit_rate.cache_clear()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tbe_llc_hit_rate(*args)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before > 16 * 10**6  # the solve did build the array
        assert retained - before < 64 * 1024
        assert tbe_llc_hit_rate.cache_info().currsize == 1


@given(
    rows=st.integers(min_value=1000, max_value=5_000_000),
    capacity_blocks=st.integers(min_value=1, max_value=5000),
    exponent=st.floats(min_value=1.01, max_value=1.5),
)
@settings(max_examples=30, deadline=None)
def test_che_hit_rate_bounded_property(rows, capacity_blocks, exponent):
    """Property: the hit rate is always a valid probability, and a cache
    holding all blocks hits 100%."""
    p = zipf_block_popularities(rows, 256, exponent)
    rate = che_hit_rate(p, capacity_blocks)
    assert 0.0 <= rate <= 1.0
    assert che_hit_rate(p, len(p)) == 1.0
