"""Property-based tests for repro.surrogate.

Hypothesis drives the three contracts the verified-surrogate pattern
rests on:

* training reproducibility — the full collect-train pipeline is a pure
  function of (chip, n_samples, seed): two runs produce bit-identical
  predictions, whatever the seed or sample count;
* recorder transparency — attaching a ``DatasetRecorder`` to a
  ``KernelLatencyMemo`` never changes what ``measure`` returns, for any
  lookup sequence, and the recorded rows are exactly the cache misses;
* verification soundness — ``verified_argmin`` returns the min over
  its exact-evaluated set (never a prediction), and
  ``verified_min_feasible`` agrees with the linear scan on every
  monotone predicate, from every starting guess — and, started at its
  lower bound, *is* the linear scan on any predicate at all.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.fastsim.memo import KernelLatencyMemo
from repro.kernels.gemm import default_variants
from repro.surrogate import (
    DatasetRecorder,
    train_gemm_surrogate,
    verified_argmin,
    verified_min_feasible,
)
from repro.tensors import DType, GemmShape

CHIP = mtia2i_spec()
VARIANTS = default_variants()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_samples=st.integers(min_value=120, max_value=400))
def test_training_bit_for_bit_reproducible(seed, n_samples):
    first, _ = train_gemm_surrogate(CHIP, n_samples=n_samples, seed=seed)
    second, _ = train_gemm_surrogate(CHIP, n_samples=n_samples, seed=seed)
    shapes = [(64, 128, 256), (700, 1700, 800), (31, 33, 35)]
    probe = VARIANTS[:64]
    np.testing.assert_array_equal(
        first.predict_time_grid(shapes, probe),
        second.predict_time_grid(shapes, probe),
    )


lookup_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),   # shape pick
        st.integers(min_value=0, max_value=30),  # variant pick
    ),
    min_size=0, max_size=40,
)

_SHAPES = [
    GemmShape(m, k, n)
    for m, k, n in [(8, 16, 32), (64, 64, 64), (100, 300, 50),
                    (256, 512, 128), (33, 65, 129), (512, 512, 512),
                    (40, 4096, 24), (1024, 128, 1024)]
]


@settings(max_examples=40, deadline=None)
@given(lookups=lookup_sequences)
def test_recorder_never_steers_the_memo(lookups):
    bare = KernelLatencyMemo(CHIP)
    recorder = DatasetRecorder()
    recorded = KernelLatencyMemo(CHIP, recorder=recorder)
    for shape_pick, variant_pick in lookups:
        shape = _SHAPES[shape_pick]
        variant = VARIANTS[variant_pick]
        assert bare.measure(shape, variant, DType.FP16) == recorded.measure(
            shape, variant, DType.FP16
        )
    assert bare.hits == recorded.hits
    assert bare.misses == recorded.misses
    # One recorded row per distinct exact evaluation, in miss order.
    assert len(recorder) == recorded.misses
    replay = KernelLatencyMemo(CHIP)
    for (m, k, n), variant, dtype, time_s in zip(
        recorder.shapes, recorder.variants, recorder.dtypes,
        recorder.times_s,
    ):
        assert replay.measure(GemmShape(m, k, n), variant, dtype) == time_s


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-9, max_value=1e3,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=30,
    ),
    top_k=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_verified_argmin_winner_is_exact_evaluated(values, top_k, seed):
    ranking = np.random.default_rng(seed).permutation(len(values))
    result = verified_argmin(ranking, lambda i: values[i], top_k)
    # The winner was exact-evaluated, and is the min of that set.
    assert result.best_index in result.evaluated
    assert result.best_value == values[result.best_index]
    assert result.best_value == min(values[i] for i in result.evaluated)
    assert result.exact_evaluations == min(top_k, len(values))
    assert result.surrogate_evaluations == len(values)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(min_value=-20, max_value=20),
    size=st.integers(min_value=1, max_value=30),
    boundary_offset=st.integers(min_value=0, max_value=31),
    guess=st.integers(min_value=-40, max_value=60),
)
def test_min_feasible_equals_linear_scan_on_monotone(
    lo, size, boundary_offset, guess
):
    hi = lo + size - 1
    boundary = lo + boundary_offset  # > hi means nothing is feasible
    calls = []

    def feasible(i):
        calls.append(i)
        assert lo <= i <= hi  # never probes outside the range
        return i >= boundary

    scan = next((i for i in range(lo, hi + 1) if i >= boundary), None)
    answer, exact_calls = verified_min_feasible(guess, lo, hi, feasible)
    assert answer == scan
    assert exact_calls == len(calls)
    # Two-sided certificate: the boundary itself was exact-probed, and
    # so was the point just below it (when one exists in range).
    if answer is not None:
        assert answer in calls
        if answer > lo:
            assert answer - 1 in calls


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(min_value=-20, max_value=20),
    outcomes=st.lists(st.booleans(), min_size=0, max_size=30),
)
def test_min_feasible_from_lo_probes_in_scan_order(lo, outcomes):
    """With ``guess == lo`` the search probes ``lo, lo+1, ...`` up to the
    first feasible point (or through ``hi``), for any predicate,
    monotone or not — the probe sequence the capacity scans rely on.
    An empty range (no outcomes, ``hi < lo``) probes nothing."""
    hi = lo + len(outcomes) - 1
    calls = []

    def feasible(i):
        calls.append(i)
        return outcomes[i - lo]

    answer, exact_calls = verified_min_feasible(lo, lo, hi, feasible)
    first = next((i for i, ok in enumerate(outcomes) if ok), None)
    assert answer == (None if first is None else lo + first)
    last = hi if answer is None else answer
    assert calls == list(range(lo, last + 1))
    assert exact_calls == len(calls)
