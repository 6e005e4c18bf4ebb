"""The verified-surrogate pattern: predictions propose, exact decides.

A surrogate is allowed to be wrong; the integrations are not.  Every
inner loop that adopts a surrogate in this repository does so through
one of two verified shapes, both of which guarantee the *returned*
answer was produced by the exact model:

* :func:`verified_argmin` — the surrogate ranks a candidate set, the
  exact model re-evaluates the predicted top-k, and the argmin over
  those exact values is returned.  Soundness contract: the winner's
  value is always an exact evaluation (never a prediction); the only
  failure mode is *missing* a better candidate outside the top-k,
  which the quality-gap metric measures.

* :func:`verified_min_feasible` — the one boundary search under both
  capacity questions (``replicas_needed`` walks replica counts up,
  ``max_qps_at_slo`` walks the load ladder down).  A surrogate only
  chooses the probe's *starting point*; exact evaluations then walk to
  the boundary and certify it from both sides.  Started at ``lo`` it
  probes ``lo, lo+1, ...`` — exactly a linear scan — so without a
  surrogate the capacity searches run the scan's probes in the scan's
  order.  Under monotone feasibility any other start returns the same
  answer with a different number of exact runs (property-tested in
  ``tests/test_surrogate_properties.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class VerifiedArgmin:
    """Outcome of a surrogate-ranked, exact-verified argmin."""

    best_index: int  # index into the original candidate list
    best_value: float  # exact model's value for the winner
    evaluated: Tuple[int, ...]  # candidate indices exact-evaluated
    exact_values: Dict[int, float]  # candidate index -> exact value
    surrogate_evaluations: int  # predictions spent ranking
    exact_evaluations: int  # exact-model calls spent verifying


def verified_argmin(
    ranking: Sequence[int],
    exact_fn: Callable[[int], float],
    top_k: int,
) -> VerifiedArgmin:
    """Exact-evaluate the first ``top_k`` of ``ranking``; return the
    exact argmin among them.

    ``ranking`` is the surrogate's predicted-ascending candidate order
    (e.g. from :meth:`~repro.surrogate.model.GemmSurrogate.rank_variants`).
    The returned ``best_value`` is by construction an exact evaluation.
    """
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if not len(ranking):
        raise ValueError("need at least one ranked candidate")
    shortlist = [int(i) for i in ranking[:top_k]]
    exact_values = {i: float(exact_fn(i)) for i in shortlist}
    best_index = min(shortlist, key=lambda i: (exact_values[i], i))
    return VerifiedArgmin(
        best_index=best_index,
        best_value=exact_values[best_index],
        evaluated=tuple(shortlist),
        exact_values=exact_values,
        surrogate_evaluations=len(ranking),
        exact_evaluations=len(shortlist),
    )


def verified_min_feasible(
    guess: int,
    lo: int,
    hi: int,
    feasible: Callable[[int], bool],
) -> Tuple[Optional[int], int]:
    """Smallest ``i`` in ``[lo, hi]`` with ``feasible(i)``, assuming
    feasibility is monotone non-decreasing in ``i``.

    ``guess`` (clamped into range) is where exact probing starts — the
    surrogate's only influence.  Returns ``(answer, exact_calls)``;
    ``answer`` is ``None`` when even ``hi`` is infeasible, or when the
    range is empty (``lo > hi``, nothing probed).  The answer
    always carries a two-sided exact certificate: ``feasible(answer)``
    was evaluated True and, when ``answer > lo``, ``feasible(answer-1)``
    was evaluated False — exactly the certificate the linear scan from
    ``lo`` produces, so the two agree on every monotone predicate.
    """
    if lo > hi:
        return None, 0
    probe = min(max(guess, lo), hi)
    calls = 0
    if feasible(probe):
        calls += 1
        # Walk down while the point below is still feasible.
        while probe > lo:
            calls += 1
            if feasible(probe - 1):
                probe -= 1
            else:
                return probe, calls
        return lo, calls
    calls += 1
    # Walk up to the first feasible point.
    while probe < hi:
        probe += 1
        calls += 1
        if feasible(probe):
            return probe, calls
    return None, calls


__all__ = [
    "VerifiedArgmin",
    "verified_argmin",
    "verified_min_feasible",
]
