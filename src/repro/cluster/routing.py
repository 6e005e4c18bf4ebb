"""Front-door routing policies: which replica takes the next request.

Each policy sees the currently *admissible* replicas (up, below the
admission queue cap) and picks one.  The menu is the classic load-balancer
ladder the capacity sweep compares:

* **round_robin** — cycle through replicas, blind to queue state;
* **jsq** (join-shortest-queue / least-outstanding) — global minimum of
  outstanding requests; optimal with perfect state, expensive to know at
  scale;
* **po2** (power of two choices) — sample two replicas, queue the less
  loaded; nearly JSQ's tail at a fraction of the state, the standard
  production compromise;
* **locality** — keep a request on a replica holding its embedding
  shard (least-outstanding within the shard group), spilling to
  power-of-two across the whole set only when the local group is deep in
  queue — trading a little balance for avoiding cross-host sparse
  lookups.

Policies are deliberately stateful-but-seedless: any randomness comes
from the simulator's generator passed into ``choose``, so one seed fixes
the whole run.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

POLICY_NAMES = ("round_robin", "jsq", "po2", "locality")


class ReplicaView(Protocol):
    """What a routing policy may observe about a replica."""

    replica_id: int
    shard: int
    outstanding: int


class RoutingPolicy:
    """Base: pick one of ``candidates`` for a request with ``shard_id``."""

    name = "base"

    def choose(
        self,
        candidates: Sequence[ReplicaView],
        shard_id: int,
        rng: np.random.Generator,
    ) -> Optional[ReplicaView]:
        raise NotImplementedError


def _least_outstanding(candidates: Sequence[ReplicaView]) -> ReplicaView:
    # Manual scan, not ``min(..., key=...)`` — this runs once per routed
    # request and the key-tuple allocations dominate at that rate.  Ties
    # break on replica id, and the scan keeps the first (lowest-id)
    # minimum, so the result is the historical ``(outstanding,
    # replica_id)`` ordering exactly.
    best = candidates[0]
    best_outstanding = best.outstanding
    for candidate in candidates:
        outstanding = candidate.outstanding
        if outstanding < best_outstanding or (
            outstanding == best_outstanding
            and candidate.replica_id < best.replica_id
        ):
            best = candidate
            best_outstanding = outstanding
    return best


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas regardless of queue state."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        chosen = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return chosen


class LeastOutstandingPolicy(RoutingPolicy):
    """Join the shortest queue (global least-outstanding, ties by id)."""

    name = "jsq"

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        return _least_outstanding(candidates)


def po2_pair(rng: np.random.Generator, n: int) -> Tuple[int, int]:
    """Two distinct indices below ``n`` (at least 2), drawn exactly as
    ``rng.choice(n, 2, replace=False)`` draws them, at about half its
    cost.  numpy answers that call with Floyd's algorithm — a bounded
    draw over ``[0, n - 2]``, then one over ``[0, n - 1]`` that becomes
    ``n - 1`` if it repeats the first — and a one-step Fisher-Yates
    shuffle, a draw over ``[0, 1]`` that swaps the pair on 0.  The same
    three bounded draws here return the same pair and leave the
    generator in the same state; ``tests/fastsim_reference.py`` keeps
    the ``choice`` call as the oracle.  The indices may be numpy
    integers.
    """
    integers = rng.integers
    first = integers(n - 1)
    second = integers(n)
    if second == first:
        second = n - 1
    if integers(2):
        return first, second
    return second, first


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two distinct replicas, queue the less loaded one."""

    name = "po2"

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        n = len(candidates)
        if n == 1:
            return candidates[0]
        first, second = po2_pair(rng, n)
        # The pair's least-outstanding replica, ties to the lower id.
        first = candidates[first]
        second = candidates[second]
        if second.outstanding < first.outstanding or (
            second.outstanding == first.outstanding
            and second.replica_id < first.replica_id
        ):
            return second
        return first


class LocalityAwarePolicy(RoutingPolicy):
    """Prefer replicas holding the request's shard; spill under pressure.

    ``spill_outstanding`` is the local-group queue depth beyond which the
    policy gives up on locality for this request and falls back to
    power-of-two over every admissible replica (the spilled request then
    pays the cross-host penalty, which the simulator accounts).
    """

    name = "locality"

    def __init__(self, spill_outstanding: int = 8) -> None:
        if spill_outstanding < 1:
            raise ValueError("spill threshold must be at least 1")
        self.spill_outstanding = spill_outstanding
        self._fallback = PowerOfTwoPolicy()

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        local = [r for r in candidates if r.shard == shard_id]
        if local:
            best = _least_outstanding(local)
            if best.outstanding < self.spill_outstanding:
                return best
        return self._fallback.choose(candidates, shard_id, rng)


def make_policy(name: str, spill_outstanding: int = 8) -> RoutingPolicy:
    """Instantiate a routing policy by its sweep name."""
    policies = {
        "round_robin": RoundRobinPolicy,
        "jsq": LeastOutstandingPolicy,
        "po2": PowerOfTwoPolicy,
    }
    if name == "locality":
        return LocalityAwarePolicy(spill_outstanding=spill_outstanding)
    if name not in policies:
        raise ValueError(
            f"unknown routing policy {name!r}; choose one of {POLICY_NAMES}"
        )
    return policies[name]()
