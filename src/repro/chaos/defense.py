"""Overload defenses: deadlines, retry budgets, backoff, circuit breakers.

The four standard defenses against metastable retry storms, as pure
seedless state machines the cluster simulator consults (any randomness —
backoff jitter — comes from the simulator's own generator, preserving
the one-seed-one-run discipline):

* **deadline propagation** — every request carries an absolute deadline
  (arrival + budget); work past its deadline is dropped at the front
  door and at dequeue instead of burning a replica on an answer nobody
  is waiting for;
* **retry token bucket** — a tier-wide budget on retry traffic, so
  retries can never amplify into a majority of offered load;
* **exponential backoff with jitter** — retried work waits
  ``base * factor^attempt`` (capped), jittered to decorrelate clients;
* **per-replica circuit breakers** — closed → open → half-open: a
  replica that just failed is shielded from traffic for a cooldown, then
  probed with a bounded quota before taking full load again.

Everything here is off unless configured, and a ``DefenseRuntime`` built
from the empty :class:`DefenseConfig` is inert — the simulator treats it
exactly like ``defense=None``.
"""

from __future__ import annotations

import dataclasses
from typing import AbstractSet, Dict, Optional, Set

import numpy as np

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class TokenBucket:
    """A deterministic time-based token bucket.

    Refill is computed from elapsed simulated time at each ``take``, so
    the bucket is a pure function of the call sequence — no wall clocks,
    no background threads.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("token rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1 token")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_s = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def take(self, now_s: float, amount: float = 1.0) -> bool:
        """Consume ``amount`` tokens at ``now_s`` if available."""
        if now_s < self._last_s:
            raise ValueError("token bucket time must not run backwards")
        self._tokens = min(
            self.burst, self._tokens + (now_s - self._last_s) * self.rate_per_s
        )
        self._last_s = now_s
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Per-replica circuit-breaker tuning."""

    failure_threshold: int = 1  # consecutive failures that open the breaker
    cooldown_s: float = 2.0  # open -> half-open delay
    probe_quota: int = 2  # dispatches admitted while half-open
    close_after_successes: int = 2  # half-open successes that close it

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown must be positive")
        if self.probe_quota < 1:
            raise ValueError("probe quota must be at least 1")
        if self.close_after_successes < 1:
            raise ValueError("close-after-successes must be at least 1")


class CircuitBreaker:
    """The closed → open → half-open state machine for one replica.

    * **closed** — traffic flows; ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — no traffic at all until ``cooldown_s`` has elapsed
      since the trip, at which point the next ``allow`` transitions to
      half-open.
    * **half-open** — at most ``probe_quota`` dispatches are admitted
      (``on_dispatch`` accounts them); ``close_after_successes``
      successful completions close the breaker, any failure re-opens it
      and restarts the cooldown.
    """

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at_s = 0.0
        self._probes_dispatched = 0
        self._probe_successes = 0

    def _enter_half_open(self) -> None:
        self.state = BREAKER_HALF_OPEN
        self._probes_dispatched = 0
        self._probe_successes = 0

    def allow(self, now_s: float) -> bool:
        """Whether a dispatch to this replica is admissible at ``now_s``."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now_s - self._opened_at_s >= self.config.cooldown_s:
                self._enter_half_open()
            else:
                return False
        # Half-open: admit exactly the probe quota.
        return self._probes_dispatched < self.config.probe_quota

    def on_dispatch(self, now_s: float) -> None:
        """Account one admitted dispatch (probe bookkeeping)."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_dispatched += 1

    def record_success(self, now_s: float) -> None:
        """One request completed successfully on this replica."""
        if self.state == BREAKER_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.close_after_successes:
                self.state = BREAKER_CLOSED
                self._consecutive_failures = 0
        elif self.state == BREAKER_CLOSED:
            self._consecutive_failures = 0

    def record_failure(self, now_s: float) -> None:
        """The replica failed (fault, injected outage, lost probe)."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN
            self._opened_at_s = now_s
            return
        self._consecutive_failures += 1
        if (self.state == BREAKER_CLOSED
                and self._consecutive_failures >= self.config.failure_threshold):
            self.state = BREAKER_OPEN
            self._opened_at_s = now_s


@dataclasses.dataclass(frozen=True)
class DefenseConfig:
    """Which defenses are armed, and how.  Everything defaults to off."""

    # Per-request latency budget; None disables deadline propagation.
    deadline_s: Optional[float] = None
    # Tier-wide retry budget; None disables the token bucket.
    retry_tokens_per_s: Optional[float] = None
    retry_token_burst: float = 10.0
    # Exponential backoff for retries; None disables (immediate retry).
    backoff_base_s: Optional[float] = None
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.5  # uniform +/- fraction of the delay
    # Per-replica circuit breakers; None disables.
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline must be positive")
        if self.retry_tokens_per_s is not None and self.retry_tokens_per_s <= 0:
            raise ValueError("retry token rate must be positive")
        if self.backoff_base_s is not None and self.backoff_base_s <= 0:
            raise ValueError("backoff base must be positive")
        if self.backoff_factor < 1:
            raise ValueError("backoff factor must be at least 1")
        if not (0 <= self.backoff_jitter < 1):
            raise ValueError("backoff jitter must be in [0, 1)")

    @classmethod
    def full(cls, deadline_s: float = 0.3) -> "DefenseConfig":
        """Every defense armed with production-shaped defaults."""
        return cls(
            deadline_s=deadline_s,
            retry_tokens_per_s=40.0,
            retry_token_burst=20.0,
            backoff_base_s=0.05,
            backoff_factor=2.0,
            backoff_max_s=1.0,
            backoff_jitter=0.5,
            breaker=BreakerConfig(),
        )

    @property
    def inert(self) -> bool:
        """True when no defense is armed at all."""
        return (self.deadline_s is None
                and self.retry_tokens_per_s is None
                and self.backoff_base_s is None
                and self.breaker is None)


class DefenseRuntime:
    """The per-run mutable state behind a :class:`DefenseConfig`.

    One instance per simulated run — breakers and token buckets are
    stateful, so sharing a runtime across runs breaks determinism.
    """

    def __init__(self, config: DefenseConfig) -> None:
        self.config = config
        self._bucket = (
            TokenBucket(config.retry_tokens_per_s, config.retry_token_burst)
            if config.retry_tokens_per_s is not None else None
        )
        self._breakers: Dict[int, CircuitBreaker] = {}
        # Ids whose breaker is not closed.  A breaker trips only in
        # ``record_failure`` and closes only in ``record_success``, so
        # the two ``on_replica_*`` hooks keep this exact.
        self._tripped: Set[int] = set()
        # Run tallies for inspection after the fact.  No report reads
        # them — the chaos campaign scores the ClusterReport alone; the
        # unit tests pin each one, and the routing-equivalence tests
        # compare them across front-door implementations.
        self.retries_denied = 0
        self.deadline_drops = 0
        self.breaker_rejections = 0

    @property
    def tripped(self) -> AbstractSet[int]:
        """Live view of the replica ids whose breaker is open or
        half-open — the only ones :meth:`replica_allowed` can refuse.

        The cluster front door keeps a reference and consults the
        breakers of just these replicas on each routed request.
        """
        return self._tripped

    @property
    def deadline_s(self) -> Optional[float]:
        return self.config.deadline_s

    def past_deadline(self, now_s: float, arrival_s: float) -> bool:
        """Deadline propagation: is this request already dead?"""
        if self.config.deadline_s is None:
            return False
        if now_s > arrival_s + self.config.deadline_s:
            self.deadline_drops += 1
            return True
        return False

    def take_retry_token(self, now_s: float) -> bool:
        """Whether the tier-wide retry budget admits another retry."""
        if self._bucket is None:
            return True
        if self._bucket.take(now_s):
            return True
        self.retries_denied += 1
        return False

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered exponential backoff for retry ``attempt`` (0-based).

        Jitter is drawn from the simulator's seeded generator, so runs
        stay bit-reproducible with defenses armed.
        """
        config = self.config
        if config.backoff_base_s is None:
            return 0.0
        delay = min(
            config.backoff_base_s * config.backoff_factor ** attempt,
            config.backoff_max_s,
        )
        if config.backoff_jitter > 0:
            delay *= 1.0 + config.backoff_jitter * float(rng.uniform(-1.0, 1.0))
        return delay

    def breaker(self, replica_id: int) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(replica_id)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker)
            self._breakers[replica_id] = breaker
        return breaker

    def replica_allowed(self, replica_id: int, now_s: float) -> bool:
        """Circuit-breaker gate for routing candidates."""
        if self.config.breaker is None:
            return True
        if self.breaker(replica_id).allow(now_s):
            return True
        self.breaker_rejections += 1
        return False

    def on_dispatch(self, replica_id: int, now_s: float) -> None:
        # Only a half-open breaker counts dispatches, and every breaker
        # that is not closed is in the tripped set.
        if replica_id in self._tripped:
            self._breakers[replica_id].on_dispatch(now_s)

    def on_replica_success(self, replica_id: int, now_s: float) -> None:
        # Breakers come into being on a replica's first failure; before
        # that a success would find a closed breaker with nothing to reset.
        breaker = self._breakers.get(replica_id)
        if breaker is not None:
            breaker.record_success(now_s)
            if breaker.state == BREAKER_CLOSED:
                self._tripped.discard(replica_id)

    def on_replica_failure(self, replica_id: int, now_s: float) -> None:
        if self.config.breaker is not None:
            breaker = self.breaker(replica_id)
            breaker.record_failure(now_s)
            if breaker.state != BREAKER_CLOSED:
                self._tripped.add(replica_id)


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerConfig",
    "CircuitBreaker",
    "DefenseConfig",
    "DefenseRuntime",
    "TokenBucket",
]
