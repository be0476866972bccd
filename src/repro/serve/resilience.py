"""Self-healing primitives for the serve stack.

PRs 4–6 gave the service budgets, degradation and observability; this
module gives it *recovery*.  Four cooperating pieces, each usable on its
own (docs/robustness.md, "serve resilience"):

* :class:`RetryPolicy` — client-side retry schedule: exponential
  backoff with **full jitter** (each delay is uniform on ``[0, cap]``,
  the AWS-style decorrelated form that avoids retry synchronization
  across a client fleet), a bounded attempt count, and a per-operation
  deadline that is independent of both the connect timeout and any one
  attempt's socket timeout.
* :class:`DedupWindow` — the server-side half of **idempotent retries**:
  a retried request carries the same client-minted ``request_key``; if
  the first attempt already completed (the reply was lost, not the
  work), the stored response is replayed instead of rescanned.  Bounded
  by entry count (LRU) and age (TTL), so an adversarial client cannot
  grow it.
* :class:`AdmissionController` — CoDel-style overload shedding: the
  controller watches *measured* queue wait (``serve_queue_wait_seconds``
  observations) and starts rejecting — with a ``Retry-After`` hint —
  when the **minimum** wait over a sliding interval exceeds the target.
  Using the window minimum (not mean) distinguishes a standing queue
  from a harmless burst, exactly as CoDel does for packet queues.
* :class:`ShardSupervisor` — restart bookkeeping for pool workers: dead
  or hung workers are restarted under exponential backoff, and a
  restart **storm** (too many restarts inside a window) opens a circuit
  breaker so the pool stops feeding a crash loop and re-plans chunks
  onto healthy capacity (the dispatcher-side inline rescue) until the
  cooldown passes.

Everything here is plain state + arithmetic — no sockets, no threads —
so each piece is unit-testable without a running service.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from threading import Lock
from typing import Any, Optional

from repro.guard.errors import UsageError

__all__ = [
    "RetryPolicy",
    "DedupWindow",
    "AdmissionController",
    "ShardSupervisor",
]


# ---------------------------------------------------------------------------
# RetryPolicy — the client half
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + full jitter for :class:`~repro.serve.client.
    MatchClient` operations.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    request plus up to two retries.  ``op_deadline`` bounds the whole
    operation (all attempts plus their backoff sleeps) in wall-clock
    seconds; ``None`` leaves only the attempt count as the bound.  A
    retried request is only safe when it is idempotent — the client
    sends a stable ``request_key`` so a retry of work that already
    completed server-side is answered from the :class:`DedupWindow`
    instead of being scanned twice.
    """

    #: total tries, including the first (1 = never retry)
    max_attempts: int = 3
    #: first backoff cap in seconds; attempt ``n`` caps at
    #: ``base_delay * multiplier**n``
    base_delay: float = 0.05
    #: ceiling on any single backoff sleep
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: wall-clock budget for the whole operation (None = attempts only)
    op_deadline: Optional[float] = None
    #: re-dial the connection before a retry (a lost connection is the
    #: common failure this policy exists for)
    reconnect: bool = True
    #: also retry 429-style rejections (honouring the server's
    #: ``retry_after_ms`` hint when present)
    retry_rejected: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise UsageError(f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.base_delay < 0 or self.max_delay < 0:
            raise UsageError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise UsageError("multiplier must be >= 1")
        if self.op_deadline is not None and self.op_deadline <= 0:
            raise UsageError("op_deadline must be positive")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The backoff sleep before retry number ``attempt`` (0-based):
        uniform on ``[0, min(max_delay, base_delay * multiplier**attempt)]``.
        """
        cap = min(self.max_delay, self.base_delay * (self.multiplier ** attempt))
        return (rng or random).uniform(0.0, cap)

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-retry policy (one attempt, fail fast)."""
        return cls(max_attempts=1)


# ---------------------------------------------------------------------------
# DedupWindow — the server half of idempotent retries
# ---------------------------------------------------------------------------


class DedupWindow:
    """Short-lived ``request_key -> response document`` replay cache.

    Completed match responses are remembered for ``ttl`` seconds (and at
    most ``max_entries`` of them, LRU-evicted) so a client retrying a
    request whose *reply* was lost gets the stored answer instead of a
    second scan.  Each response is kept as its compact JSON encoding,
    zlib-compressed — a match reply is an order of magnitude smaller
    that way than as Python objects — and decoded on replay into the
    identical document.  Thread-safe: the asyncio dispatcher writes from
    the event loop while ``stats``-op readers may snapshot from anywhere.
    """

    def __init__(self, ttl: float = 30.0, max_entries: int = 1024) -> None:
        if ttl <= 0:
            raise UsageError(f"dedup ttl must be positive (got {ttl})")
        if max_entries < 1:
            raise UsageError(f"dedup max_entries must be >= 1 (got {max_entries})")
        self.ttl = ttl
        self.max_entries = max_entries
        self.hits = 0
        #: compressed bytes currently held across all entries
        self.retained_bytes = 0
        self._lock = Lock()
        self._entries: OrderedDict[str, tuple[float, bytes]] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _drop(self, key: Optional[str] = None) -> None:
        """Remove ``key`` (default: the oldest entry), keeping the tally."""
        if key is None:
            _, (_, body) = self._entries.popitem(last=False)
        else:
            _, body = self._entries.pop(key)
        self.retained_bytes -= len(body)

    def _prune(self, now: float) -> None:
        while self._entries:
            stored_at, _ = next(iter(self._entries.values()))
            if now - stored_at <= self.ttl:
                break
            self._drop()

    def put(self, key: str, document: dict) -> None:
        """Remember a completed response for ``key`` (a JSON document)."""
        body = zlib.compress(json.dumps(document, separators=(",", ":")).encode(), 1)
        now = time.monotonic()
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = (now, body)
            self.retained_bytes += len(body)
            self._prune(now)
            while len(self._entries) > self.max_entries:
                self._drop()

    def get(self, key: str) -> Optional[dict]:
        """The stored response for ``key`` (a fresh decode the caller
        may edit), or None when absent/expired.  A hit refreshes LRU
        order (retry storms keep hot keys alive)."""
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return json.loads(zlib.decompress(entry[1]))


# ---------------------------------------------------------------------------
# AdmissionController — CoDel-style early shedding
# ---------------------------------------------------------------------------


class AdmissionController:
    """Shed load from *measured* queue wait, before the queue fills.

    A bounded queue alone converts overload into a latency cliff: every
    accepted request waits nearly the full queue, and only the very last
    ones are rejected.  CoDel's insight is to watch the **minimum**
    delay over a sliding interval — a standing queue keeps even its
    luckiest request waiting, while a burst lets some request through
    fast.  When ``min(queue_wait over window) > target`` the controller
    sheds new arrivals with a ``Retry-After`` hint sized to the current
    wait, so clients back off instead of piling on.
    """

    def __init__(self, target: float = 0.05, window: float = 1.0) -> None:
        if target <= 0:
            raise UsageError(f"admission target must be positive (got {target})")
        if window <= 0:
            raise UsageError(f"admission window must be positive (got {window})")
        self.target = target
        self.window = window
        self.shed_total = 0
        self._lock = Lock()
        self._waits: deque[tuple[float, float]] = deque()

    def observe(self, wait_seconds: float) -> None:
        """Record one measured queue wait (called at dispatch time)."""
        now = time.monotonic()
        with self._lock:
            self._waits.append((now, wait_seconds))
            self._expire(now)

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._waits and self._waits[0][0] < horizon:
            self._waits.popleft()

    def min_wait(self) -> Optional[float]:
        """The minimum queue wait observed inside the window (None when
        no dispatch has happened recently — an idle service admits)."""
        with self._lock:
            self._expire(time.monotonic())
            if not self._waits:
                return None
            return min(wait for _, wait in self._waits)

    def should_shed(self) -> bool:
        """True when the service is in standing overload."""
        floor = self.min_wait()
        return floor is not None and floor > self.target

    def shed(self) -> float:
        """Record one shed; returns the ``Retry-After`` hint in seconds
        (the current wait floor, at least one target's worth)."""
        floor = self.min_wait() or self.target
        with self._lock:
            self.shed_total += 1
        return max(self.target, floor)


# ---------------------------------------------------------------------------
# ShardSupervisor — restart backoff + storm circuit breaker
# ---------------------------------------------------------------------------


@dataclass
class SupervisorAction:
    """What the pool should do about a worker failure."""

    #: rebuild the executor and retry (after sleeping ``delay``)
    restart: bool
    #: backoff sleep before the restart (0 when not restarting)
    delay: float = 0.0
    #: the breaker opened on this failure (or was already open)
    breaker_open: bool = False


class ShardSupervisor:
    """Restart bookkeeping for a :class:`~repro.serve.shards.ShardPool`.

    The pool reports worker failures (a dead process, a hung scan, a
    failed heartbeat); the supervisor answers with a
    :class:`SupervisorAction`: restart under exponential backoff, or —
    when restarts storm — open the circuit breaker for ``cooldown``
    seconds.  While the breaker is open the pool must not rebuild
    process workers for scans; it re-plans chunks onto healthy capacity
    (dispatcher-side inline scanning) instead, and probes the executor
    again only after the cooldown.

    ``max_restarts`` consecutive failures *within one recovery attempt
    sequence* also stops the restart loop (the failure is then treated
    as persistent — e.g. an initializer that always dies — and handed to
    the caller's next rung: the backend degradation ladder).
    """

    def __init__(
        self,
        max_restarts: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        storm_threshold: int = 4,
        storm_window: float = 30.0,
        cooldown: float = 5.0,
    ) -> None:
        if max_restarts < 0:
            raise UsageError("max_restarts must be >= 0")
        if storm_threshold < 1:
            raise UsageError("storm_threshold must be >= 1")
        if storm_window <= 0 or cooldown <= 0:
            raise UsageError("storm_window and cooldown must be positive")
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.storm_threshold = storm_threshold
        self.storm_window = storm_window
        self.cooldown = cooldown
        #: worker restarts over the supervisor's lifetime
        self.restarts_total = 0
        #: hung-worker kills over the supervisor's lifetime
        self.hangs_total = 0
        #: times the breaker opened
        self.breaker_opens_total = 0
        self._lock = Lock()
        self._consecutive = 0
        self._recent: deque[float] = deque()
        self._open_until = 0.0

    # -- breaker state ----------------------------------------------------

    def breaker_open(self) -> bool:
        with self._lock:
            return time.monotonic() < self._open_until

    def breaker_remaining(self) -> float:
        """Seconds until the breaker closes (0 when closed)."""
        with self._lock:
            return max(0.0, self._open_until - time.monotonic())

    # -- failure / success reporting --------------------------------------

    def record_hang(self) -> None:
        """A hung worker was detected (and, in process mode, killed)."""
        with self._lock:
            self.hangs_total += 1

    def record_success(self) -> None:
        """A scan (or heartbeat) completed: the current failure sequence
        is over.  Does not close an open breaker early — the cooldown
        exists to let a crash loop actually drain."""
        with self._lock:
            self._consecutive = 0

    def on_failure(self, rng: Optional[random.Random] = None) -> SupervisorAction:
        """Decide the response to one worker failure.

        Returns restart-with-backoff while the consecutive count and the
        storm budget allow it; otherwise opens (or reports the already
        open) breaker.
        """
        now = time.monotonic()
        with self._lock:
            if now < self._open_until:
                return SupervisorAction(restart=False, breaker_open=True)
            self._consecutive += 1
            horizon = now - self.storm_window
            while self._recent and self._recent[0] < horizon:
                self._recent.popleft()
            storming = len(self._recent) + 1 > self.storm_threshold
            if storming or self._consecutive > self.max_restarts:
                if storming:
                    self._open_until = now + self.cooldown
                    self.breaker_opens_total += 1
                self._consecutive = 0
                return SupervisorAction(restart=False, breaker_open=storming)
            self._recent.append(now)
            self.restarts_total += 1
            cap = min(
                self.backoff_max,
                self.backoff_base * (2.0 ** (self._consecutive - 1)),
            )
            return SupervisorAction(
                restart=True, delay=(rng or random).uniform(0.0, cap)
            )

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "restarts_total": self.restarts_total,
                "hangs_total": self.hangs_total,
                "breaker_opens_total": self.breaker_opens_total,
                "breaker_open": time.monotonic() < self._open_until,
                "breaker_remaining_s": max(0.0, self._open_until - time.monotonic()),
            }
