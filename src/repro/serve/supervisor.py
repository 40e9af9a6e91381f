"""Per-tenant restart policy: backoff, budget, quarantine.

Before this module a tenant whose pump raised was parked ``failed``
forever; :class:`TenantSupervisor` turns that into a self-healing loop
driven from the service's sweep:

* a failure schedules a **restart** after an exponential-backoff delay
  with seeded jitter — the same
  :class:`~repro.stream.resilience.RetryPolicy` curve the streaming
  runtime uses for IO retries, instantiated per tenant with a seed
  derived from the tenant id so delays are deterministic per tenant
  and de-synchronized across the fleet;
* restarts are **budgeted** over a rolling window
  (``SupervisorConfig.restart_budget`` within ``restart_window``
  seconds): a tenant that keeps dying stops consuming restarts and
  escalates to a permanent **quarantined** state carrying the final
  reason and traceback, visible on ``/tenants`` until an operator
  intervenes;
* a :class:`~repro.stream.resilience.CircuitBreaker` per tenant counts
  the *consecutive* failures that drive the backoff exponent (any
  successful pump resets it) and accumulates time spent unhealthy.

Threading: the supervisor is called only from the service's sweep loop
(between pump barriers) and from control-plane accessors; a single lock
keeps :meth:`status` snapshots consistent with mutations.  All time is
the injected monotonic clock — never wall time.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.config import SupervisorConfig
from ..stream.resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "RUNNING",
    "BACKOFF",
    "QUARANTINED",
    "TenantSupervisor",
]

#: Supervision states surfaced in /tenants.
RUNNING = "running"
BACKOFF = "backoff"
QUARANTINED = "quarantined"


def _tenant_seed(base: int, tenant_id: str) -> int:
    """Deterministic per-tenant jitter seed (id-hash XOR base)."""
    tag = int(
        hashlib.sha256(tenant_id.encode("utf-8")).hexdigest()[:8], 16
    )
    return base ^ tag


@dataclass(slots=True)
class _Entry:
    """Supervision state for one tenant."""

    policy: RetryPolicy
    breaker: CircuitBreaker
    state: str = RUNNING
    restarts: int = 0
    next_restart_at: float | None = None
    #: Monotonic timestamps of restarts inside the rolling window.
    window: deque = field(default_factory=deque)
    history: list = field(default_factory=list)
    quarantine_reason: str | None = None
    quarantine_trace: str | None = None


class TenantSupervisor:
    """Schedules tenant restarts; escalates repeat offenders."""

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.config.validate()
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}

    # -- bookkeeping -------------------------------------------------------

    def _entry(self, tenant_id: str) -> _Entry:
        # Caller holds _lock.
        entry = self._entries.get(tenant_id)
        if entry is None:
            cfg = self.config
            entry = _Entry(
                policy=RetryPolicy.for_backoff(
                    cfg.backoff_base,
                    cfg.backoff_max,
                    cfg.backoff_jitter,
                    _tenant_seed(cfg.backoff_seed, tenant_id),
                ),
                breaker=CircuitBreaker(clock=self._clock),
            )
            self._entries[tenant_id] = entry
        return entry

    def forget(self, tenant_id: str) -> None:
        """Drop all state for a detached tenant."""
        with self._lock:
            self._entries.pop(tenant_id, None)

    def _note(self, entry: _Entry, event: dict[str, Any]) -> None:
        entry.history.append(event)
        cap = self.config.history_cap
        while len(entry.history) > cap:
            entry.history.pop(0)

    # -- the policy --------------------------------------------------------

    def record_failure(
        self,
        tenant_id: str,
        reason: str,
        trace: str | None = None,
    ) -> str:
        """A tenant died this sweep.  Returns the resulting state:
        :data:`BACKOFF` (restart scheduled) or :data:`QUARANTINED`
        (budget exhausted — permanent until operator action)."""
        now = self._clock()
        with self._lock:
            entry = self._entry(tenant_id)
            entry.breaker.record_failure()
            window = entry.window
            horizon = now - self.config.restart_window
            while window and window[0] < horizon:
                window.popleft()
            if len(window) >= self.config.restart_budget:
                entry.state = QUARANTINED
                entry.next_restart_at = None
                entry.quarantine_reason = reason
                entry.quarantine_trace = trace
                self._note(entry, {
                    "at": now,
                    "event": "quarantine",
                    "reason": reason,
                    "restarts_in_window": len(window),
                })
                return QUARANTINED
            # Backoff exponent = consecutive failures so far (1st
            # failure waits ~base, then doubles), via the shared
            # RetryPolicy curve.
            delay = entry.policy.delay(
                max(0, entry.breaker.consecutive_failures - 1)
            )
            entry.state = BACKOFF
            entry.next_restart_at = now + delay
            window.append(now)
            self._note(entry, {
                "at": now,
                "event": "backoff",
                "reason": reason,
                "delay_s": round(delay, 3),
            })
            return BACKOFF

    def record_restart(self, tenant_id: str) -> None:
        """The service actually restarted the tenant."""
        now = self._clock()
        with self._lock:
            entry = self._entry(tenant_id)
            entry.state = RUNNING
            entry.next_restart_at = None
            entry.restarts += 1
            self._note(entry, {"at": now, "event": "restart"})

    def record_success(self, tenant_id: str) -> None:
        """A pump completed cleanly; consecutive-failure count resets.

        The rolling restart window is deliberately *not* cleared: a
        tenant flapping between one good pump and one crash still
        exhausts its budget instead of restarting forever.
        """
        with self._lock:
            entry = self._entries.get(tenant_id)
            if entry is None:
                return
            entry.breaker.record_success()
            if entry.state == BACKOFF:
                return
            entry.state = RUNNING

    def due(self) -> list[str]:
        """Tenant ids whose backoff has elapsed (sorted, deterministic)."""
        now = self._clock()
        with self._lock:
            return sorted(
                tid for tid, e in self._entries.items()
                if e.state == BACKOFF
                and e.next_restart_at is not None
                and e.next_restart_at <= now
            )

    def next_due_in(self) -> float | None:
        """Seconds until the earliest BACKOFF restart is due (never
        below 0), or ``None`` when no tenant is backing off."""
        now = self._clock()
        with self._lock:
            due = [
                e.next_restart_at for e in self._entries.values()
                if e.state == BACKOFF and e.next_restart_at is not None
            ]
        return max(0.0, min(due) - now) if due else None

    # -- introspection -----------------------------------------------------

    def state(self, tenant_id: str) -> str:
        with self._lock:
            entry = self._entries.get(tenant_id)
            return entry.state if entry is not None else RUNNING

    def total_restarts(self) -> int:
        with self._lock:
            return sum(e.restarts for e in self._entries.values())

    def quarantined(self) -> list[str]:
        with self._lock:
            return sorted(
                tid for tid, e in self._entries.items()
                if e.state == QUARANTINED
            )

    def status(self, tenant_id: str) -> dict[str, Any]:
        """Supervision block for one tenant's /tenants entry."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(tenant_id)
            if entry is None:
                return {
                    "state": RUNNING,
                    "restarts": 0,
                    "restart_history": [],
                    "next_restart_in": None,
                    "quarantine_reason": None,
                    "quarantine_trace": None,
                }
            next_in = None
            if entry.state == BACKOFF and entry.next_restart_at:
                next_in = round(
                    max(0.0, entry.next_restart_at - now), 3
                )
            return {
                "state": entry.state,
                "restarts": entry.restarts,
                "restart_history": [dict(e) for e in entry.history],
                "next_restart_in": next_in,
                "quarantine_reason": entry.quarantine_reason,
                "quarantine_trace": entry.quarantine_trace,
            }
