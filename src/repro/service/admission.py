"""Bounded request admission with per-tenant fairness.

Every request the HTTP layer accepts is **offered** to this queue before
any work happens.  The queue never buffers unboundedly: past the global
``limit`` (or a single tenant's ``tenant_limit``) the offer is refused
and the server sheds the request with HTTP 429, a ``SKOP710``
diagnostic, and a ``Retry-After`` hint derived from the observed
service rate.  Dispatchers drain tenants round-robin, so one chatty
tenant cannot starve the rest, and compatible queued sweep requests can
be pulled out together for coalescing.

Single-threaded by design: every method runs on the server's event
loop, so plain data structures suffice (no locks).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: tenant label when a request names none
DEFAULT_TENANT = "anon"


@dataclass
class ServiceRequest:
    """One admitted unit of work flowing through the service."""

    kind: str                      #: "analyze" | "sweep" | "explore"
    tenant: str
    payload: Dict[str, Any]
    id: int = 0
    received: float = 0.0          #: monotonic admission time
    deadline: Optional[float] = None   #: monotonic; None = no deadline
    stream: bool = False
    plan: Any = None               #: resolved SweepPlan for sweeps
    #: resolved (program, inputs, machine, k, model factory, cache model
    #: name) for analyze and explore
    source: Any = None
    out: Any = None                #: asyncio.Queue the handler drains
    dropped: bool = False          #: slow client / disconnected
    drop_reason: str = ""

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class ShedDecision:
    """Why an offer was refused; rendered into the HTTP response."""

    status: int                    #: 429 (overload) or 503 (draining)
    reason: str
    code: str                      #: SKOP710 (shed) or SKOP715 (drain)
    retry_after: int               #: seconds, the Retry-After hint


class AdmissionQueue:
    """Bounded, tenant-fair FIFO with explicit load shedding."""

    def __init__(self, limit: int = 64,
                 tenant_limit: Optional[int] = None,
                 time_fn: Callable[[], float] = time.monotonic):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.tenant_limit = tenant_limit if tenant_limit else limit
        self._time = time_fn
        self._queues: Dict[str, deque] = {}
        self._rr: deque = deque()      #: tenants in round-robin order
        self._event = asyncio.Event()
        self.draining = False
        # counters for /statsz
        self.admitted_total = 0
        self.shed_total = 0
        self.sheds_by_reason: Dict[str, int] = {}
        #: EMA of per-batch service seconds, feeds the Retry-After hint
        self._service_ema = 0.25

    # -- observability ---------------------------------------------------
    def depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def depth_by_tenant(self) -> Dict[str, int]:
        return {tenant: len(queue)
                for tenant, queue in self._queues.items() if queue}

    def retry_after(self) -> int:
        """Seconds a shed client should wait before retrying."""
        backlog = self.depth() or 1
        return max(1, min(60, math.ceil(backlog * self._service_ema)))

    def note_service_time(self, seconds: float) -> None:
        """Feed one observed batch duration into the rate estimate."""
        self._service_ema = 0.8 * self._service_ema + 0.2 * max(
            0.0, seconds)

    # -- admission -------------------------------------------------------
    def _shed(self, status: int, reason: str,
              code: str) -> ShedDecision:
        self.shed_total += 1
        self.sheds_by_reason[reason] = (
            self.sheds_by_reason.get(reason, 0) + 1)
        return ShedDecision(status=status, reason=reason, code=code,
                            retry_after=self.retry_after())

    def offer(self, request: ServiceRequest) -> Optional[ShedDecision]:
        """Admit ``request`` or explain the refusal; never blocks."""
        if self.draining:
            return self._shed(503, "draining", "SKOP715")
        if self.depth() >= self.limit:
            return self._shed(429, "queue full", "SKOP710")
        queue = self._queues.setdefault(request.tenant, deque())
        if len(queue) >= self.tenant_limit:
            return self._shed(429, "tenant quota", "SKOP710")
        request.received = self._time()
        queue.append(request)
        if request.tenant not in self._rr:
            self._rr.append(request.tenant)
        self.admitted_total += 1
        self._event.set()
        return None

    # -- dispatch --------------------------------------------------------
    async def next(self) -> Optional[ServiceRequest]:
        """The next request, tenant round-robin; ``None`` once the queue
        is draining *and* empty (dispatcher shutdown signal)."""
        while True:
            request = self._pop()
            if request is not None:
                return request
            if self.draining:
                return None
            self._event.clear()
            await self._event.wait()

    def _pop(self) -> Optional[ServiceRequest]:
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                request = queue.popleft()
                if not queue:
                    self._rr.remove(tenant)
                return request
            if tenant in self._rr:
                self._rr.remove(tenant)
        return None

    def take_compatible(self, predicate: Callable[[ServiceRequest], bool],
                        limit: int) -> List[ServiceRequest]:
        """Remove and return up to ``limit`` queued requests matching
        ``predicate`` (for sweep coalescing), round-robin across
        tenants so one tenant cannot monopolize a shared batch."""
        taken: List[ServiceRequest] = []
        if limit < 1:
            return taken
        progressed = True
        while progressed and len(taken) < limit:
            progressed = False
            for tenant in list(self._rr):
                queue = self._queues.get(tenant)
                if not queue:
                    continue
                for request in queue:
                    if predicate(request):
                        queue.remove(request)
                        taken.append(request)
                        progressed = True
                        break
                if len(taken) >= limit:
                    break
        for tenant in [t for t in list(self._rr)
                       if not self._queues.get(t)]:
            self._rr.remove(tenant)
        return taken

    # -- drain -----------------------------------------------------------
    def close(self) -> List[ServiceRequest]:
        """Stop admitting; return (and clear) everything still queued.

        The server answers each returned request with a 503 drain
        response — queued work that never started is *refused*, not
        silently lost.
        """
        self.draining = True
        pending = list(itertools.chain.from_iterable(
            self._queues.values()))
        self._queues.clear()
        self._rr.clear()
        self._event.set()
        return pending

    def as_dict(self) -> Dict[str, Any]:
        return {
            "depth": self.depth(),
            "limit": self.limit,
            "tenant_limit": self.tenant_limit,
            "by_tenant": self.depth_by_tenant(),
            "admitted_total": self.admitted_total,
            "shed_total": self.shed_total,
            "sheds_by_reason": dict(self.sheds_by_reason),
            "retry_after_hint": self.retry_after(),
            "draining": self.draining,
        }
