"""Fair-share job scheduling: per-tenant queues + token-bucket limits.

The daemon used to drain one global ``PriorityQueue``; a single chatty
tenant could fill the queue and starve everyone else.  This module gives
the service two independent fairness levers:

:class:`TenantScheduler`
    One priority heap *per tenant*, served in **weighted stride order**:
    each tenant carries a ``pass`` value that advances by ``1 / weight``
    every time one of its jobs is dispatched, and the scheduler always
    picks the non-empty tenant with the smallest pass (ties broken by
    tenant name).  A tenant with weight 2 therefore receives twice the
    dispatch share of a weight-1 tenant under contention, while an idle
    tenant's unused share is redistributed automatically.  Within a
    tenant, jobs keep the original ``(priority, submission order)``
    ordering.  ``get()`` **blocks** on a condition variable — the worker
    wake-up is event-driven (zero idle latency, no poll interval) — and
    returns ``None`` once :meth:`TenantScheduler.close` is called, which
    is the shutdown sentinel: queued jobs stay PENDING in the journal for
    the next daemon instance (drain semantics).

    Jobs may carry an opaque coalescing ``key`` (the daemon passes the
    batch key of batchable specs).  :meth:`TenantScheduler.get_batch`
    pops a leader and pulls up to ``batch_max - 1`` same-key followers in
    one atomic step via a key → queued-ids index, so batch collection is
    O(batch) no matter how deep the backlog is — never a scan of the
    heaps.  Followers leave the index immediately; their heap entries
    stay behind as tombstoned ghosts that ``get`` skips (and cleans up)
    lazily, which keeps removal O(1) while staying correct when a retried
    job re-queues the same id behind its own ghost.

:class:`TokenBucket`
    The classic refill-at-``rate``, burst-capped counter used by the
    intake path to reject jobs from a tenant exceeding its sustained
    submission rate with the typed ``rate_limited`` reason — *before*
    they consume a queue slot, so the ``queue_full`` backpressure keeps
    protecting well-behaved tenants.

Determinism: stride scheduling uses no randomness and no wall clock, so
given the same put/get interleaving the dispatch order is reproducible —
which is what lets the fairness tests assert exact service ratios.
"""

from __future__ import annotations

import heapq
import threading
import time

from repro.exceptions import ServiceError

__all__ = ["TenantScheduler", "TokenBucket"]


class TenantScheduler:
    """Weighted fair queueing over per-tenant priority heaps.

    ``weights`` maps tenant name → positive dispatch weight; unlisted
    tenants (including the implicit ``"default"``) get weight 1.0.
    """

    def __init__(self, weights: "dict[str, float] | None" = None) -> None:
        self._weights: "dict[str, float]" = {}
        for tenant, weight in (weights or {}).items():
            weight = float(weight)
            if not weight > 0:
                raise ServiceError(
                    f"tenant weight for {tenant!r} must be > 0, got {weight}"
                )
            self._weights[str(tenant)] = weight
        self._cond = threading.Condition()
        self._heaps: "dict[str, list[tuple[int, int, str]]]" = {}
        self._passes: "dict[str, float]" = {}
        # Coalescing support: job id -> key, key -> {job id: tenant} (in
        # submission order), and ghost counts for entries whose job was
        # already taken as a batch follower.
        self._keys: "dict[str, str]" = {}
        self._index: "dict[str, dict[str, str]]" = {}
        self._tombstones: "dict[str, int]" = {}
        self._seq = 0
        self._size = 0
        self._closed = False

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def __len__(self) -> int:
        with self._cond:
            return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ put/get

    def put(
        self, tenant: str, priority: int, job_id: str, key: "str | None" = None
    ) -> None:
        """Enqueue one job under its tenant and wake one waiting worker.

        ``key`` is an opaque coalescing key: jobs sharing one may be
        pulled together by :meth:`get_batch`.  Accepted even after
        :meth:`close` (a retrying job re-queued during drain simply stays
        PENDING — ``get`` never hands it out).
        """
        with self._cond:
            self._seq += 1
            heap = self._heaps.get(tenant)
            if heap is None:
                heap = self._heaps[tenant] = []
                # A tenant joining (or re-joining after going idle) starts
                # at the current minimum pass: it cannot bank idle time to
                # monopolise the workers later.
                self._passes[tenant] = min(self._passes.values(), default=0.0)
            heapq.heappush(heap, (priority, self._seq, job_id))
            if key is not None:
                self._keys[job_id] = key
                self._index.setdefault(key, {})[job_id] = tenant
            self._size += 1
            self._cond.notify()

    def get(self, timeout: "float | None" = None) -> "str | None":
        """Dequeue the next job id in weighted fair order.

        Blocks until a job is available; returns ``None`` on close (the
        shutdown sentinel) or — when ``timeout`` is given — after waiting
        that long without work.
        """
        batch = self.get_batch(1, timeout=timeout)
        return None if batch is None else batch[0]

    def get_batch(
        self, batch_max: int, timeout: "float | None" = None
    ) -> "list[str] | None":
        """Dequeue a leader plus up to ``batch_max - 1`` queued jobs that
        share its coalescing key, atomically.

        The followers come out of the key index in submission order and
        each is charged to its own tenant's stride, so batching never
        distorts the fair-share accounting.  Blocking/close/timeout
        semantics match :meth:`get`; the leader is always ``batch[0]``.
        """
        with self._cond:
            while True:
                if self._closed:
                    return None
                tenant = self._pick()
                if tenant is not None:
                    popped = self._pop(tenant)
                    if popped is None:
                        continue  # the heap held only ghosts; re-pick
                    leader, key = popped
                    batch = [leader]
                    bucket = self._index.get(key) if key is not None else None
                    while bucket and len(batch) < batch_max:
                        follower, follower_tenant = next(iter(bucket.items()))
                        del bucket[follower]
                        del self._keys[follower]
                        # The follower's heap entry stays behind as a
                        # ghost; counted tombstones (not a set) keep a
                        # retried job's fresh entry distinct from the
                        # ghost in front of it.
                        self._tombstones[follower] = (
                            self._tombstones.get(follower, 0) + 1
                        )
                        self._passes[follower_tenant] += 1.0 / self.weight(
                            follower_tenant
                        )
                        self._size -= 1
                        batch.append(follower)
                    if bucket is not None and not bucket:
                        del self._index[key]
                    return batch
                if not self._cond.wait(timeout) and timeout is not None:
                    return None

    def _pick(self) -> "str | None":
        """Non-empty tenant with the smallest (pass, name); None if idle."""
        best = None
        for tenant, heap in self._heaps.items():
            if not heap:
                continue
            key = (self._passes[tenant], tenant)
            if best is None or key < best[0]:
                best = (key, tenant)
        return None if best is None else best[1]

    def _consume_ghost(self, job_id: str) -> bool:
        """True (and one tombstone burned) if this heap entry is a ghost."""
        ghosts = self._tombstones.get(job_id)
        if not ghosts:
            return False
        if ghosts == 1:
            del self._tombstones[job_id]
        else:
            self._tombstones[job_id] = ghosts - 1
        return True

    def _deindex(self, job_id: str) -> None:
        key = self._keys.pop(job_id, None)
        if key is not None:
            bucket = self._index.get(key)
            if bucket is not None:
                bucket.pop(job_id, None)
                if not bucket:
                    del self._index[key]

    def _pop(self, tenant: str) -> "tuple[str, str | None] | None":
        """Pop the tenant's next live job, skipping (and reaping) ghosts.

        Returns ``(job_id, key)`` with the dispatch charged to the
        tenant's stride, or ``None`` if the heap held only ghosts.
        """
        heap = self._heaps[tenant]
        while heap:
            _, _, job_id = heapq.heappop(heap)
            if self._consume_ghost(job_id):
                continue
            if not heap:
                del self._heaps[tenant]
            key = self._keys.get(job_id)
            self._deindex(job_id)
            self._passes[tenant] += 1.0 / self.weight(tenant)
            self._size -= 1
            return job_id, key
        del self._heaps[tenant]
        return None

    def close(self) -> None:
        """Release every blocked ``get`` with the ``None`` sentinel."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class TokenBucket:
    """Thread-safe token bucket: sustained ``rate`` per second, ``burst`` cap.

    ``try_acquire`` never blocks — intake either admits the job or rejects
    it immediately with a typed reason; queueing rate-limited work would
    just move the starvation into the queue.
    """

    def __init__(
        self, rate: float, burst: int, clock=time.monotonic
    ) -> None:
        if not rate > 0:
            raise ServiceError(f"rate must be > 0 jobs/s, got {rate}")
        if burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Take one token if available; False means "rate limited"."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False
