"""The long-running fairness-audit daemon.

:class:`AuditService` turns the one-shot experiment pipeline into a
service: callers submit :class:`~repro.service.jobs.AuditJob` specs over
HTTP (or in process), a bounded queue absorbs bursts, worker threads drain
it through :func:`~repro.simulation.runner.run_scenario`, and every
lifecycle event lands durably in the crash-safe
:class:`~repro.service.journal.JobJournal` *before* it is acknowledged.

Robustness properties, each backed by a test in ``tests/test_service.py``:

* **Crash safety** — the journal is written ahead of every transition, so a
  SIGKILL'd daemon restarts with exactly the jobs it had: terminal jobs
  keep their results, queued jobs stay queued, and in-flight jobs are
  re-queued (``RUNNING → PENDING``) and resumed through their per-job
  :class:`~repro.simulation.checkpoint.CheckpointStore` — completed cells
  are skipped and the re-run is byte-identical to an uninterrupted one.
* **Backpressure** — a full queue *rejects* new work with a typed reason
  (:data:`REJECTION_REASONS`) instead of buffering unboundedly or silently
  dropping; every rejection increments ``service.rejected``.
* **Poison-job quarantine** — a job that keeps failing is retried up to its
  ``max_attempts`` and then parked in ``QUARANTINED``; a poison job can
  never crash-loop the daemon.
* **Deadlines** — a per-job compute budget propagates as a cooperative
  :class:`~repro.engine.deadline.Deadline` into every algorithm's search
  loop; an over-budget job stops at the next iteration boundary and lands
  in ``CANCELLED`` with its flagged partial rows attached.  The budget
  starts when the job's search does: waiting in the queue or for the
  search lane (one job search at a time) does not consume it.
* **Graceful shutdown** — SIGTERM/SIGINT stop intake (rejections say
  ``shutting_down``), let in-flight jobs finish, leave queued jobs
  ``PENDING`` in the journal and exit 0.

Since PR 9 the daemon is built for *throughput*, not just robustness:

* **Fair-share scheduling** — jobs carry a ``tenant`` and are drained in
  weighted stride order from per-tenant priority queues
  (:class:`~repro.service.scheduling.TenantScheduler`); worker wake-ups
  are event-driven (blocking get + shutdown sentinel), so idle dispatch
  latency is zero rather than up to one poll interval.
* **Rate limits** — optional per-tenant token buckets reject a tenant's
  excess submissions with the typed ``rate_limited`` reason before they
  consume queue slots.
* **Batching** — identical small specs (same scenario/algorithm/seed...,
  differing only in id/priority/tenant) queued together coalesce into
  one engine dispatch whose result is journaled to every member with a
  single group-commit fsync (``batch_max`` > 1 enables this).  Every
  dispatch, one job or a coalesced batch, runs through the one
  execution path, :meth:`AuditService._run`.

The HTTP surface is intentionally tiny and dependency-free — an
``asyncio`` reactor (see :mod:`repro.service.http`) serving only ``/v1``:
``GET /v1/healthz``, ``GET /v1/metrics``, ``GET/POST /v1/jobs`` (listing
accepts ``state=`` / ``kind=`` / ``tenant=`` / ``limit=`` filters),
``POST /v1/jobs/batch``, ``GET /v1/jobs/<id>``, ``/v1/populations...`` —
with one error envelope ``{"error": {"code", "message", "detail"}}``.
See ``docs/api.md`` and ``docs/service.md``.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path

from repro import chaos
from repro.exceptions import (
    JobRejectedError,
    JournalWriteError,
    ReproError,
    ServiceError,
    SnapshotError,
    WorkerCrashError,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import (
    TERMINAL_STATES,
    AuditJob,
    JobRecord,
    JobState,
)
from repro.service.journal import JobJournal
from repro.service.monitor import MonitoredPopulation, MonitorSpec
from repro.service.scheduling import TenantScheduler, TokenBucket

__all__ = ["AuditService", "ServiceConfig", "REJECTION_REASONS", "HEALTH_STATES"]

#: Typed reasons a submission can be rejected with (``JobRejectedError.reason``).
REJECTION_REASONS = (
    "queue_full",
    "duplicate_id",
    "invalid_spec",
    "shutting_down",
    "rate_limited",
    "degraded",
)

#: The degradation state machine reported by ``/v1/healthz``:
#: ``HEALTHY → READ_ONLY`` on a journal/disk write failure (submits are
#: rejected with the typed ``degraded`` reason, reads and metrics keep
#: working), ``READ_ONLY → HEALTHY`` when the background probe re-verifies
#: the disk, and ``→ DRAINING`` (terminal) once shutdown is requested.
HEALTH_STATES = ("HEALTHY", "READ_ONLY", "DRAINING")


class ServiceConfig:
    """Knobs of one :class:`AuditService` instance.

    Parameters
    ----------
    workdir:
        Daemon state directory: ``journal.jsonl`` plus one checkpoint
        directory per job (``checkpoints/<job id>/``).
    queue_limit:
        Maximum *queued* (PENDING) jobs before submissions are rejected
        with ``queue_full``.  Running jobs do not count against it.
    workers:
        Worker threads draining the queue.
    host, port:
        HTTP bind address; ``port=0`` picks a free port (see
        :attr:`AuditService.address`).  ``port=None`` disables HTTP.
    snapshot_dir:
        Where monitored-population snapshots are written after each audit
        (default ``<workdir>/snapshots``).  ``None`` disables snapshotting.
    snapshot_in:
        Directory snapshots are *restored* from at startup; defaults to
        ``snapshot_dir``, so a plain restart resumes from its own files.
    journal_max_bytes:
        Size threshold above which the journal is compacted in place after
        an audit (terminal jobs collapsed, pre-snapshot monitor records
        dropped).  ``None`` disables compaction.
    monitor_poll_seconds:
        Debounce-scheduler wake interval for monitored populations.
    cache_max_bytes:
        Byte budget of the content-addressed cross-job cache (see
        :mod:`repro.service.cache`): repeated audits of the same tenant
        reuse generated populations, atom tables and pair scores.
        ``None`` or ``0`` disables caching.
    engine_kernel:
        Daemon-default kernel backend for distance computations
        (``"numpy"`` / ``"scalar"``); jobs and monitors may
        override per spec.  Bit-identical across backends.
    tenant_weights:
        Tenant name → dispatch weight for the weighted fair scheduler;
        unlisted tenants weigh 1.0.  ``None`` = every tenant equal.
    rate_limit:
        Per-tenant sustained submission rate (jobs/second); submissions
        beyond it are rejected with the typed ``rate_limited`` reason
        (HTTP 429).  ``None`` disables rate limiting.
    rate_limit_burst:
        Token-bucket burst size (default: ``max(1, ceil(rate_limit))``).
    batch_max:
        Maximum jobs coalesced into one engine dispatch.  Followers must
        have a spec identical to the leader's up to id/priority/tenant
        and no deadline.  The default ``1`` disables batching, which
        keeps single-job journal and metric behaviour exactly as before.
    chaos:
        A :class:`~repro.chaos.ChaosConfig` (``serve --chaos``):
        seeded fault injection over the disk plane, the HTTP responses
        and the worker loop.  The disk plane installs *after* journal
        recovery (chaos targets steady state, not startup) and uninstalls
        when the drain begins.  ``None`` disables all injection.
    request_timeout:
        Total header+body read deadline per HTTP request (seconds); a
        slow-loris client gets 408 instead of pinning a connection slot.
        ``None`` disables (the pre-PR-10 behaviour).
    watchdog_seconds:
        A job RUNNING longer than this is presumed stalled: the watchdog
        re-queues it through the legal ``RUNNING → PENDING`` edge and the
        original worker's late result is discarded by the attempt-token
        check.  ``None`` disables the watchdog.
    probe_backoff_seconds / probe_backoff_max_seconds:
        Initial and capped delay between disk probes while READ_ONLY
        (exponential backoff).
    """

    def __init__(
        self,
        workdir: "str | Path",
        queue_limit: int = 8,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: "int | None" = 0,
        snapshot_dir: "str | Path | None" = "",
        snapshot_in: "str | Path | None" = None,
        journal_max_bytes: "int | None" = None,
        monitor_poll_seconds: float = 0.05,
        cache_max_bytes: "int | None" = 256 * 1024 * 1024,
        engine_kernel: "str | None" = None,
        tenant_weights: "dict[str, float] | None" = None,
        rate_limit: "float | None" = None,
        rate_limit_burst: "int | None" = None,
        batch_max: int = 1,
        chaos=None,
        request_timeout: "float | None" = 30.0,
        watchdog_seconds: "float | None" = None,
        probe_backoff_seconds: float = 0.05,
        probe_backoff_max_seconds: float = 2.0,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if journal_max_bytes is not None and journal_max_bytes < 1:
            raise ServiceError(
                f"journal_max_bytes must be >= 1, got {journal_max_bytes}"
            )
        self.workdir = Path(workdir)
        self.queue_limit = queue_limit
        self.workers = workers
        self.host = host
        self.port = port
        # "" = default location; None = explicitly disabled.
        if snapshot_dir == "":
            self.snapshot_dir: "Path | None" = self.workdir / "snapshots"
        else:
            self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.snapshot_in = (
            Path(snapshot_in) if snapshot_in is not None else self.snapshot_dir
        )
        self.journal_max_bytes = journal_max_bytes
        self.monitor_poll_seconds = monitor_poll_seconds
        if cache_max_bytes is not None and cache_max_bytes < 0:
            raise ServiceError(
                f"cache_max_bytes must be >= 0, got {cache_max_bytes}"
            )
        self.cache_max_bytes = cache_max_bytes
        if engine_kernel is not None:
            from repro.engine.kernels import KERNEL_BACKENDS

            if engine_kernel not in KERNEL_BACKENDS:
                raise ServiceError(
                    f"unknown kernel backend {engine_kernel!r}; "
                    f"choose from {KERNEL_BACKENDS}"
                )
        self.engine_kernel = engine_kernel
        for tenant, weight in (tenant_weights or {}).items():
            if not float(weight) > 0:
                raise ServiceError(
                    f"tenant weight for {tenant!r} must be > 0, got {weight}"
                )
        self.tenant_weights = dict(tenant_weights) if tenant_weights else None
        if rate_limit is not None and not rate_limit > 0:
            raise ServiceError(f"rate_limit must be > 0 jobs/s, got {rate_limit}")
        self.rate_limit = rate_limit
        if rate_limit_burst is None and rate_limit is not None:
            rate_limit_burst = max(1, int(-(-rate_limit // 1)))
        if rate_limit_burst is not None and rate_limit_burst < 1:
            raise ServiceError(
                f"rate_limit_burst must be >= 1, got {rate_limit_burst}"
            )
        self.rate_limit_burst = rate_limit_burst
        if batch_max < 1:
            raise ServiceError(f"batch_max must be >= 1, got {batch_max}")
        self.batch_max = batch_max
        self.chaos = chaos
        if request_timeout is not None and not request_timeout > 0:
            raise ServiceError(
                f"request_timeout must be > 0 seconds, got {request_timeout}"
            )
        self.request_timeout = request_timeout
        if watchdog_seconds is not None and not watchdog_seconds > 0:
            raise ServiceError(
                f"watchdog_seconds must be > 0, got {watchdog_seconds}"
            )
        self.watchdog_seconds = watchdog_seconds
        if not probe_backoff_seconds > 0:
            raise ServiceError(
                f"probe_backoff_seconds must be > 0, got {probe_backoff_seconds}"
            )
        self.probe_backoff_seconds = probe_backoff_seconds
        self.probe_backoff_max_seconds = max(
            probe_backoff_seconds, probe_backoff_max_seconds
        )


class AuditService:
    """Crash-safe, backpressured audit daemon (see the module docstring).

    Thread model: ``submit`` may be called from any thread (the HTTP
    handler threads call it); one lock guards the job table, the queue
    accounting and the journal writer.  Job execution itself runs outside
    the lock, so slow searches never block intake.  Job searches run one
    at a time behind a second lock, the search lane: two searches on one
    interpreter only contend for its GIL, so the queue workers overlap
    their journal I/O and memo hits, not their searches.
    """

    def __init__(
        self,
        config: ServiceConfig,
        metrics: "MetricsRegistry | None" = None,
        clock=time.time,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self.journal = JobJournal(config.workdir / "journal.jsonl")
        self._records: "dict[str, JobRecord]" = {}
        self._scheduler = TenantScheduler(config.tenant_weights)
        self._buckets: "dict[str, TokenBucket]" = {}
        self._queued = 0
        self._running = 0
        self._lock = threading.RLock()
        #: Held for the duration of one job search (see the class docstring).
        self._search_lane = threading.Lock()
        self._shutdown = threading.Event()
        self._idle = threading.Condition(self._lock)
        self._threads: "list[threading.Thread]" = []
        self._http = None
        self._http_thread = None
        self.address: "tuple[str, int] | None" = None
        self._monitors: "dict[str, MonitoredPopulation]" = {}
        self._monitor_thread: "threading.Thread | None" = None
        # Degradation state machine (HEALTH_STATES).  Guarded by its own
        # condition so health reads and probe wake-ups never contend with
        # the job-table lock; lock order is always _lock → _health_cond.
        self._health_cond = threading.Condition()
        self._state = "HEALTHY"
        self._state_since = self._clock()
        self._degraded_reasons: "list[str]" = []
        self._probe_thread: "threading.Thread | None" = None
        self._watchdog_thread: "threading.Thread | None" = None
        # Terminal edges that could not be appended while the disk was
        # refusing writes; re-journaled by the probe after recovery.
        self._unjournaled: "set[str]" = set()
        self._fault_plane: "chaos.FaultPlane | None" = None
        from repro.service.cache import CrossJobCache

        #: Content-addressed cross-job cache (in-memory only, so a crash
        #: plus journal replay always restarts cache-cold and consistent).
        self.cache = CrossJobCache(config.cache_max_bytes, metrics=self.metrics)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "AuditService":
        """Open (or recover) the journal, re-queue unfinished jobs, start
        the worker threads and the HTTP listener."""
        self.journal.open()
        try:
            self._recover()
        except BaseException:
            # A refused recovery leaves nothing running; the journal handle
            # must not outlive it in an embedding process.
            self.journal.close()
            raise
        disk = None if self.config.chaos is None else self.config.chaos.disk
        if disk is not None and disk.enabled:
            # Installed only after journal open/recovery: chaos drills the
            # steady state; a daemon that cannot even start its journal is
            # a provisioning failure, not a fault-tolerance scenario.
            self._fault_plane = chaos.FaultPlane(disk, metrics=self.metrics)
            chaos.install(self._fault_plane)
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="audit-disk-probe", daemon=True
        )
        self._probe_thread.start()
        if self.config.watchdog_seconds is not None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, name="audit-watchdog", daemon=True
            )
            self._watchdog_thread.start()
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"audit-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="audit-monitor", daemon=True
        )
        self._monitor_thread.start()
        if self.config.port is not None:
            from repro.service.http import AsyncHTTPServer

            spec = self.config.chaos
            self._http = AsyncHTTPServer(
                self,
                self.config.host,
                self.config.port,
                request_timeout=self.config.request_timeout,
                chaos=None if spec is None else spec.net,
            )
            self.address = self._http.server_address[:2]
            self._http_thread = threading.Thread(
                target=self._http.serve_forever, name="audit-http", daemon=True
            )
            self._http_thread.start()
        return self

    def _recover(self) -> None:
        """Replay the journal, re-queue unfinished jobs, restore monitors."""
        state = self.journal.replay_state()
        self._records = state.jobs
        self._recover_monitors(state.monitors)
        if self.journal.recovered_tail_bytes:
            self.metrics.inc("service.journal_tail_truncated")
        recovered = 0
        for record in self._records.values():
            if record.state is JobState.RUNNING:
                self.metrics.inc("service.recovered")
            if record.state in (JobState.RUNNING, JobState.FAILED):
                # The previous process died mid-job (RUNNING) or before the
                # retry edge (FAILED); the journaled edge makes the re-queue
                # durable before any worker can pick it up.
                record.transition(
                    JobState.PENDING, reason="recovered", timestamp=self._clock()
                )
                self.journal.append_state(
                    record.job.id,
                    JobState.PENDING,
                    record.updated_at,
                    reason="recovered",
                )
            if record.state is JobState.PENDING:
                self._enqueue(record.job)
                recovered += 1
        if recovered:
            self.metrics.inc("service.requeued", recovered)

    def request_shutdown(self) -> None:
        """Begin a graceful drain: stop intake, let in-flight jobs finish.

        Closing the scheduler releases every worker blocked on ``get``
        with the ``None`` sentinel; jobs still queued stay PENDING in the
        journal for the next daemon instance (drain semantics)."""
        self._shutdown.set()
        with self._health_cond:
            self._health_cond.notify_all()
        self._scheduler.close()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown.is_set()

    def wait_for_shutdown(self, timeout: "float | None" = None) -> bool:
        """Block until shutdown is requested (or ``timeout`` passes)."""
        return self._shutdown.wait(timeout)

    def stop(self) -> None:
        """Drain and stop: joins workers (in-flight jobs complete), shuts
        the HTTP listener down, snapshots monitors, closes the journal."""
        self.request_shutdown()
        if self._fault_plane is not None:
            # Chaos ends where the drain begins: shutdown must always be
            # able to flush in-flight work and close the journal cleanly.
            if chaos.active() is self._fault_plane:
                chaos.uninstall()
            self._fault_plane = None
        for thread in self._threads:
            thread.join()
        self._threads = []
        if self._probe_thread is not None:
            self._probe_thread.join()
            self._probe_thread = None
        if self._watchdog_thread is not None:
            self._watchdog_thread.join()
            self._watchdog_thread = None
        if self._monitor_thread is not None:
            self._monitor_thread.join()
            self._monitor_thread = None
        if self._http is not None:
            self._http.shutdown()
            self._http_thread.join()
            self._http.server_close()
            self._http = None
            self._http_thread = None
        for monitor in list(self._monitors.values()):
            with monitor.lock:
                self._write_snapshot(monitor)
                monitor.close()
        self.journal.close()

    def __enter__(self) -> "AuditService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ---------------------------------------------------------- degradation

    @property
    def state(self) -> str:
        """Current health state (one of :data:`HEALTH_STATES`)."""
        if self._shutdown.is_set():
            return "DRAINING"
        with self._health_cond:
            return self._state

    def enter_degraded(self, reason: str) -> None:
        """Flip the service READ_ONLY: submits are rejected (typed
        ``degraded``), reads and metrics keep working, and the background
        probe starts trying to win the disk back."""
        with self._health_cond:
            if self._state != "READ_ONLY":
                self._state = "READ_ONLY"
                self._state_since = self._clock()
                self.metrics.set_gauge("service.degraded", 1)
                self.metrics.inc("service.degraded_entered")
            if reason not in self._degraded_reasons:
                self._degraded_reasons.append(reason)
            self._health_cond.notify_all()

    def _restore_healthy(self) -> None:
        """Probe succeeded: leave READ_ONLY and account the outage."""
        with self._health_cond:
            if self._state != "READ_ONLY":
                return
            duration = max(0.0, self._clock() - self._state_since)
            self._state = "HEALTHY"
            self._state_since = self._clock()
            self._degraded_reasons = []
            self.metrics.set_gauge("service.degraded", 0)
            self._health_cond.notify_all()
        self.metrics.inc("service.degraded_seconds", duration)
        self.metrics.observe("service.degraded_recovery_seconds", duration)
        self.metrics.inc("service.degraded_recoveries")
        self._flush_unjournaled()

    def _journal_failure(self, context: str, exc: BaseException) -> None:
        """Book-keeping shared by every journal-write failure site."""
        self.metrics.inc("service.journal_write_failures")
        self.enter_degraded(f"{context}: {exc}")

    def _await_healthy(self) -> bool:
        """Block until HEALTHY (True) or shutdown begins (False)."""
        with self._health_cond:
            while self._state != "HEALTHY" and not self._shutdown.is_set():
                self._health_cond.wait(0.5)
            return self._state == "HEALTHY" and not self._shutdown.is_set()

    def _probe_loop(self) -> None:
        """Background disk prober: exponential backoff while READ_ONLY.

        Every probe exercises the exact failure surface — a journal fsync
        plus an atomic write into the workdir — through the same fault
        plane the failure came from, so recovery means the disk genuinely
        accepts durable writes again, not merely that time passed.
        """
        backoff = self.config.probe_backoff_seconds
        while not self._shutdown.is_set():
            with self._health_cond:
                while self._state == "HEALTHY" and not self._shutdown.is_set():
                    self._health_cond.wait()
            if self._shutdown.is_set():
                return
            if self._shutdown.wait(backoff):
                return
            try:
                self._probe_disk()
            except (JournalWriteError, OSError):
                self.metrics.inc("service.disk_probe_failures")
                backoff = min(backoff * 2, self.config.probe_backoff_max_seconds)
                continue
            self._restore_healthy()
            backoff = self.config.probe_backoff_seconds

    def _probe_disk(self) -> None:
        from repro.io.atomic import atomic_write_bytes

        self.journal.sync()
        atomic_write_bytes(self.config.workdir / ".disk-probe", b"ok\n")
        self.metrics.inc("service.disk_probes")

    def _flush_unjournaled(self) -> None:
        """Re-append terminal edges the broken disk refused (post-recovery).

        Only edges whose append *never reached the file* are parked here
        (``JournalWriteError.written is False``); sync-level failures are
        already in the file and become durable with the next successful
        group commit, so re-appending those would corrupt the history
        with duplicate edges.
        """
        with self._lock:
            pending, self._unjournaled = self._unjournaled, set()
            for job_id in sorted(pending):
                record = self._records.get(job_id)
                if record is None or record.state not in TERMINAL_STATES:
                    continue
                try:
                    self.journal.append_state(
                        record.job.id,
                        record.state,
                        record.updated_at,
                        attempt=record.attempt,
                        reason=record.reason,
                        result=record.result,
                    )
                except JournalWriteError as exc:
                    self._unjournaled.add(job_id)
                    self._unjournaled |= pending - {job_id}
                    self._journal_failure("journal_write_failure", exc)
                    return
                self.metrics.inc("service.journal_backfilled_edges")

    # ------------------------------------------------------------- watchdog

    def _watchdog_loop(self) -> None:
        interval = max(0.01, min(1.0, self.config.watchdog_seconds / 4))
        while not self._shutdown.wait(interval):
            self._watchdog_sweep()

    def _watchdog_sweep(self) -> int:
        """Re-queue jobs RUNNING past the stall limit; returns the count.

        The re-queue rides the existing crash-recovery ``RUNNING →
        PENDING`` edge, and the bumped ``attempt`` counter doubles as a
        lease token: when the stalled worker finally produces a result,
        :meth:`_run` sees the stale token and discards it instead of
        double-completing the job.
        """
        limit = self.config.watchdog_seconds
        requeued = 0
        with self._lock:
            now = self._clock()
            for record in self._records.values():
                if record.state is not JobState.RUNNING:
                    continue
                if now - record.updated_at <= limit:
                    continue
                failed = None
                try:
                    self._transition(record, JobState.PENDING, reason="watchdog")
                except JournalWriteError as exc:
                    # The in-memory edge already applied (transition runs
                    # before the append), so the job must still be
                    # re-dispatched; the journal's stale RUNNING replays
                    # as a re-queue anyway.  Degrade and stop sweeping.
                    failed = exc
                self._enqueue(record.job)
                self.metrics.inc("service.watchdog_requeues")
                requeued += 1
                if failed is not None:
                    self._journal_failure("journal_write_failure", failed)
                    break
        return requeued

    # -------------------------------------------------------------- intake

    def submit(self, job: "AuditJob | dict") -> JobRecord:
        """Accept one job, durably journal it and queue it for execution.

        Raises :class:`~repro.exceptions.JobRejectedError` with a typed
        ``reason`` (one of :data:`REJECTION_REASONS`).  Acceptance is
        all-or-nothing: by the time this returns, the submit record is
        fsync'd — a crash immediately after cannot lose the job.  The
        fsync itself happens *outside* the service lock, so concurrent
        submitters share one group-committed flush instead of queueing
        their own.
        """
        record, seq = self._accept(job)
        self._commit([record], seq)
        return record

    def submit_many(self, jobs) -> "list[JobRecord | JobRejectedError]":
        """Accept a batch of job specs with one group-committed fsync.

        Returns one entry per input, in order: the accepted
        :class:`JobRecord`, or the :class:`JobRejectedError` that submit
        would have raised.  Admission (duplicate ids, rate limits, queue
        capacity) is checked per job, so a batch can be partially
        accepted; every accepted record is durable before this returns,
        and none is dispatched to a worker until the whole batch is.
        """
        results: "list[JobRecord | JobRejectedError]" = []
        accepted: "list[JobRecord]" = []
        seq = 0
        for payload in jobs:
            try:
                record, seq = self._accept(payload)
            except JobRejectedError as exc:
                results.append(exc)
            else:
                accepted.append(record)
                results.append(record)
        if accepted:
            try:
                self._commit(accepted, seq)
            except JobRejectedError as exc:
                # The group commit failed after acceptance: every accepted
                # entry flips to the typed rejection — callers must never
                # see a success for a job whose durability was refused.
                rolled_back = {record.job.id for record in accepted}
                results = [
                    exc
                    if isinstance(entry, JobRecord) and entry.job.id in rolled_back
                    else entry
                    for entry in results
                ]
        return results

    def _accept(self, job: "AuditJob | dict") -> "tuple[JobRecord, int]":
        """Validate, journal (unsynced) and reserve a queue slot for one job.

        The slot is reserved (``_queued`` bumped) while the lock is held,
        so capacity checks stay exact even though the fsync and scheduler
        dispatch happen after the lock drops (see :meth:`_commit`).
        """
        self._require_writable()
        if isinstance(job, dict):
            try:
                job = AuditJob.from_dict(job)
            except ServiceError as exc:
                self._reject("invalid_spec", str(exc))
        elif not isinstance(job, AuditJob):
            self._reject("invalid_spec", "a job spec must be a JSON object")
        # Checked here, not in AuditJob: a journaled job replays as it was
        # accepted, and its attempts fail as they always did.
        from repro.core.algorithms import get_algorithm
        from repro.metrics import get_metric
        from repro.simulation.scenarios import function_names

        try:
            get_algorithm(job.algorithm)
            get_metric(job.metric)
            names = set(function_names(job.scenario))
            missing = sorted((f for f in job.functions if f not in names), key=str)
        except (ReproError, TypeError) as exc:  # TypeError: unhashable values
            self._reject("invalid_spec", str(exc))
        if missing:
            self._reject(
                "invalid_spec", f"scenario {job.scenario!r} has no function(s) {missing}"
            )
        if not isinstance(job.priority, (int, float)):
            # The scheduler's heaps order by priority; one that does not
            # compare with numbers would kill the worker popping it.
            self._reject("invalid_spec", f"priority must be a number: {job.priority!r}")
        with self._lock:
            if job.id in self._records:
                self._reject("duplicate_id", f"job id {job.id!r} already journaled")
            if not self._admit(job.tenant):
                self._reject(
                    "rate_limited",
                    f"tenant {job.tenant!r} exceeded "
                    f"{self.config.rate_limit} jobs/s",
                )
            if self._queued >= self.config.queue_limit:
                self._reject(
                    "queue_full",
                    f"queue holds {self._queued}/{self.config.queue_limit} jobs",
                )
            now = self._clock()
            record = JobRecord(job=job, submitted_at=now, updated_at=now)
            try:
                seq = self.journal.append_submit(job, now, sync=False)
            except JournalWriteError as exc:
                self._journal_failure("journal_write_failure", exc)
                self._reject("degraded", f"journal refused the submit: {exc}")
            self._records[job.id] = record
            self._queued += 1
            self.metrics.set_gauge("service.queue_depth", self._queued)
            self.metrics.inc("service.submitted")
        return record, seq

    def _commit(self, records: "list[JobRecord]", seq: int) -> None:
        """Fsync accepted submits (group commit) and hand them to workers.

        A failed flush unwinds the reservations so nothing unacknowledged
        ever runs, flips the service READ_ONLY and surfaces the typed
        ``degraded`` rejection (the group-commit acknowledgement hole: a
        caller must never get a success for a job whose fsync was
        refused).  A crash in the same window loses at most jobs whose
        submitters never got a response.  The reverse ghost is possible
        and documented: a rejected submit's bytes may still land, so
        after a crash the job can replay as PENDING — the client's retry
        then collapses into ``duplicate_id`` (at-least-once semantics).
        """
        try:
            self.journal.sync(seq)
        except BaseException as exc:
            with self._lock:
                for record in records:
                    self._records.pop(record.job.id, None)
                    self._queued -= 1
                self.metrics.set_gauge("service.queue_depth", self._queued)
            if isinstance(exc, (JournalWriteError, OSError)):
                self._journal_failure("journal_write_failure", exc)
                self._reject(
                    "degraded",
                    f"group commit failed; {len(records)} accepted submit(s) "
                    f"rolled back: {exc}",
                )
            raise
        with self._lock:
            for record in records:
                self._dispatch(record.job)

    def _dispatch(self, job: AuditJob) -> None:
        """Hand one job to the scheduler, tagged with its coalescing key
        (batchable specs only) so ``get_batch`` can pull followers in
        O(batch) regardless of backlog depth."""
        key = None
        if self.config.batch_max > 1 and self._batchable(job):
            key = self._batch_key(job)
        self._scheduler.put(job.tenant, job.priority, job.id, key=key)

    def _reject(self, reason: str, detail: str) -> None:
        self.metrics.inc("service.rejected")
        self.metrics.inc(f"service.rejected.{reason}")
        raise JobRejectedError(reason, f"job rejected ({reason}): {detail}")

    def _require_writable(self) -> None:
        """Reject intake while draining (``shutting_down``) or READ_ONLY
        (``degraded``)."""
        if self._shutdown.is_set():
            self._reject("shutting_down", "the daemon is draining for shutdown")
        with self._health_cond:
            if self._state != "READ_ONLY":
                return
            reasons = "; ".join(self._degraded_reasons) or "degraded"
            self._reject(
                "degraded", f"service is READ_ONLY ({reasons}); retry after recovery"
            )

    def _admit(self, tenant: str) -> bool:
        """Charge one token to the tenant's bucket (caller holds the lock)."""
        if self.config.rate_limit is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.rate_limit, self.config.rate_limit_burst
            )
        return bucket.try_acquire()

    def _enqueue(self, job: AuditJob) -> None:
        """Queue (or re-queue) one job on a fresh queue slot; intake
        dispatches on the slot :meth:`_accept` reserved instead."""
        with self._lock:
            self._dispatch(job)
            self._queued += 1
            self.metrics.set_gauge("service.queue_depth", self._queued)

    # ---------------------------------------------------- monitored populations

    def create_monitor(self, spec: "MonitorSpec | dict") -> dict:
        """Register a new monitored population, journal-ahead, and return
        its summary.  Rejections reuse the job taxonomy
        (:data:`REJECTION_REASONS`)."""
        self._require_writable()
        if isinstance(spec, dict):
            try:
                spec = MonitorSpec.from_dict(spec)
            except (ServiceError, TypeError) as exc:
                self._reject("invalid_spec", str(exc))
        elif not isinstance(spec, MonitorSpec):
            self._reject("invalid_spec", "a monitor spec must be a JSON object")
        # Checked here, not in MonitorSpec: a journaled spec replays as it
        # was accepted (a retired backend or kernel, workers 0 = all cores).
        from repro.engine.backends import available_backends
        from repro.engine.kernels import KERNEL_BACKENDS

        if spec.backend is not None and spec.backend not in available_backends():
            self._reject(
                "invalid_spec",
                f"unknown backend {spec.backend!r}; choose from "
                f"{available_backends()}",
            )
        workers = spec.workers
        if workers is not None and not (isinstance(workers, int) and workers >= 1):
            self._reject("invalid_spec", f"workers must be an int >= 1: {workers!r}")
        if spec.kernel is not None and spec.kernel not in KERNEL_BACKENDS:
            self._reject(
                "invalid_spec",
                f"unknown kernel backend {spec.kernel!r}; "
                f"choose from {KERNEL_BACKENDS}",
            )
        with self._lock:
            if spec.id in self._monitors:
                self._reject(
                    "duplicate_id", f"monitor id {spec.id!r} already exists"
                )
            now = self._clock()
            try:
                store = spec.build_store()
            except (ServiceError, TypeError) as exc:
                # TypeError: a list as function, a float as n_workers.
                self._reject("invalid_spec", str(exc))
            monitor = MonitoredPopulation(spec=spec, store=store, created_at=now)
            try:
                self.journal.append(
                    {"type": "mpop_create", "ts": now, "spec": spec.to_dict()}
                )
            except JournalWriteError as exc:
                self._journal_failure("journal_write_failure", exc)
                self._reject("degraded", f"journal refused the monitor: {exc}")
            self._monitors[spec.id] = monitor
            self.metrics.inc("service.monitors_created")
            self.metrics.set_gauge("service.monitors", len(self._monitors))
        return monitor.as_dict()

    def monitor(self, monitor_id: str) -> MonitoredPopulation:
        with self._lock:
            if monitor_id not in self._monitors:
                raise ServiceError(f"unknown monitor id {monitor_id!r}")
            return self._monitors[monitor_id]

    def apply_mutations(self, monitor_id: str, mutations: "list[dict]") -> dict:
        """Stream one mutation batch into a monitor (journal-ahead).

        The batch is applied mutation-by-mutation; on a mid-batch
        validation failure the applied prefix is journaled (the journal
        must describe the daemon's actual state) and the request is
        rejected with ``invalid_spec`` naming the failing position.
        """
        self._require_writable()
        if not isinstance(mutations, list):
            self._reject("invalid_spec", "mutations payload must be a list")
        monitor = self.monitor(monitor_id)
        with monitor.lock:
            if monitor.unaudited + len(mutations) > monitor.spec.buffer_limit:
                self._reject(
                    "queue_full",
                    f"monitor {monitor_id!r} holds {monitor.unaudited} unaudited "
                    f"mutations (limit {monitor.spec.buffer_limit})",
                )
            now = self._clock()
            info = monitor.apply_batch(mutations, now)
            # The population changed: drop exactly this monitor's cached
            # artifacts (still under its lock) so the next O(Δ) re-audit
            # can never be seeded from the pre-mutation state.
            if info["applied"]:
                self.cache.invalidate_owner(f"monitor:{monitor_id}")
            record = monitor.batch_record(info, now)
            if record is not None:
                with self._lock:
                    try:
                        self.journal.append(record)
                    except JournalWriteError as exc:
                        # The batch is applied in memory but not journaled;
                        # the typed rejection tells the client durability
                        # failed, and a crash before recovery replays
                        # without it — the documented at-least-once window.
                        self._journal_failure("journal_write_failure", exc)
                        self._reject(
                            "degraded", f"journal refused the mutation batch: {exc}"
                        )
            self.metrics.inc("service.mutations_applied", info["applied"])
            if "error" in info:
                self._reject(
                    "invalid_spec",
                    f"mutation {info['position']} invalid after applying "
                    f"{info['applied']}: {info['error']}",
                )
            if monitor.spec.delta_series and monitor.audits:
                try:
                    point = monitor.run_delta(now)
                except Exception:  # noqa: BLE001 - delta is best-effort
                    point = None
                    self.metrics.inc("service.monitor_delta_errors")
                if point is not None:
                    self._append_series_point(monitor, point)
        return info

    def monitors_snapshot(self) -> "list[dict]":
        with self._lock:
            monitors = list(self._monitors.values())
        return [monitor.as_dict() for monitor in monitors]

    def monitor_series(self, monitor_id: str) -> "list[dict]":
        monitor = self.monitor(monitor_id)
        with monitor.lock:
            return list(monitor.series)

    def _append_series_point(self, monitor: MonitoredPopulation, point: dict) -> None:
        """Journal one unfairness-over-time point and append it in memory."""
        with self._lock:
            self.journal.append(point)
        monitor.series.append(MonitoredPopulation.series_point(point))
        self.metrics.inc(f"service.monitor_points.{point['kind']}")

    def _monitor_loop(self) -> None:
        """Debounced re-audit scheduler for all monitored populations."""
        while not self._shutdown.is_set():
            self._shutdown.wait(self.config.monitor_poll_seconds)
            with self._lock:
                monitors = list(self._monitors.values())
            now = self._clock()
            for monitor in monitors:
                if self._shutdown.is_set():
                    break
                if not monitor.should_audit(now):
                    continue
                try:
                    self._audit_monitor(monitor)
                except (JournalWriteError, OSError) as exc:
                    # Persistence (journal point, snapshot, compaction)
                    # failed mid-audit: degrade instead of killing the
                    # scheduler thread; the probe restores service.
                    self._journal_failure("monitor_persistence_failure", exc)

    def _audit_monitor(self, monitor: MonitoredPopulation) -> None:
        with monitor.lock:
            if monitor.unaudited <= 0:
                return
            self._seed_monitor(monitor)
            try:
                with self.metrics.time("service.monitor_audit_seconds"):
                    point = monitor.run_audit(self._clock(), metrics=self.metrics)
            except Exception:  # noqa: BLE001 - keep the scheduler alive
                self.metrics.inc("service.monitor_audit_errors")
                monitor.unaudited = 0
                monitor.first_pending_at = None
                return
            self._harvest_monitor(monitor)
            self._append_series_point(monitor, point)
            self._write_snapshot(monitor)
        self._maybe_compact_journal()

    def _monitor_cache_material(self, monitor: MonitoredPopulation) -> tuple:
        # Keyed by the spec fingerprint (which pins scenario, function,
        # metric, weighting and binning) — the value-cache entries inside
        # the payload are themselves content-addressed pmf multisets, so
        # they stay exact across population states; invalidation on
        # mutation (see apply_mutations) keeps the entry's lifetime tied
        # to the state it was harvested from anyway.
        return ("monitor-values", monitor.spec.fingerprint())

    def _seed_monitor(self, monitor: MonitoredPopulation) -> None:
        """Transplant cached pair scores into a freshly built auditor
        (caller holds the monitor's lock)."""
        if not self.cache.enabled or monitor.auditor is not None:
            return
        hit = self.cache.get(self._monitor_cache_material(monitor))
        if hit is not None:
            auditor = monitor.ensure_auditor(metrics=self.metrics)
            auditor.seed_value_cache = hit["value_cache"]

    def _harvest_monitor(self, monitor: MonitoredPopulation) -> None:
        """Donate the monitor engine's value cache after a successful audit
        (caller holds the monitor's lock)."""
        if not self.cache.enabled or monitor.auditor is None:
            return
        from repro.service.cache import value_cache_nbytes

        values = monitor.auditor.engine_value_cache()
        if values:
            self.cache.put(
                self._monitor_cache_material(monitor),
                {"value_cache": values},
                value_cache_nbytes(values),
                owner=f"monitor:{monitor.spec.id}",
            )

    def _write_snapshot(self, monitor: MonitoredPopulation) -> None:
        """Snapshot one monitor's state + series (caller holds its lock)."""
        if self.config.snapshot_dir is None or not monitor.audits:
            return
        from repro.service.snapshot import write_snapshot

        path = self.config.snapshot_dir / f"{monitor.spec.id}.json"
        write_snapshot(path, monitor.spec.to_dict(), monitor.store, monitor.series)
        monitor.snapshot_version = monitor.store.version
        self.metrics.inc("service.snapshots_written")

    def _maybe_compact_journal(self) -> None:
        """Compact the journal in place once it outgrows the threshold."""
        if self.config.journal_max_bytes is None:
            return
        with self._lock:
            if self.journal.size_bytes() <= self.config.journal_max_bytes:
                return
            versions = {
                monitor_id: monitor.snapshot_version
                for monitor_id, monitor in self._monitors.items()
                if monitor.snapshot_version is not None
            }
            reclaimed = self.journal.compact_to(versions)
            self.metrics.inc("service.journal_compactions")
            self.metrics.inc("service.journal_bytes_reclaimed", reclaimed)

    def _recover_monitors(self, histories) -> None:
        """Restore monitors: snapshot (if valid) + journaled batches past it.

        Raises :class:`~repro.exceptions.SnapshotError` when compaction
        dropped batches past what the snapshot restores (``floor``): the
        journal alone can no longer rebuild that monitor.
        """
        for monitor_id, events in histories.items():
            spec = MonitorSpec.from_dict(events.spec)
            store = None
            series: "list[dict]" = []
            snapshot_version: "int | None" = None
            path = None
            if self.config.snapshot_in is not None:
                path = self.config.snapshot_in / f"{spec.id}.json"
                if path.exists():
                    from repro.service.snapshot import load_snapshot

                    try:
                        store, series, _ = load_snapshot(
                            path,
                            spec.worker_schema(),
                            spec.hist_spec(),
                            accepted_fingerprints=spec.snapshot_fingerprints(),
                        )
                        snapshot_version = store.version
                    except SnapshotError:
                        # A stale or corrupt snapshot is never trusted; the
                        # journal rebuilds the state unless compaction
                        # dropped batches below its floor (checked next).
                        store = None
                        series = []
                        self.metrics.inc("service.snapshot_restore_rejected")
            if store is None:
                store = spec.build_store()
            if store.version < events.floor:
                where = path if path is not None else "<snapshots disabled>"
                raise SnapshotError(
                    f"monitor {spec.id!r}: the journal was compacted up to "
                    f"version {events.floor}, and the snapshot {where} restores "
                    f"only version {store.version}; refusing to start without "
                    "the compacted mutations"
                )
            from repro.marketplace.streaming import Mutation

            for batch in events.mutation_batches:
                if int(batch.get("version", 0)) <= store.version:
                    continue
                for payload in batch.get("mutations", ()):
                    store.apply(Mutation.from_dict(payload))
            floor = -1 if snapshot_version is None else snapshot_version
            for audit in events.audits:
                if int(audit.get("version", 0)) > floor:
                    series.append(MonitoredPopulation.series_point(audit))
            monitor = MonitoredPopulation(
                spec=spec,
                store=store,
                created_at=events.created_at,
                series=series,
            )
            monitor.snapshot_version = snapshot_version
            monitor.audits = sum(
                1 for point in series if point.get("kind") == "audit"
            )
            self._monitors[monitor_id] = monitor
            self.metrics.inc("service.monitors_recovered")
        if self._monitors:
            self.metrics.set_gauge("service.monitors", len(self._monitors))

    # -------------------------------------------------------------- querying

    def record(self, job_id: str) -> JobRecord:
        with self._lock:
            if job_id not in self._records:
                raise ServiceError(f"unknown job id {job_id!r}")
            return self._records[job_id]

    def jobs_snapshot(
        self,
        state: "str | None" = None,
        kind: "str | None" = None,
        tenant: "str | None" = None,
        limit: "int | None" = None,
    ) -> "list[dict]":
        """JSON-safe job summaries in submission order, optionally filtered.

        ``state`` / ``kind`` / ``tenant`` narrow by exact match; ``limit``
        keeps only the **most recently submitted** matches, so listing
        stays cheap on daemons with thousands of journaled jobs.  Unknown
        filter values raise :class:`ServiceError` (HTTP 400).
        """
        if state is not None and state not in JobState.__members__:
            raise ServiceError(
                f"unknown state {state!r}; choose from "
                f"{sorted(JobState.__members__)}"
            )
        if kind is not None:
            from repro.service.jobs import JOB_KINDS

            if kind not in JOB_KINDS:
                raise ServiceError(
                    f"unknown kind {kind!r}; choose from {JOB_KINDS}"
                )
        if limit is not None and limit < 1:
            raise ServiceError(f"limit must be >= 1, got {limit}")
        with self._lock:
            records = list(self._records.values())
        out = [
            record.as_dict()
            for record in records
            if (state is None or record.state.value == state)
            and (kind is None or record.job.kind == kind)
            and (tenant is None or record.job.tenant == tenant)
        ]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    def health(self) -> dict:
        with self._health_cond:
            state = "DRAINING" if self._shutdown.is_set() else self._state
            degraded_reasons = list(self._degraded_reasons)
            since = self._state_since
        status = {
            "HEALTHY": "ok",
            "READ_ONLY": "degraded",
            "DRAINING": "draining",
        }[state]
        with self._lock:
            payload = {
                "status": status,
                "state": state,
                "degraded_reasons": degraded_reasons,
                "since": since,
                "queued": self._queued,
                "running": self._running,
                "jobs": len(self._records),
                "monitors": len(self._monitors),
                "queue_limit": self.config.queue_limit,
                "workers": self.config.workers,
                "cache": self.cache.stats(),
            }
        if self.config.chaos is not None and self.config.chaos.enabled:
            payload["chaos"] = self.config.chaos.describe()
        return payload

    def drain(self, timeout: "float | None" = None) -> bool:
        """Block until no job is PENDING or RUNNING (or ``timeout`` passes)."""

        def idle() -> bool:
            return self._queued == 0 and self._running == 0

        with self._idle:
            return self._idle.wait_for(idle, timeout=timeout)

    # -------------------------------------------------------------- execution

    def _worker_loop(self) -> None:
        # Event-driven: get() blocks on the scheduler's condition variable
        # (zero idle latency) and returns the None sentinel once shutdown
        # closes the scheduler.  A job popped after the sentinel race is
        # simply abandoned here — its journal state is still PENDING, so
        # the next daemon instance re-queues it (drain semantics).
        while True:
            batch = self._scheduler.get_batch(self.config.batch_max)
            if batch is None or self._shutdown.is_set():
                break
            # READ_ONLY gate: starting a job means journaling its RUNNING
            # edge, which the broken disk would refuse — park here (the
            # popped jobs stay PENDING) until the probe wins the disk back.
            if not self._await_healthy():
                break
            self._run(batch)

    def _transition(
        self, record: JobRecord, state: JobState, sync: bool = True, **details
    ) -> None:
        """Apply one edge to the table and the journal atomically.

        ``sync=False`` buffers the journal write (ordered, not yet
        durable) so :meth:`_run` can group-commit all the edges of a phase
        under one fsync; the caller must invoke ``journal.sync()`` before
        treating the edge as acknowledged.
        """
        with self._lock:
            now = self._clock()
            record.transition(state, timestamp=now, **details)
            self.journal.append_state(record.job.id, state, now, sync=sync, **details)

    def _start_running(self, record: JobRecord) -> None:
        """Queue-exit bookkeeping + the unsynced RUNNING edge for one job."""
        wait = self._clock() - record.updated_at
        if wait >= 0:
            self.metrics.observe("service.wait_seconds", wait)
        self._transition(
            record, JobState.RUNNING, attempt=record.attempt + 1, sync=False
        )

    def _finish(self, record: JobRecord, result: dict) -> None:
        """Apply the unsynced terminal edge of a successful execution."""
        if result["deadline_hit"]:
            self._transition(
                record, JobState.CANCELLED, reason="deadline", result=result,
                sync=False,
            )
            self.metrics.inc("service.cancelled")
        else:
            self._transition(record, JobState.DONE, result=result, sync=False)
            self.metrics.inc("service.completed")

    def _maybe_worker_chaos(self, key: str) -> None:
        """Injected worker faults: stall (watchdog bait) or poison batch."""
        worker = None if self.config.chaos is None else self.config.chaos.worker
        if worker is None or not worker.enabled:
            return
        if worker.fire("stall", key, self.metrics):
            time.sleep(worker.stall_seconds)
        if worker.fire("poison", key, self.metrics):
            raise WorkerCrashError(f"injected poison batch at {key!r}")

    def _lease_current(self, record: JobRecord, lease: int) -> bool:
        """True while this worker still owns the job (lock held).

        The attempt counter bumps on every RUNNING edge, so a watchdog
        re-queue (and any subsequent re-run) invalidates the lease the
        stalled worker captured; its late result must be discarded, not
        double-applied."""
        return record.state is JobState.RUNNING and record.attempt == lease

    def _requeue_degraded(
        self, records: "list[JobRecord]", exc: JournalWriteError
    ) -> None:
        """Jobs whose RUNNING edges the disk refused go back to PENDING."""
        self._journal_failure("journal_write_failure", exc)
        with self._lock:
            now = self._clock()
            for record in records:
                if record.state is JobState.RUNNING:
                    # The in-memory edge applied before the append failed;
                    # ride the legal crash-recovery edge back.
                    record.transition(JobState.PENDING, reason="degraded", timestamp=now)
                self._enqueue(record.job)

    # ------------------------------------------------------------- batching

    def _batch_key(self, job: AuditJob) -> str:
        """Spec identity up to id/priority/tenant: batchable jobs sharing a
        key produce (and may therefore share) the identical result payload."""
        payload = job.to_dict()
        for field in ("id", "priority", "tenant"):
            payload.pop(field, None)
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def _batchable(job: AuditJob) -> bool:
        # Deadline-carrying jobs are excluded: their budget starts at
        # execution and a shared dispatch would start several clocks at
        # once; mitigate jobs stay solo for the same per-job checkpoint
        # reason.
        return job.deadline_seconds is None and job.kind == "audit"

    def _run(self, job_ids: "list[str]") -> None:
        """One engine dispatch for one job or N identical specs; every
        lifecycle edge is journaled (ordered) with one group-commit fsync
        per phase.  The terminal phase (lease check, appends, fsync) runs
        under the service lock, so a stale lease is never applied."""
        with self._lock:
            records = [self._records[job_id] for job_id in job_ids]
            self._queued -= len(records)
            self._running += 1
            self.metrics.set_gauge("service.queue_depth", self._queued)
            self.metrics.set_gauge("service.running", self._running)
            records = [r for r in records if r.state is JobState.PENDING]
        try:
            if not records:
                return
            try:
                for record in records:
                    self._start_running(record)
                self.journal.sync()
            except JournalWriteError as exc:
                # Some RUNNING edges may be in memory/buffer, none are
                # durable: park the whole dispatch back in the queue and
                # degrade — the gated worker loop re-runs it post-recovery.
                self._requeue_degraded(records, exc)
                return
            leases = {record.job.id: record.attempt for record in records}
            try:
                with self.metrics.time("service.job_seconds"):
                    self._maybe_worker_chaos(
                        f"{records[0].job.id}:{records[0].attempt}"
                    )
                    result = self._execute(records[0].job)
            except Exception as exc:  # noqa: BLE001 - poison jobs raise anything
                for record in records:
                    self._handle_failure(record, exc, leases[record.job.id])
            else:
                failed: "JournalWriteError | None" = None
                with self._lock:
                    live = [
                        r for r in records if self._lease_current(r, leases[r.job.id])
                    ]
                    if len(live) < len(records):
                        self.metrics.inc(
                            "service.stale_results_discarded",
                            len(records) - len(live),
                        )
                    for record in live:
                        try:
                            self._finish(record, result)
                        except JournalWriteError as exc:
                            if not exc.written:
                                self._unjournaled.add(record.job.id)
                            failed = exc
                    if failed is None and live:
                        try:
                            self.journal.sync()
                        except JournalWriteError as exc:
                            # written=True: the edges are in the file and
                            # the next successful group commit makes them
                            # durable — degrade, don't re-append.
                            failed = exc
                if failed is not None:
                    self._journal_failure("journal_write_failure", failed)
                elif live and len(job_ids) > 1:
                    self.metrics.inc("service.batches")
                    self.metrics.inc("service.batched_jobs", len(live))
        finally:
            with self._idle:
                self._running -= 1
                self.metrics.set_gauge("service.running", self._running)
                self._idle.notify_all()

    def _handle_failure(self, record: JobRecord, exc: Exception, lease: int) -> None:
        reason = f"{type(exc).__name__}: {exc}"
        failed: "JournalWriteError | None" = None
        with self._lock:
            if not self._lease_current(record, lease):
                self.metrics.inc("service.stale_results_discarded")
                return
            try:
                self._transition(record, JobState.FAILED, reason=reason)
            except JournalWriteError as jexc:
                failed = jexc
            self.metrics.inc("service.failed")
            if record.attempt >= record.job.max_attempts:
                try:
                    self._transition(
                        record,
                        JobState.QUARANTINED,
                        reason=f"poison: failed {record.attempt} attempts; "
                        f"last: {reason}",
                    )
                except JournalWriteError as jexc:
                    failed = jexc
                self.metrics.inc("service.quarantined")
            else:
                try:
                    self._transition(record, JobState.PENDING, reason="retry")
                except JournalWriteError as jexc:
                    failed = jexc
                self.metrics.inc("service.retries")
                self._enqueue(record.job)
            if failed is not None:
                # The record's in-memory state is authoritative; park the
                # id so the post-recovery backfill re-appends its terminal
                # edge if the disk swallowed the append entirely.
                if not failed.written:
                    self._unjournaled.add(record.job.id)
        if failed is not None:
            self._journal_failure("journal_write_failure", failed)

    def _execute(self, job: AuditJob) -> dict:
        """Run one job's scenario cells; returns the JSON result payload.

        Deterministic given the spec: per-cell seeds derive from
        ``job.seed`` and each cell checkpoints into the job's own
        directory, so a re-run after a crash resumes (``resume=True``)
        instead of recomputing — completed cells come back bit-identical.
        ``kind="mitigate"`` jobs run the same audit per cell and then
        repair the ranking (see :meth:`_execute_mitigate`).
        """
        from repro.metrics import get_metric
        from repro.service.cache import (
            CachingEngineFactory,
            population_fingerprint,
            spec_token,
        )
        from repro.simulation.runner import run_scenario

        scenario = self._build_scenario(job)
        if job.kind == "mitigate":
            with self._searching(job) as deadline:
                return self._execute_mitigate(job, scenario, deadline)
        # Whole-experiment memo: the rows are a pure function of this
        # material (per-cell seeds derive from job.seed and cell names; the
        # kernel backend is parity-proven out of the key), so a repeat job
        # on the same tenant replays byte-for-byte instead of re-searching.
        result_material = (
            "experiment",
            job.scenario,
            population_fingerprint(scenario.population),
            tuple(scenario.functions),
            (job.algorithm,),
            get_metric(job.metric).name,
            int(job.seed),
            spec_token(scenario.hist_spec),
        )
        memo = self.cache.get(result_material)
        if memo is not None:
            return memo["payload"]
        with self._searching(job) as deadline:
            experiment = run_scenario(
                scenario,
                algorithms=(job.algorithm,),
                metric=job.metric,
                seed=job.seed,
                metrics=self.metrics,
                checkpoint=self.config.workdir / "checkpoints" / job.id,
                resume=True,
                deadline=deadline,
                kernel=job.kernel or self.config.engine_kernel,
                engine_factory=CachingEngineFactory(
                    self.cache, owner=f"scenario:{job.scenario}"
                ),
            )
        rows = [
            {
                "function": row.function,
                "algorithm": row.algorithm,
                "unfairness": row.unfairness,
                "n_partitions": row.n_partitions,
                "attributes_used": list(row.attributes_used),
                "deadline_hit": row.deadline_hit,
            }
            for row in experiment.rows
        ]
        payload = {
            "scenario": experiment.scenario,
            "rows": rows,
            "deadline_hit": any(row.deadline_hit for row in experiment.rows),
        }
        if not payload["deadline_hit"]:  # never memoise partial results
            self.cache.put(
                result_material,
                {"payload": payload},
                len(repr(payload)) + 512,
                owner=f"scenario:{job.scenario}",
            )
        return payload

    @contextlib.contextmanager
    def _searching(self, job: AuditJob):
        """Hold the search lane for one job search, yielding the job's
        :class:`~repro.engine.deadline.Deadline` (or None).  The wait is
        recorded as ``service.search_lane_wait_seconds``; it is queue wait,
        so the deadline starts only once the lane is held."""
        from repro.engine.deadline import Deadline

        with self.metrics.time("service.search_lane_wait_seconds"):
            self._search_lane.acquire()
        try:
            yield (
                None
                if job.deadline_seconds is None
                else Deadline(job.deadline_seconds)
            )
        finally:
            self._search_lane.release()

    def _execute_mitigate(self, job: AuditJob, scenario, deadline) -> dict:
        """Audit each cell, then repair its ranking with ``job.strategy``.

        Checkpointed and deterministic like audit jobs: every completed
        (function, algorithm) cell persists its JSON row via
        :meth:`~repro.simulation.checkpoint.CheckpointStore.record_payload`,
        so a crash mid-job resumes with bit-identical repaired rankings
        (the digest in each row proves it).
        """
        import numpy as np

        from repro.core.algorithms import get_algorithm
        from repro.repair import repair_ranking
        from repro.service.cache import CachingEngineFactory
        from repro.simulation.checkpoint import CheckpointStore, cell_key
        from repro.simulation.runner import _cell_seed

        engine_factory = CachingEngineFactory(
            self.cache, owner=f"scenario:{job.scenario}"
        )

        fingerprint = {
            "kind": "mitigate",
            "scenario": scenario.name,
            "seed": job.seed,
            "metric": job.metric,
            "algorithms": [job.algorithm],
            "functions": list(scenario.functions),
            "strategy": job.strategy,
            "top_k": job.top_k,
            "min_proportion": job.min_proportion,
            "alpha": job.alpha,
            "amount": job.amount,
        }
        store = CheckpointStore(self.config.workdir / "checkpoints" / job.id)
        completed = store.begin(fingerprint, resume=True)
        rows: "list[dict]" = []
        deadline_hit = False
        for function_name, function in scenario.functions.items():
            key = cell_key(function_name, job.algorithm)
            cell = completed.get(key)
            if cell is not None and "payload" in cell:
                rows.append(cell["payload"])
                self.metrics.inc("checkpoint.cells_skipped")
                continue
            if deadline is not None and deadline.expired():
                deadline_hit = True
                break
            scores = function(scenario.population)
            seed_value = _cell_seed(job.seed, job.algorithm, function_name)
            audit = get_algorithm(job.algorithm).run(
                scenario.population,
                scores,
                hist_spec=scenario.hist_spec,
                metric=job.metric,
                rng=np.random.default_rng(seed_value),
                metrics=self.metrics,
                deadline=deadline,
                kernel=job.kernel or self.config.engine_kernel,
                engine_factory=engine_factory,
            )
            with self.metrics.time("service.repair_seconds"):
                repair = repair_ranking(
                    scenario.population,
                    scores,
                    audit.partitioning,
                    job.strategy,
                    k=job.top_k,
                    min_proportion=job.min_proportion,
                    alpha=job.alpha,
                    amount=job.amount,
                    hist_spec=scenario.hist_spec,
                    metric=job.metric,
                )
            row = {
                "function": function_name,
                "algorithm": job.algorithm,
                "strategy": job.strategy,
                "audit_unfairness": audit.unfairness,
                "unfairness_before": repair.unfairness_before,
                "unfairness_after": repair.unfairness_after,
                "ndcg_at_k": repair.ndcg_at_k,
                "retained_score_mass": repair.retained_score_mass,
                "k": repair.k,
                "ranking_digest": repair.ranking_digest(),
                "deadline_hit": audit.deadline_hit,
            }
            store.record_payload(key, row)
            rows.append(row)
            self.metrics.inc("service.repairs")
            deadline_hit = deadline_hit or audit.deadline_hit
        return {
            "scenario": scenario.name,
            "kind": "mitigate",
            "rows": rows,
            "deadline_hit": deadline_hit
            or any(row["deadline_hit"] for row in rows),
        }

    def _build_scenario(self, job: AuditJob):
        from repro.simulation.scenarios import Scenario

        # Scenario generation is deterministic given (name, n_workers), so
        # the memo is exact; function filtering stays per-job (it only
        # wraps the shared population, never copies it).
        scenario = self.cache.scenario(
            job.scenario, job.n_workers, lambda: self._generate_scenario(job)
        )
        if job.functions:
            missing = sorted(set(job.functions) - set(scenario.functions))
            if missing:
                raise ServiceError(
                    f"scenario {job.scenario!r} has no function(s) {missing}"
                )
            scenario = Scenario(
                name=scenario.name,
                population=scenario.population,
                functions={name: scenario.functions[name] for name in job.functions},
                hist_spec=scenario.hist_spec,
            )
        return scenario

    def _generate_scenario(self, job: AuditJob):
        from repro.simulation import scenarios as scenario_builders
        from repro.simulation.config import PaperConfig

        if job.scenario == "figure1":
            return scenario_builders.figure1_scenario()
        builder = getattr(scenario_builders, f"{job.scenario}_scenario")
        config = (
            PaperConfig(n_workers=job.n_workers)
            if job.n_workers is not None
            else None
        )
        return builder(config)
