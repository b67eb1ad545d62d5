"""Long-running fairness-audit service.

The three layers, bottom up:

* :mod:`repro.service.jobs` — typed :class:`AuditJob` specs and the
  explicit job-lifecycle state machine;
* :mod:`repro.service.journal` — the crash-safe append-only
  :class:`JobJournal` (CRC-checked JSONL, fsync'd appends, torn-tail
  recovery) that makes the daemon's state survive SIGKILL;
* :mod:`repro.service.monitor` — monitored populations: long-lived mutable
  populations that clients stream mutations at, re-audited on a debounced
  schedule with O(Δ) incremental work;
* :mod:`repro.service.snapshot` — durable, digest-verified snapshots of
  monitored populations for byte-identical restarts;
* :mod:`repro.service.scheduling` — fair-share dispatch: weighted
  per-tenant priority queues (:class:`TenantScheduler`) and per-tenant
  :class:`TokenBucket` rate limits;
* :mod:`repro.service.server` — the :class:`AuditService` daemon: bounded
  queue with typed backpressure, worker threads, per-job deadlines,
  poison-job quarantine, graceful drain, job batching and sharded
  execution;
* :mod:`repro.service.http` — the ``asyncio`` HTTP front end serving the
  ``/v1`` API (and the deprecated legacy aliases) without a thread per
  connection.

The seeded fault injection threaded through these seams (disk, net and
worker faults, crash points) lives in :mod:`repro.chaos`; ``serve
--chaos`` arms it and ``docs/robustness.md`` maps the taxonomy.

See ``docs/service.md`` and ``docs/streaming.md`` for the operational story.
"""

from repro.service.jobs import (
    JOB_KINDS,
    JOB_SCHEMA,
    KNOWN_SCENARIOS,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    AuditJob,
    JobRecord,
    JobState,
    check_transition,
)
from repro.service.journal import JOURNAL_SCHEMA, JobJournal
from repro.service.monitor import MonitoredPopulation, MonitorSpec
from repro.service.scheduling import TenantScheduler, TokenBucket
from repro.service.server import (
    HEALTH_STATES,
    REJECTION_REASONS,
    AuditService,
    ServiceConfig,
)
from repro.service.snapshot import (
    SNAPSHOT_SCHEMA,
    compact_snapshot,
    load_snapshot,
    verify_snapshot,
    write_snapshot,
)

__all__ = [
    "AuditJob",
    "AuditService",
    "HEALTH_STATES",
    "JobJournal",
    "JobRecord",
    "JobState",
    "JOB_KINDS",
    "JOB_SCHEMA",
    "JOURNAL_SCHEMA",
    "KNOWN_SCENARIOS",
    "MonitorSpec",
    "MonitoredPopulation",
    "REJECTION_REASONS",
    "SNAPSHOT_SCHEMA",
    "ServiceConfig",
    "TERMINAL_STATES",
    "TenantScheduler",
    "TokenBucket",
    "VALID_TRANSITIONS",
    "check_transition",
    "compact_snapshot",
    "load_snapshot",
    "verify_snapshot",
    "write_snapshot",
]
