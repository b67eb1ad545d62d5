"""Crash-safe append-only job journal (``repro.journal/v1``).

The daemon's only durable state is one JSONL file: a header line followed
by one record per event (job submitted, state transition, monitored-
population lifecycle).  Every line uses the CRC-wrapped record grammar of
:mod:`repro.io.records`; appends are ordered under one writer lock and
made durable by a **group-commit** fsync (:meth:`JobJournal.sync`) that
concurrent appenders share, so once :meth:`JobJournal.append` returns
(with the default ``sync=True``) the record survives power loss — at a
cost of O(1) fsyncs per burst rather than one per record.

Recovery semantics (:meth:`JobJournal.open`):

* a **torn tail** — the final line cut short by a crash mid-append (partial
  JSON, missing newline, failed CRC) — is truncated away and logged; at
  most one record (the one being appended during the kill) is lost, and
  that record had not been acknowledged to anyone;
* a bad record **before** the tail means real corruption and raises
  :class:`~repro.exceptions.JournalError` — recovery must never silently
  skip acknowledged history;
* an unknown ``schema`` tag raises rather than misreads.

Replaying the surviving records (:meth:`JobJournal.replay_state`) rebuilds
the job table and the monitored-population event streams exactly: jobs
whose last state is ``RUNNING`` were in flight when the daemon died and are
re-queued (``RUNNING → PENDING``); monitored populations are restored from
their latest snapshot plus the journaled mutation batches past it.

Growth control (:meth:`JobJournal.compact`): a streaming daemon appends a
record per mutation batch forever, so the journal needs a size-threshold
rewrite.  Compaction replaces the file *atomically* with an equivalent
minimal history — terminal jobs collapse to a submit plus the shortest
legal transition path to their final state, and monitor mutation batches
already captured by a snapshot are dropped.  Replay of the compacted file
must be equivalent to replay of the original (property-tested): same final
job states/attempts/reasons/results, same post-snapshot monitor events.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterator

from repro import chaos
from repro.exceptions import JournalError, JournalWriteError, ServiceError
from repro.io.atomic import (
    atomic_write_text,
    ensure_directory,
    fsync_directory,
    fsync_handle,
)
from repro.io.records import decode_line, encode_record, scan_records
from repro.service.jobs import AuditJob, JobRecord, JobState

__all__ = [
    "JobJournal",
    "JournalState",
    "MonitorEvents",
    "JOURNAL_SCHEMA",
    "MONITOR_RECORD_TYPES",
    "encode_record",
    "decode_line",
    "compact_job_records",
    "compact_monitor_records",
]

#: Format tag; bump on incompatible layout changes.
JOURNAL_SCHEMA = "repro.journal/v1"

#: Record types owned by the monitored-population (streaming) layer.
MONITOR_RECORD_TYPES = ("mpop_create", "mpop_mutations", "mpop_audit")


class MonitorEvents:
    """The journaled history of one monitored population.

    ``spec`` is the creation record's spec dict; ``mutation_batches`` and
    ``audits`` are the raw journal records in append order.  The service
    turns these back into live state (see ``repro.service.monitor``).
    """

    __slots__ = ("spec", "created_at", "mutation_batches", "audits")

    def __init__(self, spec: dict, created_at: float) -> None:
        self.spec = spec
        self.created_at = created_at
        self.mutation_batches: list[dict] = []
        self.audits: list[dict] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MonitorEvents(id={self.spec.get('id')!r}, "
            f"batches={len(self.mutation_batches)}, audits={len(self.audits)})"
        )


class JournalState:
    """Everything :meth:`JobJournal.replay_state` recovers: jobs + monitors."""

    __slots__ = ("jobs", "monitors")

    def __init__(
        self, jobs: "dict[str, JobRecord]", monitors: "dict[str, MonitorEvents]"
    ) -> None:
        self.jobs = jobs
        self.monitors = monitors


class JobJournal:
    """Append-only, CRC-checked, fsync'd record log for the audit daemon.

    One instance is the single writer; readers (``repro-audit jobs`` on a
    stopped daemon, tests) use :meth:`read_records` / :meth:`replay` on
    their own instance without opening for append.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._handle = None
        self.recovered_tail_bytes = 0
        # Group-commit state.  Writes are ordered by ``_io_lock`` and
        # numbered by ``_write_seq``; ``_sync_seq`` is the highest write
        # known durable.  At most one thread fsyncs at a time
        # (``_syncing``); everyone else waits on ``_sync_cond`` and is
        # released when the in-flight fsync — which covers *all* writes
        # issued before it started — lands.  That is the coalescing win:
        # N threads appending concurrently share O(1) fsyncs, not N.
        self._io_lock = threading.Lock()
        self._sync_cond = threading.Condition()
        self._write_seq = 0
        self._sync_seq = 0
        self._syncing = False
        # Failed-append repair state: ``_clean_bytes`` is the logical
        # length of every successfully appended record (a failed write may
        # leave a torn prefix after it); ``_dirty`` forces a flush+truncate
        # back to that length before the next append.
        self._clean_bytes = 0
        self._dirty = False

    # -------------------------------------------------------------- lifecycle

    def open(self) -> "JobJournal":
        """Open for appending, creating or recovering the file as needed.

        Existing files are scanned first: a torn tail is truncated in place
        (write + fsync) before the append handle is positioned at the end.
        """
        ensure_directory(self.path.parent)
        if self.path.exists():
            self._recover()
        else:
            with self.path.open("w") as handle:
                handle.write(encode_record({"type": "header", "schema": JOURNAL_SCHEMA}) + "\n")
                fsync_handle(handle)
            fsync_directory(self.path.parent)
        self._clean_bytes = self.path.stat().st_size
        self._dirty = False
        self._handle = self.path.open("a")
        return self

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            self.sync()  # nothing acknowledged is allowed to be in limbo
        finally:
            self._drain_sync()
            with self._io_lock:
                handle, self._handle = self._handle, None
            try:
                handle.close()
            except OSError:
                # A failing close (flush of a dirty buffer onto a broken
                # disk) must not mask the sync() error already in flight;
                # whatever it tore off the tail is truncated on next open.
                pass

    def __enter__(self) -> "JobJournal":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- appending

    def append(self, record: dict, *, sync: bool = True) -> int:
        """Append one record; durable before return unless ``sync=False``.

        With ``sync=True`` (the default, and the historical behaviour) the
        record is on stable storage when this returns — but the fsync is a
        *group commit*: concurrent appenders piggyback on one another's
        fsyncs instead of issuing one each.  With ``sync=False`` the write
        is only buffered and ordered; the caller must invoke :meth:`sync`
        (or a later ``sync=True`` append must land) before acknowledging
        anything that depends on it.  Returns the record's write sequence
        number, accepted by :meth:`sync`.

        A write refused by the disk (ENOSPC, EIO, a torn partial write —
        real or chaos-injected) raises :class:`JournalWriteError`; the
        journal marks itself dirty and repairs (flush + truncate back to
        the last good record) before the next append, so one failed write
        never poisons the records behind or after it.
        """
        line = encode_record(record) + "\n"
        with self._io_lock:
            if self._handle is None:
                raise JournalError(
                    "journal not open for appending; call open() first"
                )
            if self._dirty:
                self._repair_locked()
            try:
                chaos.write(self._handle, line, label="journal")
            except OSError as exc:
                self._dirty = True
                raise JournalWriteError(
                    f"journal append failed: {exc}"
                ) from exc
            self._clean_bytes += len(line.encode("utf-8"))
            self._write_seq += 1
            seq = self._write_seq
        chaos.crash_point("journal.append.after_write")
        if sync:
            self.sync(seq)
        return seq

    def _repair_locked(self) -> None:
        """Truncate a torn prefix left by a failed append (io lock held).

        Flushes whatever good records are still buffered (the torn
        fragment is ordered last, so the truncate below removes exactly
        it), cuts the file back to ``_clean_bytes``, and repositions the
        append handle.
        """
        handle = self._handle
        try:
            handle.flush()
        except OSError:  # pragma: no cover - flush onto a still-broken disk
            pass
        os.ftruncate(handle.fileno(), self._clean_bytes)
        handle.seek(0, os.SEEK_END)
        self._dirty = False

    def sync(self, seq: "int | None" = None) -> None:
        """Block until write ``seq`` (default: all writes so far) is durable.

        Group commit: if another thread's fsync is already in flight, wait
        for it — it may cover ``seq``.  Otherwise become the syncer,
        capture the current write frontier, fsync once *outside* the
        condition lock, and release every waiter at or below the frontier.
        """
        with self._sync_cond:
            if seq is None:
                seq = self._write_seq
            while True:
                if self._sync_seq >= seq:
                    return
                if not self._syncing:
                    break
                self._sync_cond.wait()
            self._syncing = True
            target = self._write_seq
        try:
            with self._io_lock:
                handle = self._handle
                if handle is not None:
                    try:
                        handle.flush()
                    except OSError as exc:
                        self._dirty = True
                        raise JournalWriteError(
                            f"journal flush failed: {exc}", written=True
                        ) from exc
            if handle is not None:
                chaos.crash_point("journal.sync.before_fsync")
                try:
                    chaos.fsync(handle.fileno(), label="journal")
                except OSError as exc:
                    raise JournalWriteError(
                        f"journal fsync failed: {exc}", written=True
                    ) from exc
                chaos.crash_point("journal.sync.after_fsync")
        except BaseException:
            with self._sync_cond:
                self._syncing = False
                self._sync_cond.notify_all()
            raise
        with self._sync_cond:
            self._syncing = False
            self._sync_seq = max(self._sync_seq, target)
            self._sync_cond.notify_all()

    def _drain_sync(self) -> None:
        """Wait out any in-flight group fsync (used before handle swaps)."""
        with self._sync_cond:
            while self._syncing:
                self._sync_cond.wait()

    def append_submit(
        self, job: AuditJob, timestamp: float, *, sync: bool = True
    ) -> int:
        return self.append(
            {"type": "submit", "ts": timestamp, "job": job.to_dict()}, sync=sync
        )

    def append_state(
        self,
        job_id: str,
        state: JobState,
        timestamp: float,
        *,
        attempt: "int | None" = None,
        reason: "str | None" = None,
        result: "dict | None" = None,
        sync: bool = True,
    ) -> None:
        record = {"type": "state", "ts": timestamp, "id": job_id, "state": state.value}
        if attempt is not None:
            record["attempt"] = attempt
        if reason is not None:
            record["reason"] = reason
        if result is not None:
            record["result"] = result
        self.append(record, sync=sync)

    # ---------------------------------------------------------------- reading

    def _scan(self) -> "tuple[list[dict], int, int]":
        """(records, clean_length_bytes, torn_bytes) of the current file."""
        return scan_records(self.path, error=JournalError)

    def _recover(self) -> None:
        """Validate an existing file, truncating a torn tail in place."""
        records, clean, torn = self._scan()
        if not records or records[0].get("type") != "header":
            raise JournalError(
                f"journal {self.path} has no valid header record; "
                f"refusing to append to an alien file"
            )
        if records[0].get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {self.path} has schema {records[0].get('schema')!r}; "
                f"this build reads {JOURNAL_SCHEMA!r}"
            )
        self.recovered_tail_bytes = torn
        if torn:
            chaos.crash_point("journal.recover.before_truncate")
            with self.path.open("r+b") as handle:
                handle.truncate(clean)
                handle.flush()
                chaos.fsync(handle.fileno(), label="journal.recover")

    def read_records(self) -> list[dict]:
        """All verified records (header included); raises on mid-file rot.

        Readable without :meth:`open` — a torn tail is *ignored* (not
        truncated), so inspection tools never mutate a live daemon's file.
        """
        if not self.path.exists():
            raise JournalError(f"no journal file at {self.path}")
        records, _, _ = self._scan()
        if not records or records[0].get("type") != "header":
            raise JournalError(f"journal {self.path} has no valid header record")
        if records[0].get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {self.path} has schema {records[0].get('schema')!r}; "
                f"this build reads {JOURNAL_SCHEMA!r}"
            )
        return records

    def iter_events(self) -> Iterator[dict]:
        """Verified records minus the header."""
        return iter(self.read_records()[1:])

    def size_bytes(self) -> int:
        """Current on-disk size; 0 when the file does not exist yet."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # --------------------------------------------------------------- replay

    def replay(self) -> "dict[str, JobRecord]":
        """Rebuild the job table from the journal's event history.

        Monitored-population records are skipped here; use
        :meth:`replay_state` to recover them too.
        """
        return self.replay_state().jobs

    def replay_state(self) -> JournalState:
        """Rebuild jobs *and* monitored-population histories from the log.

        Raises :class:`JournalError` on impossible histories (duplicate
        submits, transitions for unknown jobs, illegal state edges, events
        for unknown monitors) — those mean the file was edited or the
        daemon had a bug, and silently "fixing" them would hide exactly the
        kind of fault this layer exists to surface.
        """
        jobs: "dict[str, JobRecord]" = {}
        monitors: "dict[str, MonitorEvents]" = {}
        for event in self.iter_events():
            kind = event.get("type")
            if kind == "submit":
                try:
                    job = AuditJob.from_dict(event["job"])
                except (KeyError, ServiceError) as exc:
                    raise JournalError(f"journal submit record invalid: {exc}") from exc
                if job.id in jobs:
                    # Degraded-mode signature: a group commit's appends hit
                    # the file but its fsync failed, so the batch was
                    # rejected (and unwound) with the submit records already
                    # on disk; the client's retry then appended a second,
                    # identical submit.  Idempotent replay — the retry IS the
                    # same job.  A duplicate with a *different* spec is still
                    # the corruption this guard exists for.
                    if jobs[job.id].job == job:
                        continue
                    raise JournalError(f"duplicate submit for job id {job.id!r}")
                jobs[job.id] = JobRecord(
                    job=job, submitted_at=float(event.get("ts", 0.0))
                )
            elif kind == "state":
                job_id = event.get("id")
                if job_id not in jobs:
                    raise JournalError(
                        f"state record for unknown job id {job_id!r}"
                    )
                try:
                    state = JobState(event["state"])
                except (KeyError, ValueError) as exc:
                    raise JournalError(f"journal state record invalid: {exc}") from exc
                if state is JobState.RUNNING and jobs[job_id].state is JobState.RUNNING:
                    # Degraded-mode signature: a stalled/refused RUNNING job
                    # was re-queued but the broken disk swallowed the PENDING
                    # edge, so the re-run's RUNNING edge lands on RUNNING.
                    # Replay the implied re-queue hop rather than rejecting a
                    # history the degraded service legitimately produces.
                    jobs[job_id].transition(
                        JobState.PENDING,
                        reason="degraded",
                        timestamp=float(event.get("ts", 0.0)),
                    )
                jobs[job_id].transition(
                    state,
                    attempt=event.get("attempt"),
                    reason=event.get("reason"),
                    result=event.get("result"),
                    timestamp=float(event.get("ts", 0.0)),
                )
            elif kind == "mpop_create":
                spec = event.get("spec")
                if not isinstance(spec, dict) or "id" not in spec:
                    raise JournalError("mpop_create record has no spec with an id")
                monitor_id = spec["id"]
                if monitor_id in monitors:
                    raise JournalError(
                        f"duplicate mpop_create for monitor id {monitor_id!r}"
                    )
                monitors[monitor_id] = MonitorEvents(
                    spec=spec, created_at=float(event.get("ts", 0.0))
                )
            elif kind == "mpop_mutations":
                monitor = monitors.get(event.get("id"))
                if monitor is None:
                    raise JournalError(
                        f"mutation record for unknown monitor id {event.get('id')!r}"
                    )
                monitor.mutation_batches.append(event)
            elif kind == "mpop_audit":
                monitor = monitors.get(event.get("id"))
                if monitor is None:
                    raise JournalError(
                        f"audit record for unknown monitor id {event.get('id')!r}"
                    )
                monitor.audits.append(event)
            else:
                raise JournalError(f"unknown journal record type {kind!r}")
        return JournalState(jobs=jobs, monitors=monitors)

    # ------------------------------------------------------------ compaction

    def compact(self, events: "list[dict]") -> int:
        """Atomically rewrite the journal as header + ``events``.

        Returns the bytes reclaimed.  The rewrite goes through
        :func:`~repro.io.atomic.atomic_write_text` (temp file + fsync +
        rename), so a crash mid-compaction leaves either the old or the new
        journal — never a torn hybrid.  The append handle is re-opened on
        the new file.
        """
        was_open = self._handle is not None
        before = self.size_bytes()
        lines = [encode_record({"type": "header", "schema": JOURNAL_SCHEMA})]
        lines.extend(encode_record(event) for event in events)
        if was_open:
            self.close()
        try:
            atomic_write_text(
                self.path, "\n".join(lines) + "\n", crash_scope="journal.compact"
            )
        except OSError as exc:
            # The replace is atomic, so a failed rewrite leaves the old
            # file intact — re-open it and surface a typed write error.
            if was_open:
                self._clean_bytes = self.path.stat().st_size
                self._handle = self.path.open("a")
            raise JournalWriteError(f"journal compaction failed: {exc}") from exc
        if was_open:
            self._clean_bytes = self.path.stat().st_size
            self._handle = self.path.open("a")
        return max(0, before - self.size_bytes())

    def compact_to(
        self, snapshot_versions: "dict[str, int] | None" = None
    ) -> int:
        """Compact in place using the journal's own replayed state.

        ``snapshot_versions`` maps monitor id → population version captured
        by a durable snapshot; mutation batches at or below that version
        (and audit points at or below it) are dropped because snapshot
        restore supersedes them.  Returns bytes reclaimed.
        """
        state = self.replay_state()
        events = compact_job_records(state.jobs)
        events.extend(
            compact_monitor_records(state.monitors, snapshot_versions or {})
        )
        return self.compact(events)


def compact_job_records(jobs: "dict[str, JobRecord]") -> "list[dict]":
    """Minimal legal event list reproducing each job's final state.

    Jobs still PENDING with no attempts keep just their submit record.
    Everything else is collapsed to submit + the shortest legal transition
    path ending at (state, attempt, reason, result): ``PENDING → DONE`` is
    an illegal edge, so terminal jobs emit a synthetic ``RUNNING`` carrying
    the final attempt count first.  Replay equivalence — identical final
    ``(state, attempt, reason, result)`` per job — is property-tested in
    ``tests/test_journal.py``.
    """
    events: "list[dict]" = []
    for record in jobs.values():
        events.append(
            {"type": "submit", "ts": record.submitted_at, "job": record.job.to_dict()}
        )
        state = record.state
        if state is JobState.PENDING and record.attempt == 0:
            continue
        base = {"type": "state", "ts": record.updated_at, "id": record.job.id}
        running = dict(base)
        running["state"] = JobState.RUNNING.value
        running["attempt"] = record.attempt
        if state is JobState.RUNNING:
            if record.reason is not None:
                running["reason"] = record.reason
            events.append(running)
            continue
        events.append(running)
        final = dict(base)
        final["state"] = state.value
        if record.reason is not None:
            final["reason"] = record.reason
        if record.result is not None:
            final["result"] = record.result
        events.append(final)
    return events


def compact_monitor_records(
    monitors: "dict[str, MonitorEvents]",
    snapshot_versions: "dict[str, int]",
) -> "list[dict]":
    """Monitor events worth keeping: create + post-snapshot batches/audits.

    A mutation batch whose last applied version is ≤ the snapshotted
    version is fully captured by the snapshot file and safe to drop; same
    for audit series points (the snapshot stores the series up to its
    version).
    """
    events: "list[dict]" = []
    for monitor_id, monitor in monitors.items():
        floor = int(snapshot_versions.get(monitor_id, -1))
        events.append(
            {"type": "mpop_create", "ts": monitor.created_at, "spec": monitor.spec}
        )
        for batch in monitor.mutation_batches:
            if int(batch.get("version", 0)) > floor:
                events.append(batch)
        for audit in monitor.audits:
            if int(audit.get("version", 0)) > floor:
                events.append(audit)
    return events
