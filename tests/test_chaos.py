"""Service-wide chaos: degraded mode, watchdog, group-commit hole, net faults.

Covers the degradation state machine end to end (journal failure →
READ_ONLY → probe → HEALTHY), the group-commit acknowledgement hole (a
batch whose fsync fails must surface typed rejections, never a 200 plus a
silently lost job), the stalled-worker watchdog with stale-lease discard,
injected worker/network faults, and the chaos surface in ``/v1/healthz``
and ``/v1/metrics``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import zlib

import pytest

from repro.chaos import (
    FAMILIES,
    ChaosConfig,
    DiskFaults,
    NetFaults,
    WorkerFaults,
    seeded_roll,
)
from repro.exceptions import JobRejectedError, JournalWriteError
from repro.service import AuditJob, AuditService, JobJournal, JobState, ServiceConfig
from repro.service.http import REJECTION_STATUS, dispatch


def _job(job_id: str, **overrides) -> AuditJob:
    spec = {"id": job_id, "scenario": "figure1", "algorithm": "balanced"}
    spec.update(overrides)
    return AuditJob(**spec)


def _wait(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.01)


def _service(tmp_path, **overrides) -> AuditService:
    params = dict(
        queue_limit=8,
        workers=1,
        port=None,
        probe_backoff_seconds=0.02,
        probe_backoff_max_seconds=0.1,
    )
    params.update(overrides)
    return AuditService(ServiceConfig(tmp_path, **params))


FAST_RESULT = {"scenario": "figure1-toy", "rows": [], "deadline_hit": False}


# -------------------------------------------------------------- spec parsing


class TestChaosSpec:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            # Accepted: each family's rates and other fields; the one seed
            # lands in every family.
            (
                "disk-enospc=0.1,disk-fsync=0.2,disk-torn=0.3,disk-slow-seconds=0.5,"
                "seed=3",
                {
                    "disk": DiskFaults(
                        enospc_rate=0.1,
                        fsync_rate=0.2,
                        torn_rate=0.3,
                        slow_seconds=0.5,
                        seed=3,
                    )
                },
            ),
            (
                "net-reset=0.3,net-stall-seconds=0.7,seed=42",
                {"net": NetFaults(reset_rate=0.3, stall_seconds=0.7, seed=42)},
            ),
            (
                "worker-stall=0.4,worker_stall_seconds=0.9,seed=42",
                {"worker": WorkerFaults(stall_rate=0.4, stall_seconds=0.9, seed=42)},
            ),
            # Rejected, with an error naming the offending entry.
            ("enospc=0.05", "'enospc=0.05': unknown key"),
            ("engine-crash=1.0", "'engine-crash=1.0': unknown key"),
            ("gremlins=1.0", "'gremlins=1.0': unknown key"),
            ("disk-sparks=0.5,seed=1", "'disk-sparks=0.5': unknown key"),
            ("disk-seed=3", "'disk-seed=3': unknown key"),
            ("disk-fsync", "'disk-fsync': not key=value"),
            ("seed=abc", "'seed=abc': invalid literal"),
            ("net-reset=abc", "'net-reset=abc': could not convert"),
        ],
        ids=[
            "disk", "net", "worker",
            "bare-disk-key", "engine-on-serve",
            "unknown-family", "unknown-kind", "per-family-seed", "no-equals",
            "bad-seed", "bad-rate",
        ],
    )
    def test_parse(self, spec, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                ChaosConfig.parse(spec)
            return
        config = ChaosConfig.parse(spec)
        assert config.spec == spec
        for family in FAMILIES:
            schedule = getattr(config, family)
            assert schedule == expected.get(family, type(schedule)(seed=config.seed))

    @pytest.mark.parametrize(
        "schedule,prefix",
        [
            (
                DiskFaults(
                    enospc_rate=0.4,
                    eio_rate=0.4,
                    fsync_rate=0.4,
                    torn_rate=0.4,
                    slow_rate=0.4,
                    seed=9,
                ),
                "",
            ),
            (
                NetFaults(
                    reset_rate=0.4,
                    truncate_rate=0.4,
                    stall_rate=0.4,
                    close_rate=0.4,
                    seed=9,
                ),
                "net-",
            ),
            (WorkerFaults(stall_rate=0.4, poison_rate=0.4, seed=9), "worker-"),
        ],
        ids=FAMILIES,
    )
    def test_roll_uses_the_historical_token(self, schedule, prefix):
        # {seed}:{kind}:{key} for disk, {seed}:net-{kind}:{key}
        # and {seed}:worker-{kind}:{key} for the service seams: seeded
        # drills keep replaying the same faults.
        for kind in schedule.kinds():
            for key in (f"k-{i}" for i in range(100)):
                token = f"9:{prefix}{kind}:{key}".encode()
                expected = seeded_roll(9, prefix + kind, key, 0.4)
                assert expected == (zlib.crc32(token) / 0x1_0000_0000 < 0.4)
                assert schedule.roll(kind, key) == expected

    def test_parse_rejects_out_of_range_rates(self):
        for entry in (
            "disk-slow-seconds=-1",
            "net-reset=1.5",
            "worker-poison=-0.1",
        ):
            with pytest.raises(ValueError, match=re.escape(repr(entry))):
                ChaosConfig.parse(entry)

    def test_empty_spec_is_disabled(self):
        config = ChaosConfig.parse("")
        assert not config.enabled
        assert ChaosConfig().enabled is False

    def test_describe_is_json_shaped(self):
        config = ChaosConfig.parse("disk-eio=0.05,seed=9")
        payload = config.describe()
        assert payload == {
            "spec": "disk-eio=0.05,seed=9",
            "seed": 9,
            "disk": {"enospc": 0.0, "eio": 0.05, "fsync": 0.0, "torn": 0.0, "slow": 0.0},
            "net": {"reset": 0.0, "truncate": 0.0, "stall": 0.0, "close": 0.0},
            "worker": {"stall": 0.0, "poison": 0.0},
        }
        json.dumps(payload)  # must be serialisable as-is


# --------------------------------------------- satellite 1: group-commit hole


class TestGroupCommitAcknowledgementHole:
    def test_failed_group_commit_rejects_every_accepted_job(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            original = service.journal.sync
            calls = {"n": 0}

            def failing_sync(seq=None):
                # Fail exactly the group commit for the batch below; the
                # probe's later sync() calls go through and win recovery.
                if calls["n"] == 0:
                    calls["n"] += 1
                    raise JournalWriteError(
                        "injected fsync failure between accept and commit",
                        written=True,
                    )
                return original(seq)

            service.journal.sync = failing_sync
            try:
                outcomes = service.submit_many(
                    [_job("batch-a").to_dict(), _job("batch-b").to_dict()]
                )
            finally:
                service.journal.sync = original
            # Typed rejection, not a success + silent loss.
            assert len(outcomes) == 2
            for outcome in outcomes:
                assert isinstance(outcome, JobRejectedError)
                assert outcome.reason == "degraded"
            assert REJECTION_STATUS["degraded"] == 503
            # The reservations were unwound: nothing runs, nothing lingers.
            assert {r["id"] for r in service.jobs_snapshot()} == set()
            assert service.metrics.counter("service.journal_write_failures") >= 1
            # The probe restores HEALTHY (the real disk is fine), after
            # which the same submits are accepted and run to completion.
            _wait(lambda: service.state == "HEALTHY", message="probe recovery")
            record = service.submit(_job("batch-a"))
            assert record.job.id == "batch-a"
            assert service.drain(timeout=30)
        finally:
            service.stop()

    def test_single_submit_commit_failure_raises_degraded(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            original = service.journal.sync
            service.journal.sync = lambda seq=None: (_ for _ in ()).throw(
                JournalWriteError("injected", written=True)
            )
            try:
                with pytest.raises(JobRejectedError) as excinfo:
                    service.submit(_job("solo"))
            finally:
                service.journal.sync = original
            assert excinfo.value.reason == "degraded"
            assert service.state == "READ_ONLY"
        finally:
            service.stop()


# --------------------------------------------------- degradation state machine


class TestDegradedStateMachine:
    def test_read_only_rejects_submits_but_serves_reads(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            done = service.submit(_job("before"))
            _wait(
                lambda: service.record("before").state in (JobState.DONE,),
                message="baseline job",
            )
            # Pin the disk broken so recovery cannot race the assertions.
            broken = threading.Event()
            broken.set()
            original_probe = service._probe_disk

            def probe():
                if broken.is_set():
                    raise JournalWriteError("probe: disk still broken")
                original_probe()

            service._probe_disk = probe
            service.enter_degraded("journal_write_failure: injected")
            with pytest.raises(JobRejectedError) as excinfo:
                service.submit(_job("while-degraded"))
            assert excinfo.value.reason == "degraded"
            # Reads, metrics and health keep working READ_ONLY.
            health = service.health()
            assert health["state"] == "READ_ONLY"
            assert health["status"] == "degraded"
            assert health["degraded_reasons"]
            assert isinstance(health["since"], float)
            assert service.record("before").state is JobState.DONE
            assert done.job.id in {r["id"] for r in service.jobs_snapshot()}
            assert service.metrics.counter("service.submitted") >= 1
            # Heal the disk: the probe loop restores HEALTHY on its own.
            broken.clear()
            _wait(lambda: service.state == "HEALTHY", message="probe recovery")
            assert service.metrics.counter("service.degraded_recoveries") == 1
            assert service.metrics.counter("service.disk_probes") >= 1
            health = service.health()
            assert health["state"] == "HEALTHY"
            assert health["status"] == "ok"
            assert health["degraded_reasons"] == []
            service.submit(_job("after-recovery"))
            assert service.drain(timeout=30)
        finally:
            service.stop()

    def test_degraded_seconds_accumulates(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            service.enter_degraded("injected")
            _wait(lambda: service.state == "HEALTHY", message="probe recovery")
            assert service.metrics.counter("service.degraded_seconds") > 0
        finally:
            service.stop()

    def test_append_failure_on_submit_degrades(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            original = service.journal.append_submit

            def failing_append(job, now, sync=True):
                raise JournalWriteError("injected append failure")

            service.journal.append_submit = failing_append
            try:
                with pytest.raises(JobRejectedError) as excinfo:
                    service.submit(_job("refused"))
            finally:
                service.journal.append_submit = original
            assert excinfo.value.reason == "degraded"
            assert "refused" not in {r["id"] for r in service.jobs_snapshot()}
            _wait(lambda: service.state == "HEALTHY", message="probe recovery")
        finally:
            service.stop()


class TestTerminalEdgeBackfill:
    """A DONE edge the disk refused outright is parked, re-appended by the
    probe once the disk recovers, and replays after a restart — for a
    one-job dispatch and a coalesced one alike."""

    @pytest.mark.parametrize(
        "n_jobs, batch_max", [(1, 1), (3, 8)], ids=["one-job", "coalesced-three"]
    )
    def test_refused_done_edges_are_backfilled(self, tmp_path, n_jobs, batch_max):
        ids = [f"b{i}" for i in range(n_jobs)]
        # Journaled before start, so recovery queues them all before any
        # worker runs: identical specs then leave in one dispatch.
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            for job_id in ids:
                journal.append_submit(_job(job_id), timestamp=100.0)
        service = _service(tmp_path, batch_max=batch_max)
        append_state = service.journal.append_state
        refused = set()

        def refuse_first_done(job_id, state, timestamp, **kwargs):
            if state is JobState.DONE and job_id not in refused:
                refused.add(job_id)
                raise JournalWriteError("injected: DONE append refused")
            return append_state(job_id, state, timestamp, **kwargs)

        service.journal.append_state = refuse_first_done
        execute, dispatched = service._execute, []

        def counting_execute(job):
            dispatched.append(job.id)
            return execute(job)

        service._execute = counting_execute
        service.start()
        try:
            _wait(
                lambda: service.metrics.counter("service.journal_backfilled_edges")
                == n_jobs,
                message="terminal-edge backfill",
            )
            _wait(lambda: service.state == "HEALTHY", message="probe recovery")
            assert refused == set(ids)
            assert dispatched == ids[:1]  # one engine dispatch for all of them
            results = {job_id: service.record(job_id).result for job_id in ids}
            assert all(results.values())
        finally:
            service.stop()
        with _service(tmp_path) as revived:
            for job_id in ids:
                record = revived.record(job_id)
                assert record.state is JobState.DONE
                assert record.result == results[job_id]


# ----------------------------------------------------- watchdog + stale lease


class TestWatchdog:
    def test_stalled_worker_requeued_and_stale_result_discarded(
        self, tmp_path, monkeypatch
    ):
        service = _service(tmp_path, workers=2, watchdog_seconds=0.1)
        release = threading.Event()
        stalled = threading.Event()
        calls = {"n": 0}
        lock = threading.Lock()

        def execute(self, job):
            with lock:
                calls["n"] += 1
                first = calls["n"] == 1
            if first:
                stalled.set()
                release.wait(30)  # stall far past watchdog_seconds
            return dict(FAST_RESULT)

        monkeypatch.setattr(AuditService, "_execute", execute)
        service.start()
        try:
            service.submit(_job("stuck"))
            assert stalled.wait(10), "worker never started the job"
            # The watchdog re-queues the stalled job; the second worker
            # completes it on a fresh lease.
            _wait(
                lambda: service.record("stuck").state is JobState.DONE,
                message="watchdog re-queue + re-run",
            )
            assert service.metrics.counter("service.watchdog_requeues") >= 1
            # Unblock the stalled worker: its result carries a stale lease
            # and must be discarded, not double-applied.
            release.set()
            _wait(
                lambda: service.metrics.counter("service.stale_results_discarded")
                >= 1,
                message="stale result discard",
            )
            record = service.record("stuck")
            assert record.state is JobState.DONE
            assert service.drain(timeout=30)
        finally:
            release.set()
            service.stop()


# ------------------------------------------------------------- worker chaos


class TestWorkerChaos:
    def test_poison_rate_one_walks_the_quarantine_ladder(
        self, tmp_path, monkeypatch
    ):
        chaos = ChaosConfig.parse("worker-poison=1.0,seed=3")
        service = _service(tmp_path, chaos=chaos)
        monkeypatch.setattr(
            AuditService, "_execute", lambda self, job: dict(FAST_RESULT)
        )
        service.start()
        try:
            service.submit(_job("doomed"))
            _wait(
                lambda: service.record("doomed").state is JobState.QUARANTINED,
                message="poison quarantine",
            )
            assert service.metrics.counter("chaos.worker_poison") >= 3
            assert service.metrics.counter("chaos.faults_injected") >= 3
            assert "WorkerCrashError" in (service.record("doomed").reason or "")
        finally:
            service.stop()

    def test_worker_stall_sleeps_then_completes(self, tmp_path, monkeypatch):
        chaos = ChaosConfig.parse("worker-stall=1.0,worker-stall-seconds=0.05,seed=3")
        service = _service(tmp_path, chaos=chaos)
        monkeypatch.setattr(
            AuditService, "_execute", lambda self, job: dict(FAST_RESULT)
        )
        service.start()
        try:
            service.submit(_job("slowpoke"))
            _wait(
                lambda: service.record("slowpoke").state is JobState.DONE,
                message="stalled job completion",
            )
            assert service.metrics.counter("chaos.worker_stall") >= 1
        finally:
            service.stop()


# ------------------------------------------------------- disk chaos end-to-end


class TestDiskChaosEndToEnd:
    def test_fsync_storm_degrades_then_recovers(self, tmp_path, monkeypatch):
        # Roughly half of all journal fsyncs fail: submits bounce between
        # accepted and degraded-rejected, but the service always wins the
        # disk back and every acknowledged job reaches a terminal state.
        chaos = ChaosConfig.parse("disk-fsync=0.5,seed=1")
        service = _service(tmp_path, chaos=chaos)
        monkeypatch.setattr(
            AuditService, "_execute", lambda self, job: dict(FAST_RESULT)
        )
        service.start()
        try:
            acknowledged = []
            rejected = 0
            for index in range(12):
                deadline = time.monotonic() + 30
                while True:
                    assert time.monotonic() < deadline
                    try:
                        record = service.submit(_job(f"storm-{index}"))
                    except JobRejectedError as exc:
                        assert exc.reason == "degraded"
                        rejected += 1
                        time.sleep(0.02)
                        continue
                    acknowledged.append(record.job.id)
                    break
            assert rejected > 0, "chaos at 50% never rejected a submit"
            _wait(lambda: service.state == "HEALTHY", message="final recovery")
            for job_id in acknowledged:
                _wait(
                    lambda job_id=job_id: service.record(job_id).state
                    is JobState.DONE,
                    message=f"completion of {job_id}",
                )
            assert service.metrics.counter("chaos.disk_fsync") >= 1
            assert service.metrics.counter("service.degraded_recoveries") >= 1
        finally:
            service.stop()

    def test_acknowledged_jobs_survive_restart_during_chaos(
        self, tmp_path, monkeypatch
    ):
        chaos = ChaosConfig.parse("disk-fsync=0.3,seed=7")
        service = _service(tmp_path, chaos=chaos)
        monkeypatch.setattr(
            AuditService, "_execute", lambda self, job: dict(FAST_RESULT)
        )
        service.start()
        acknowledged = []
        try:
            for index in range(8):
                try:
                    record = service.submit(_job(f"r-{index}"))
                except JobRejectedError:
                    _wait(lambda: service.state == "HEALTHY", message="recovery")
                    continue
                acknowledged.append(record.job.id)
        finally:
            service.stop()
        # A clean restart (no chaos) must replay every acknowledged job.
        service2 = _service(tmp_path)
        service2.start()
        try:
            replayed = {r["id"] for r in service2.jobs_snapshot()}
            for job_id in acknowledged:
                assert job_id in replayed, f"acknowledged {job_id} lost on replay"
            assert service2.drain(timeout=30)
        finally:
            service2.stop()


# --------------------------------------------------------- healthz + metrics


class TestObservability:
    def test_healthz_reports_state_reasons_since_and_chaos(self, tmp_path):
        chaos = ChaosConfig.parse("disk-fsync=0.25,seed=11")
        service = _service(tmp_path, chaos=chaos)
        service.start()
        try:
            status, payload = dispatch(service, "GET", "/v1/healthz", b"")
            assert status == 200
            assert payload["state"] == "HEALTHY"
            assert payload["status"] == "ok"
            assert payload["degraded_reasons"] == []
            assert isinstance(payload["since"], float)
            assert payload["chaos"]["seed"] == 11
            assert payload["chaos"]["disk"]["fsync"] == 0.25
        finally:
            service.stop()

    def test_healthz_has_no_chaos_key_without_chaos(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            assert "chaos" not in service.health()
        finally:
            service.stop()

    def test_metrics_export_chaos_and_degradation_counters(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            service.enter_degraded("injected")
            _wait(lambda: service.state == "HEALTHY", message="probe recovery")
            status, payload = dispatch(service, "GET", "/v1/metrics", b"")
            assert status == 200
            counters = payload["counters"]
            assert counters["service.degraded_seconds"] > 0
            assert counters["service.degraded_recoveries"] == 1
        finally:
            service.stop()

    def test_draining_state_reported_during_shutdown(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            service.request_shutdown()
            assert service.state == "DRAINING"
            assert service.health()["state"] == "DRAINING"
            assert service.health()["status"] == "draining"
        finally:
            service.stop()


# ------------------------------------------------- HTTP deadlines + net chaos


def _recv_all(sock: socket.socket, timeout: float = 10.0) -> bytes:
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except (TimeoutError, ConnectionError, OSError):
        pass
    return b"".join(chunks)


class TestRequestDeadline:
    """Satellite 2: slow-loris peers get 408 and the socket back."""

    def _start(self, tmp_path, **overrides):
        service = _service(tmp_path, port=0, **overrides)
        service.start()
        return service

    def test_stalled_head_gets_408(self, tmp_path):
        service = self._start(tmp_path, request_timeout=0.3)
        try:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                # A head that never finishes: no terminating blank line.
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
                response = _recv_all(sock)
            assert response.startswith(b"HTTP/1.1 408 ")
            assert b"request timed out" in response
            assert service.metrics.counter("service.request_timeouts") >= 1
        finally:
            service.stop()

    def test_stalled_body_gets_408(self, tmp_path):
        service = self._start(tmp_path, request_timeout=0.3)
        try:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"id": "tri'  # trickle a prefix, then stall
                )
                response = _recv_all(sock)
            assert response.startswith(b"HTTP/1.1 408 ")
        finally:
            service.stop()

    def test_fast_requests_unaffected_by_deadline(self, tmp_path):
        service = self._start(tmp_path, request_timeout=0.5)
        try:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                response = _recv_all(sock)
            assert response.startswith(b"HTTP/1.1 200 ")
        finally:
            service.stop()


class TestConnectionLevelReplies:
    """Replies the connection sends itself carry the error envelope, and a
    bad head closes only its own connection."""

    @pytest.mark.parametrize(
        "request_bytes, status, code",
        [
            (b"NONSENSE\r\n\r\n", 400, "bad_request"),
            (
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
                400,
                "bad_request",
            ),
            (
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
                400,
                "bad_request",
            ),
            (
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 67108865\r\n\r\n",
                413,
                "body_too_large",
            ),
            (b"GET /v1/healthz HTTP/1.1\r\n", 408, "request_timeout"),
        ],
        ids=["bad-request-line", "length-abc", "length-negative", "too-large", "stall"],
    )
    def test_refused_request_gets_the_envelope(
        self, tmp_path, request_bytes, status, code
    ):
        service = _service(tmp_path, port=0, request_timeout=0.3)
        service.start()
        try:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(request_bytes)
                response = _recv_all(sock)
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert json.loads(body)["error"]["code"] == code
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert _recv_all(sock).startswith(b"HTTP/1.1 200 ")
        finally:
            service.stop()


class TestNetChaos:
    def _start(self, tmp_path, spec: str):
        service = _service(tmp_path, port=0, chaos=ChaosConfig.parse(spec))
        service.start()
        return service

    def test_truncated_response_declares_full_length(self, tmp_path):
        service = self._start(tmp_path, "net-truncate=1.0,seed=5")
        try:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                response = _recv_all(sock)
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            declared = next(
                int(line.split(b":")[1])
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
            assert 0 < len(body) < declared
            assert service.metrics.counter("chaos.net_truncate") >= 1
        finally:
            service.stop()

    def test_reset_mid_body_drops_the_connection(self, tmp_path):
        service = self._start(tmp_path, "net-reset=1.0,seed=5")
        try:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                response = _recv_all(sock)
            # Partial bytes at most; the service itself processed the
            # request fine (faults strike after dispatch).
            assert b"\"state\"" not in response or len(response) < 512
            assert service.metrics.counter("chaos.net_reset") >= 1
            assert service.state == "HEALTHY"
        finally:
            service.stop()

    def test_close_churn_forces_reconnect_but_loses_nothing(self, tmp_path):
        service = self._start(tmp_path, "net-close=1.0,seed=5")
        try:
            host, port = service.address
            for _ in range(3):
                with socket.create_connection((host, port), timeout=10) as sock:
                    sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                    response = _recv_all(sock)
                assert response.startswith(b"HTTP/1.1 200 ")
                assert b"Connection: close" in response
            assert service.metrics.counter("chaos.net_close") >= 3
        finally:
            service.stop()

    def test_submit_lost_to_reset_is_still_journaled(self, tmp_path, monkeypatch):
        # The at-least-once shape: the client never hears its 202, but the
        # service journaled the job — the retry collapses to duplicate_id.
        monkeypatch.setattr(
            AuditService, "_execute", lambda self, job: dict(FAST_RESULT)
        )
        service = self._start(tmp_path, "net-reset=1.0,seed=5")
        try:
            host, port = service.address
            body = json.dumps(_job("ghosted").to_dict()).encode()
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                _recv_all(sock)
            _wait(
                lambda: "ghosted" in {r["id"] for r in service.jobs_snapshot()},
                message="journaled despite reset",
            )
            with pytest.raises(JobRejectedError) as excinfo:
                service.submit(_job("ghosted"))
            assert excinfo.value.reason == "duplicate_id"
        finally:
            service.stop()
