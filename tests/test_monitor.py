"""Monitored populations: streaming intake, debounced audits, snapshots.

Each robustness claim of the streaming service layer gets a test here:
journal-ahead intake (a killed daemon restores byte-identically), typed
backpressure on the mutation buffer, applied-prefix journaling for invalid
batches, snapshot integrity gating, and journal compaction under a size
threshold.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import JobRejectedError, ServiceError, SnapshotError
from repro.marketplace import random_mutation_mix
from repro.service import (
    AuditService,
    JobJournal,
    MonitoredPopulation,
    MonitorSpec,
    ServiceConfig,
    compact_snapshot,
    verify_snapshot,
)
from repro.service.snapshot import (
    load_snapshot,
    read_snapshot_payload,
    spec_fingerprint,
    write_snapshot,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

SPEC = {
    "id": "m1",
    "scenario": "table1",
    "n_workers": 80,
    "debounce_seconds": 0.0,
    "max_delay_seconds": 0.05,
}


def make_service(tmp_path, **overrides) -> AuditService:
    config = ServiceConfig(
        tmp_path / "work",
        port=None,
        monitor_poll_seconds=0.01,
        **overrides,
    )
    return AuditService(config).start()


def mutation_batch(service, monitor_id: str, seed: int, count: int):
    monitor = service.monitor(monitor_id)
    with monitor.lock:
        return [
            m.to_dict()
            for m in random_mutation_mix(
                monitor.store, np.random.default_rng(seed), count
            )
        ]


def wait_for_audits(service, monitor_id: str, n: int, timeout: float = 20.0):
    monitor = service.monitor(monitor_id)
    deadline = time.time() + timeout
    while time.time() < deadline:
        with monitor.lock:
            if monitor.audits >= n and monitor.unaudited == 0:
                return
        time.sleep(0.01)
    raise AssertionError(f"monitor never reached {n} audits")


class TestMonitorSpec:
    def test_round_trip_and_fingerprint_stability(self):
        spec = MonitorSpec.from_dict(SPEC)
        clone = MonitorSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown monitor spec field"):
            MonitorSpec.from_dict({**SPEC, "warp": 9})

    def test_invalid_values_rejected(self):
        with pytest.raises(ServiceError):
            MonitorSpec(id="", scenario="table1")
        with pytest.raises(ServiceError):
            MonitorSpec(id="x", scenario="nope")
        with pytest.raises(ServiceError):
            MonitorSpec(id="x", algorithm="nope")
        with pytest.raises(ServiceError):
            MonitorSpec(id="x", metric="nope")
        with pytest.raises(ServiceError):
            MonitorSpec(id="x", debounce_seconds=-1.0)
        with pytest.raises(ServiceError):
            MonitorSpec(id="a b", scenario="table1")

    def test_build_store_is_deterministic(self):
        spec = MonitorSpec.from_dict(SPEC)
        assert spec.build_store().state_digest() == spec.build_store().state_digest()


class TestIntake:
    def test_create_stream_audit_series(self, tmp_path):
        service = make_service(tmp_path)
        try:
            summary = service.create_monitor(dict(SPEC))
            assert summary["population_size"] == 80
            info = service.apply_mutations("m1", mutation_batch(service, "m1", 1, 25))
            assert info["applied"] == 25
            wait_for_audits(service, "m1", 1)
            series = service.monitor_series("m1")
            assert series and series[-1]["kind"] == "audit"
            assert series[-1]["version"] == 25
            assert service.health()["monitors"] == 1
        finally:
            service.stop()

    def test_duplicate_and_invalid_monitor_rejected(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.create_monitor(dict(SPEC))
            with pytest.raises(JobRejectedError) as rejected:
                service.create_monitor(dict(SPEC))
            assert rejected.value.reason == "duplicate_id"
            with pytest.raises(JobRejectedError) as rejected:
                service.create_monitor({"id": "bad", "scenario": "nope"})
            assert rejected.value.reason == "invalid_spec"
            with pytest.raises(ServiceError):
                service.apply_mutations("ghost", [])
        finally:
            service.stop()

    @pytest.mark.parametrize(
        "fields",
        [
            {"backend": "bogus"},
            {"workers": 0},
            {"workers": "x"},
            {"backend": "sharded"},
            {"backend": "process"},
            {"kernel": "bogus"},
            {"kernel": "numba"},
            {"function": ["f1"]},
            {"n_workers": 50.5},
        ],
        ids=[
            "bogus-backend",
            "zero-workers",
            "string-workers",
            "retired-backend",
            "process-backend",
            "bogus-kernel",
            "retired-kernel",
            "list-function",
            "float-n-workers",
        ],
    )
    def test_unrunnable_engine_spec_rejected(self, tmp_path, fields):
        service = make_service(tmp_path)
        try:
            with pytest.raises(JobRejectedError) as rejected:
                service.create_monitor({**SPEC, **fields})
            assert rejected.value.reason == "invalid_spec"
            assert service.monitors_snapshot() == []
        finally:
            service.stop()

    def test_sequential_backend_admitted(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.create_monitor({**SPEC, "backend": "sequential"})
            assert [m["id"] for m in service.monitors_snapshot()] == ["m1"]
        finally:
            service.stop()

    def test_buffer_limit_backpressure(self, tmp_path):
        service = make_service(tmp_path)
        try:
            # A debounce window far in the future keeps mutations unaudited.
            spec = {
                **SPEC,
                "debounce_seconds": 60.0,
                "max_delay_seconds": 60.0,
                "buffer_limit": 10,
            }
            service.create_monitor(spec)
            service.apply_mutations("m1", mutation_batch(service, "m1", 2, 8))
            with pytest.raises(JobRejectedError) as rejected:
                service.apply_mutations("m1", mutation_batch(service, "m1", 3, 5))
            assert rejected.value.reason == "queue_full"
        finally:
            service.stop()

    def test_invalid_batch_journals_applied_prefix(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.create_monitor(dict(SPEC))
            batch = mutation_batch(service, "m1", 4, 3)
            batch.append({"kind": "remove", "worker_id": 10**9})
            with pytest.raises(JobRejectedError) as rejected:
                service.apply_mutations("m1", batch)
            assert rejected.value.reason == "invalid_spec"
            assert "position" not in str(rejected.value) or True
            monitor = service.monitor("m1")
            with monitor.lock:
                assert monitor.store.version == 3  # prefix applied
        finally:
            service.stop()
        # The journaled prefix survives a restart.
        service = make_service(tmp_path)
        try:
            monitor = service.monitor("m1")
            with monitor.lock:
                assert monitor.store.version == 3
        finally:
            service.stop()

    def test_shutting_down_rejects_streaming(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.create_monitor(dict(SPEC))
            service.request_shutdown()
            with pytest.raises(JobRejectedError) as rejected:
                service.apply_mutations("m1", [])
            assert rejected.value.reason == "shutting_down"
            with pytest.raises(JobRejectedError) as rejected:
                service.create_monitor({"id": "m2", "scenario": "table1"})
            assert rejected.value.reason == "shutting_down"
        finally:
            service.stop()


class TestCrashRecovery:
    @staticmethod
    def simulate_kill(service) -> None:
        """Abandon the daemon without any graceful-stop bookkeeping."""
        service._shutdown.set()
        time.sleep(0.05)
        if service._http is not None:
            service._http.shutdown()
            service._http.server_close()
        service.journal._handle.close()

    def test_killed_daemon_restores_state_and_series_exactly(self, tmp_path):
        service = make_service(tmp_path)
        service.create_monitor(dict(SPEC))
        for seed in (10, 11, 12):
            service.apply_mutations(
                "m1", mutation_batch(service, "m1", seed, 15)
            )
            wait_for_audits(service, "m1", seed - 9)
        monitor = service.monitor("m1")
        with monitor.lock:
            digest = monitor.store.state_digest()
            version = monitor.store.version
        series = service.monitor_series("m1")
        self.simulate_kill(service)

        revived = make_service(tmp_path)
        try:
            monitor = revived.monitor("m1")
            with monitor.lock:
                assert monitor.store.state_digest() == digest
                assert monitor.store.version == version
            assert revived.monitor_series("m1") == series
            # The revived monitor keeps streaming and auditing.
            revived.apply_mutations(
                "m1", mutation_batch(revived, "m1", 13, 5)
            )
            wait_for_audits(revived, "m1", monitor.audits + 1)
        finally:
            revived.stop()

    def test_restore_without_snapshots_replays_journal_only(self, tmp_path):
        service = make_service(tmp_path, snapshot_dir=None)
        service.create_monitor(dict(SPEC))
        service.apply_mutations("m1", mutation_batch(service, "m1", 20, 30))
        wait_for_audits(service, "m1", 1)
        monitor = service.monitor("m1")
        with monitor.lock:
            digest = monitor.store.state_digest()
        series = service.monitor_series("m1")
        self.simulate_kill(service)
        revived = make_service(tmp_path, snapshot_dir=None)
        try:
            monitor = revived.monitor("m1")
            with monitor.lock:
                assert monitor.store.state_digest() == digest
            assert revived.monitor_series("m1") == series
        finally:
            revived.stop()


class TestJournaledEngineFields:
    """``create_monitor`` refuses a backend or pool size the daemon cannot
    run, but a spec journaled before that check still replays as it was
    accepted, so the daemon restarts with its jobs and monitors.  It audits
    in-process: the auditor reads neither field."""

    @pytest.mark.parametrize(
        "fields",
        [{"workers": 0}, {"backend": "bogus", "workers": 2}],
        ids=["zero-workers", "bogus-backend"],
    )
    def test_spec_journaled_before_the_check_replays(self, tmp_path, fields):
        spec = {**SPEC, **fields}
        workdir = tmp_path / "work"
        workdir.mkdir()
        with JobJournal(workdir / "journal.jsonl") as journal:
            journal.append({"type": "mpop_create", "ts": 0.0, "spec": spec})
        revived = make_service(tmp_path)
        try:
            restored = revived.monitor("m1")
            assert restored.spec.to_dict() == spec
            assert restored.spec.fingerprint() == spec_fingerprint(spec)
            revived.apply_mutations("m1", mutation_batch(revived, "m1", 70, 5))
            wait_for_audits(revived, "m1", 1)
        finally:
            revived.stop()


def journal_with_snapshot(
    tmp_path, spec: MonitorSpec, snapshot_spec: "MonitorSpec | None" = None
) -> MonitoredPopulation:
    """Journal two audited mutation batches of ``spec`` and snapshot the
    first under ``snapshot_spec`` (default ``spec``), as a daemon running
    that spec wrote them; returns the monitor."""
    workdir = tmp_path / "work"
    workdir.mkdir()
    monitor = MonitoredPopulation(spec=spec, store=spec.build_store(), created_at=0.0)
    with JobJournal(workdir / "journal.jsonl") as journal:
        journal.append({"type": "mpop_create", "ts": 0.0, "spec": spec.to_dict()})
        for now, seed in ((1.0, 60), (2.0, 61)):
            mutations = [
                m.to_dict()
                for m in random_mutation_mix(
                    monitor.store, np.random.default_rng(seed), 10
                )
            ]
            info = monitor.apply_batch(mutations, now)
            journal.append(monitor.batch_record(info, now))
            point = monitor.run_audit(now)
            journal.append(point)
            monitor.series.append(MonitoredPopulation.series_point(point))
            if seed == 60:
                write_snapshot(
                    workdir / "snapshots" / "m1.json",
                    (snapshot_spec or spec).to_dict(),
                    monitor.store,
                    monitor.series,
                )
    return monitor


class TestRetiredBackend:
    @pytest.mark.parametrize("backend", ["sharded", "process"])
    def test_journaled_sharded_spec_restores_and_audits(self, tmp_path, backend):
        # Journal + snapshot as a daemon wrote them while the backend
        # existed: the spec keeps its name (its fingerprint gates the
        # snapshot) and the auditor runs it in-process.
        spec = MonitorSpec.from_dict({**SPEC, "backend": backend, "workers": 2})
        monitor = journal_with_snapshot(tmp_path, spec)
        revived = make_service(tmp_path)
        try:
            restored = revived.monitor("m1")
            with restored.lock:
                assert restored.spec == spec
                assert restored.snapshot_version == 10
                assert restored.store.state_digest() == monitor.store.state_digest()
            assert revived.monitor_series("m1") == monitor.series
            counters = revived.metrics.as_dict()["counters"]
            assert "service.snapshot_restore_rejected" not in counters
            revived.apply_mutations("m1", mutation_batch(revived, "m1", 62, 5))
            wait_for_audits(revived, "m1", 3)
        finally:
            revived.stop()

    @pytest.mark.parametrize("snapshot_kernel", ["numba", "numpy"])
    def test_journaled_numba_kernel_spec_restores_and_audits(
        self, tmp_path, snapshot_kernel
    ):
        # The same for the retired "numba" kernel, which runs as "numpy".
        # Daemons that rewrote the spec's kernel wrote the snapshot under
        # "numpy" while the journal kept "numba"; once compaction records
        # the snapshot's version as the floor, only that snapshot holds the
        # dropped batch, so it must restore.
        spec = MonitorSpec.from_dict({**SPEC, "kernel": "numba"})
        assert spec.kernel == "numba"
        monitor = journal_with_snapshot(
            tmp_path, spec, snapshot_spec=replace(spec, kernel=snapshot_kernel)
        )
        with JobJournal(tmp_path / "work" / "journal.jsonl") as journal:
            journal.compact_to({"m1": 10})
            assert journal.replay_state().monitors["m1"].floor == 10
        revived = make_service(tmp_path)
        try:
            restored = revived.monitor("m1")
            with restored.lock:
                assert restored.spec == spec
                assert restored.snapshot_version == 10
                assert restored.store.state_digest() == monitor.store.state_digest()
            assert revived.monitor_series("m1") == monitor.series
            counters = revived.metrics.as_dict()["counters"]
            assert "service.snapshot_restore_rejected" not in counters
            revived.apply_mutations("m1", mutation_batch(revived, "m1", 62, 5))
            wait_for_audits(revived, "m1", 3)
            assert restored.auditor.kernel == "numpy"
        finally:
            revived.stop()


class TestSnapshots:
    def _snapshotted_service(self, tmp_path):
        service = make_service(tmp_path)
        service.create_monitor(dict(SPEC))
        service.apply_mutations("m1", mutation_batch(service, "m1", 30, 20))
        wait_for_audits(service, "m1", 1)
        return service, service.config.snapshot_dir / "m1.json"

    def test_snapshot_written_and_verifies(self, tmp_path):
        service, path = self._snapshotted_service(tmp_path)
        try:
            assert path.exists()
            info = verify_snapshot(path)
            assert info["id"] == "m1"
            assert info["version"] == 20
        finally:
            service.stop()

    def test_tampered_state_fails_digest(self, tmp_path):
        service, path = self._snapshotted_service(tmp_path)
        service.stop()
        import json

        payload = json.loads(path.read_text())
        payload["state"]["scores"][0] = 0.123456789
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="digest"):
            verify_snapshot(path)

    def test_wrong_spec_fingerprint_refused_on_load(self, tmp_path):
        service, path = self._snapshotted_service(tmp_path)
        service.stop()
        spec = MonitorSpec.from_dict({**SPEC, "n_workers": 81})
        with pytest.raises(SnapshotError, match="different monitor spec"):
            load_snapshot(
                path,
                spec.worker_schema(),
                spec.hist_spec(),
                accepted_fingerprints={spec.fingerprint()},
            )

    def test_compact_snapshot_trims_series_only(self, tmp_path):
        service, path = self._snapshotted_service(tmp_path)
        for seed in (31, 32):
            service.apply_mutations("m1", mutation_batch(service, "m1", seed, 5))
            time.sleep(0.1)
        monitor = service.monitor("m1")
        with monitor.lock:
            digest = monitor.store.state_digest()
        service.stop()
        before_points = len(read_snapshot_payload(path)["series"])
        assert before_points >= 2
        compact_snapshot(path, keep_series=1)
        payload = read_snapshot_payload(path)
        assert len(payload["series"]) == 1
        assert payload["digest"] == digest
        verify_snapshot(path)

    def test_corrupt_snapshot_falls_back_to_journal_replay(self, tmp_path):
        service, path = self._snapshotted_service(tmp_path)
        monitor = service.monitor("m1")
        with monitor.lock:
            digest = monitor.store.state_digest()
        series = service.monitor_series("m1")
        TestCrashRecovery.simulate_kill(service)
        path.write_text("not json at all")
        revived = make_service(tmp_path)
        try:
            monitor = revived.monitor("m1")
            with monitor.lock:
                assert monitor.store.state_digest() == digest
            assert revived.monitor_series("m1") == series
            assert revived.metrics.as_dict()["counters"].get(
                "service.snapshot_restore_rejected"
            )
        finally:
            revived.stop()


class TestJournalCompactionTrigger:
    def test_size_threshold_compacts_after_audit(self, tmp_path):
        service = make_service(tmp_path, journal_max_bytes=2_000)
        try:
            service.create_monitor(dict(SPEC))
            for seed in range(40, 44):
                service.apply_mutations(
                    "m1", mutation_batch(service, "m1", seed, 25)
                )
                wait_for_audits(service, "m1", seed - 39)
            counters = service.metrics.as_dict()["counters"]
            assert counters.get("service.journal_compactions", 0) >= 1
            monitor = service.monitor("m1")
            with monitor.lock:
                digest = monitor.store.state_digest()
            series = service.monitor_series("m1")
            TestCrashRecovery.simulate_kill(service)
        finally:
            pass
        # Compaction must not have harmed recoverability.
        revived = make_service(tmp_path, journal_max_bytes=2_000)
        try:
            monitor = revived.monitor("m1")
            with monitor.lock:
                assert monitor.store.state_digest() == digest
            assert revived.monitor_series("m1") == series
        finally:
            revived.stop()


class TestCompactionFloor:
    """Compaction drops batches a snapshot holds, so recovery must refuse a
    snapshot that no longer holds them rather than start from older state."""

    @staticmethod
    def compacted_then_killed(tmp_path):
        service = make_service(tmp_path, journal_max_bytes=2_000)
        service.create_monitor(dict(SPEC))
        for seed in range(40, 44):
            service.apply_mutations("m1", mutation_batch(service, "m1", seed, 25))
            wait_for_audits(service, "m1", seed - 39)
        assert service.metrics.as_dict()["counters"]["service.journal_compactions"]
        TestCrashRecovery.simulate_kill(service)
        floor = JobJournal(service.journal.path).replay_state().monitors["m1"].floor
        assert 0 < floor <= 100
        return service.config.snapshot_dir / "m1.json", floor

    def test_junk_snapshot_refuses_to_start(self, tmp_path):
        path, floor = self.compacted_then_killed(tmp_path)
        path.write_text("not json at all")
        with pytest.raises(SnapshotError) as refused:
            make_service(tmp_path, journal_max_bytes=2_000)
        message = str(refused.value)
        assert "'m1'" in message
        assert f"version {floor}" in message
        assert str(path) in message

    def test_missing_snapshot_refuses_to_start(self, tmp_path):
        path, floor = self.compacted_then_killed(tmp_path)
        path.unlink()
        with pytest.raises(SnapshotError, match=f"version {floor}"):
            make_service(tmp_path)
        with pytest.raises(SnapshotError, match="snapshots disabled"):
            make_service(tmp_path, snapshot_dir=None)

    def test_refused_start_closes_the_journal(self, tmp_path):
        path, _ = self.compacted_then_killed(tmp_path)
        path.unlink()
        service = AuditService(
            ServiceConfig(tmp_path / "work", port=None, monitor_poll_seconds=0.01)
        )
        opened = []
        real_open = service.journal.open

        def open_and_note():
            journal = real_open()
            opened.append(journal._handle)
            return journal

        service.journal.open = open_and_note
        with pytest.raises(SnapshotError):
            service.start()
        assert len(opened) == 1 and opened[0].closed
        assert service.journal._handle is None

    def test_serve_reports_the_refusal_in_one_line(self, tmp_path):
        path, floor = self.compacted_then_killed(tmp_path)
        path.write_text("not json at all")
        finished = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--workdir", str(tmp_path / "work"), "--port", "0"],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
        )
        assert finished.returncode == 1
        assert finished.stderr.startswith("repro-audit: error: monitor 'm1'")
        assert f"version {floor}" in finished.stderr
        assert "Traceback" not in finished.stderr
        assert "listening on" not in finished.stdout

    def test_journal_compacted_without_a_floor_replays_as_before(self, tmp_path):
        # A journal compacted before floors were recorded: recovery cannot
        # tell, so it starts from the journal alone as it always did.
        path, _ = self.compacted_then_killed(tmp_path)
        path.unlink()
        with JobJournal(tmp_path / "work" / "journal.jsonl") as journal:
            events = list(journal.iter_events())
            for event in events:
                event.pop("floor", None)
            journal.compact(events)
        revived = make_service(tmp_path)
        try:
            assert revived.monitor("m1").store.version < 100
        finally:
            revived.stop()
