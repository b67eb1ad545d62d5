"""The audit daemon: backpressure, quarantine, deadlines, drain, SIGKILL.

Two layers of tests:

* **in-process** — an :class:`AuditService` with a monkeypatched executor
  pins down queue accounting, typed rejections, the retry/quarantine loop
  and graceful drain without real searches;
* **subprocess drills** — a real ``repro-audit serve`` daemon is SIGKILL'd
  mid-job and restarted (the journal must re-queue and the re-run must be
  byte-identical), and SIGTERM'd mid-queue (it must drain in-flight work,
  leave queued jobs PENDING and exit 0).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib
from pathlib import Path

import pytest

from repro.exceptions import JobRejectedError, JobStateError, ServiceError
from repro.service import (
    AuditJob,
    AuditService,
    JobJournal,
    JobState,
    ServiceConfig,
)
from repro.service.http import dispatch
from repro.service.jobs import TERMINAL_STATES, JobRecord, check_transition
from repro.service.monitor import MonitorSpec

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _job(job_id: str, **overrides) -> AuditJob:
    spec = {"id": job_id, "scenario": "figure1", "algorithm": "balanced"}
    spec.update(overrides)
    return AuditJob(**spec)


@pytest.fixture()
def service(tmp_path):
    svc = AuditService(
        ServiceConfig(tmp_path, queue_limit=2, workers=1, port=None)
    )
    svc.start()
    yield svc
    svc.stop()


class TestStateMachine:
    def test_legal_lifecycle(self):
        check_transition(JobState.PENDING, JobState.RUNNING)
        check_transition(JobState.RUNNING, JobState.DONE)
        check_transition(JobState.RUNNING, JobState.PENDING)  # crash recovery
        check_transition(JobState.FAILED, JobState.QUARANTINED)

    def test_illegal_edges_raise(self):
        with pytest.raises(JobStateError):
            check_transition(JobState.DONE, JobState.RUNNING)
        with pytest.raises(JobStateError):
            check_transition(JobState.PENDING, JobState.DONE)
        with pytest.raises(JobStateError):
            check_transition(JobState.QUARANTINED, JobState.PENDING)

    def test_terminal_states_have_no_exits(self):
        from repro.service.jobs import VALID_TRANSITIONS

        for state in TERMINAL_STATES:
            assert not VALID_TRANSITIONS[state]


class TestJobSpec:
    def test_round_trip(self):
        job = _job("a1", functions=("f",), deadline_seconds=2.5, priority=-1)
        assert AuditJob.from_dict(job.to_dict()) == job

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown"):
            AuditJob.from_dict({"id": "a", "scenario": "figure1", "nope": 1})

    @pytest.mark.parametrize(
        "spec",
        [
            {"id": "bad id!", "scenario": "figure1"},
            {"id": "../escape", "scenario": "figure1"},
            {"id": "a", "scenario": "not-a-scenario"},
            {"id": "a", "scenario": "figure1", "deadline_seconds": 0},
            {"id": "a", "scenario": "figure1", "max_attempts": 0},
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ServiceError):
            AuditJob.from_dict(spec)


class TestBackpressure:
    def test_full_queue_rejects_with_typed_reason(self, service, monkeypatch):
        release = threading.Event()

        def blocked(self, job):
            release.wait(30)
            return {"scenario": "figure1-toy", "rows": [], "deadline_hit": False}

        monkeypatch.setattr(AuditService, "_execute", blocked)
        service.submit(_job("running"))  # taken by the single worker
        deadline = time.monotonic() + 5
        while service.health()["running"] == 0:
            assert time.monotonic() < deadline, "worker never started the job"
            time.sleep(0.01)
        service.submit(_job("queued-1"))
        service.submit(_job("queued-2"))
        with pytest.raises(JobRejectedError) as excinfo:
            service.submit(_job("overflow"))
        assert excinfo.value.reason == "queue_full"
        assert service.metrics.counter("service.rejected") == 1
        assert service.metrics.counter("service.rejected.queue_full") == 1
        # The rejected job was never journaled.
        assert "overflow" not in {r["id"] for r in service.jobs_snapshot()}
        release.set()
        assert service.drain(timeout=30)

    def test_duplicate_id_rejected(self, service):
        service.submit(_job("dup"))
        with pytest.raises(JobRejectedError) as excinfo:
            service.submit(_job("dup"))
        assert excinfo.value.reason == "duplicate_id"

    def test_invalid_spec_rejected(self, service):
        with pytest.raises(JobRejectedError) as excinfo:
            service.submit({"id": "x", "scenario": "bogus"})
        assert excinfo.value.reason == "invalid_spec"
        with pytest.raises(JobRejectedError) as excinfo:
            service.submit(_job("x", algorithm="no-such-algorithm"))
        assert excinfo.value.reason == "invalid_spec"

    def test_shutting_down_rejected(self, service):
        service.request_shutdown()
        with pytest.raises(JobRejectedError) as excinfo:
            service.submit(_job("late"))
        assert excinfo.value.reason == "shutting_down"


#: Spec fields the daemon cannot run: the engine would refuse them on every
#: attempt, or (a priority the scheduler cannot order, functions that are
#: not a list) the worker or the request would die.
UNRUNNABLE = [
    {"metric": "nope"},
    {"functions": ["nope"]},
    {"scenario": "table3", "functions": ["f1"]},
    {"functions": [["f"]]},
    {"priority": "high"},
    {"functions": None},
    {"functions": 5},
]
UNRUNNABLE_IDS = [
    "unknown-metric",
    "unknown-function",
    "other-scenarios-function",
    "unhashable-function",
    "non-integer-priority",
    "null-functions",
    "integer-functions",
]


def _spec(job_id: str, **fields) -> dict:
    """A job spec as a client posts it, ``fields`` set verbatim."""
    return {**_job(job_id).to_dict(), **fields}


class TestUnrunnableSpecs:
    """Intake rejects a spec the daemon cannot run; a job journaled before
    that check still replays and is quarantined."""

    @pytest.mark.parametrize("fields", UNRUNNABLE, ids=UNRUNNABLE_IDS)
    def test_post_v1_jobs_rejects_and_journals_nothing(self, service, fields):
        body = json.dumps(_spec("bad", **fields)).encode()
        status, payload = dispatch(service, "POST", "/v1/jobs", body)
        assert (status, payload["error"]["code"]) == (400, "invalid_spec")
        assert service.jobs_snapshot() == []
        assert "bad" not in service.journal.replay()

    def test_submit_many_reports_the_rejected_item(self, service):
        specs = [_job("ok").to_dict()] + [
            _spec(f"bad{i}", **fields) for i, fields in enumerate(UNRUNNABLE)
        ]
        results = service.submit_many(specs + [_job("ok2").to_dict()])
        assert isinstance(results[0], JobRecord)
        assert isinstance(results[-1], JobRecord)
        assert [r.reason for r in results[1:-1]] == ["invalid_spec"] * len(UNRUNNABLE)
        assert service.drain(timeout=60)
        snapshot = service.jobs_snapshot()
        assert sorted(r["id"] for r in snapshot) == ["ok", "ok2"]
        assert {r["state"] for r in snapshot} == {"DONE"}

    def test_non_object_specs_rejected(self, service):
        for route in ("/v1/jobs", "/v1/populations"):
            status, payload = dispatch(service, "POST", route, b"[1]")
            assert (status, payload["error"]["code"]) == (400, "invalid_spec"), route
        body = json.dumps({"jobs": [1, "x"]}).encode()
        status, payload = dispatch(service, "POST", "/v1/jobs/batch", body)
        assert status == 202
        codes = [item["error"]["code"] for item in payload["results"]]
        assert codes == ["invalid_spec", "invalid_spec"]

    @pytest.mark.parametrize("fields", UNRUNNABLE[:2], ids=UNRUNNABLE_IDS[:2])
    def test_journaled_job_replays_and_is_quarantined(self, tmp_path, fields):
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            journal.append_submit(_job("old", **fields), timestamp=100.0)
        with AuditService(ServiceConfig(tmp_path, workers=1, port=None)) as svc:
            assert svc.drain(timeout=60)
            record = svc.record("old")
        assert record.state is JobState.QUARANTINED
        assert record.reason.startswith("poison: failed 3 attempts")

    def test_function_names_match_the_scenario_builders(self):
        from repro.simulation.config import PaperConfig
        from repro.simulation.scenarios import (
            figure1_scenario,
            function_names,
            table1_scenario,
            table2_scenario,
            table3_scenario,
        )

        assert function_names("figure1") == tuple(figure1_scenario().functions)
        small = PaperConfig(n_workers=40)
        for name, builder in (
            ("table1", table1_scenario),
            ("table2", table2_scenario),
            ("table3", table3_scenario),
        ):
            assert function_names(name) == tuple(builder(small).functions)


class TestQuarantine:
    def test_poison_job_quarantined_after_max_attempts(self, service, monkeypatch):
        def explode(self, job):
            raise RuntimeError("poison payload")

        monkeypatch.setattr(AuditService, "_execute", explode)
        service.submit(_job("poison", max_attempts=3))
        assert service.drain(timeout=30)
        record = service.record("poison")
        assert record.state is JobState.QUARANTINED
        assert record.attempt == 3
        assert "poison payload" in record.reason
        assert service.metrics.counter("service.quarantined") == 1
        assert service.metrics.counter("service.retries") == 2
        assert service.metrics.counter("service.failed") == 3
        # The daemon survived: a fresh job still runs to completion.
        monkeypatch.undo()
        service.submit(_job("healthy"))
        assert service.drain(timeout=60)
        assert service.record("healthy").state is JobState.DONE

    def test_quarantine_is_durable(self, tmp_path, monkeypatch):
        config = ServiceConfig(tmp_path, workers=1, port=None)
        monkeypatch.setattr(
            AuditService,
            "_execute",
            lambda self, job: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with AuditService(config) as svc:
            svc.submit(_job("poison", max_attempts=2))
            assert svc.drain(timeout=30)
        jobs = JobJournal(tmp_path / "journal.jsonl").replay()
        assert jobs["poison"].state is JobState.QUARANTINED


class TestDeadlineJobs:
    def test_tiny_deadline_job_cancelled_with_partial_result(self, service):
        service.submit(_job("rushed", algorithm="exhaustive", deadline_seconds=1e-9))
        assert service.drain(timeout=60)
        record = service.record("rushed")
        assert record.state is JobState.CANCELLED
        assert record.reason == "deadline"
        assert record.result["deadline_hit"]
        assert all(row["deadline_hit"] for row in record.result["rows"])
        assert service.metrics.counter("service.cancelled") == 1

    def test_unbounded_job_done_with_rows(self, service):
        service.submit(_job("calm"))
        assert service.drain(timeout=60)
        record = service.record("calm")
        assert record.state is JobState.DONE
        assert record.result["rows"][0]["function"] == "f"
        assert not record.result["deadline_hit"]


class TestSearchLane:
    """Job searches run one at a time; memo hits and queue wait do not
    wait for them."""

    @staticmethod
    def gate_searches(monkeypatch, held=()):
        """Wrap ``run_scenario``: record how many searches overlap, and
        hold the searches of the job ids in ``held`` until released."""
        import repro.simulation.runner as runner

        real = runner.run_scenario
        state = {"active": 0, "most": 0}
        lock = threading.Lock()
        started = {job_id: threading.Event() for job_id in held}
        release = {job_id: threading.Event() for job_id in held}

        def run(*args, **kwargs):
            job_id = Path(kwargs["checkpoint"]).name
            with lock:
                state["active"] += 1
                state["most"] = max(state["most"], state["active"])
            try:
                if job_id in release:
                    started[job_id].set()
                    release[job_id].wait(30)
                else:
                    time.sleep(0.02)
                return real(*args, **kwargs)
            finally:
                with lock:
                    state["active"] -= 1

        monkeypatch.setattr(runner, "run_scenario", run)
        return state, started, release

    @staticmethod
    def two_workers(tmp_path):
        return AuditService(ServiceConfig(tmp_path, workers=2, port=None)).start()

    @staticmethod
    def wait_for(svc, job_id, state, timeout=30.0):
        stop = time.monotonic() + timeout
        while svc.record(job_id).state is not state:
            assert time.monotonic() < stop, svc.record(job_id).state
            time.sleep(0.01)

    def test_no_two_searches_overlap(self, tmp_path, monkeypatch):
        # More workers than cores, and frequent thread switches.
        state, _, _ = self.gate_searches(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc = AuditService(ServiceConfig(tmp_path, workers=3, port=None)).start()
        try:
            for seed in range(6):
                svc.submit(_job(f"j{seed}", seed=seed))
            assert svc.drain(timeout=60)
            for seed in range(6):
                assert svc.record(f"j{seed}").state is JobState.DONE
        finally:
            svc.stop()
            sys.setswitchinterval(interval)
        assert state["most"] == 1
        wait = svc.metrics.timing("service.search_lane_wait_seconds")
        assert wait is not None and wait.count == 6

    def test_memo_hit_finishes_while_a_search_holds_the_lane(
        self, tmp_path, monkeypatch
    ):
        _, started, release = self.gate_searches(monkeypatch, held=("blocker",))
        svc = self.two_workers(tmp_path)
        try:
            svc.submit(_job("first"))
            assert svc.drain(timeout=60)
            svc.submit(_job("blocker", seed=1))
            assert started["blocker"].wait(30)
            svc.submit(_job("repeat"))
            self.wait_for(svc, "repeat", JobState.DONE)
            assert svc.record("blocker").state is JobState.RUNNING
            assert svc.record("repeat").result == svc.record("first").result
            release["blocker"].set()
            assert svc.drain(timeout=60)
            assert svc.record("blocker").state is JobState.DONE
        finally:
            for event in release.values():
                event.set()
            svc.stop()

    def test_waiting_for_the_lane_does_not_consume_the_deadline(
        self, tmp_path, monkeypatch
    ):
        _, started, release = self.gate_searches(monkeypatch, held=("blocker",))
        svc = self.two_workers(tmp_path)
        try:
            svc.submit(_job("blocker", seed=1))
            assert started["blocker"].wait(30)
            svc.submit(_job("patient", seed=2, deadline_seconds=0.25))
            self.wait_for(svc, "patient", JobState.RUNNING)
            time.sleep(0.6)  # well past the deadline, still waiting
            assert svc.record("patient").state is JobState.RUNNING
            release["blocker"].set()
            assert svc.drain(timeout=60)
            record = svc.record("patient")
            assert record.state is JobState.DONE
            assert not record.result["deadline_hit"]
        finally:
            for event in release.values():
                event.set()
            svc.stop()
        wait = svc.metrics.timing("service.search_lane_wait_seconds")
        assert wait.max >= 0.5


class TestGracefulDrain:
    def test_inflight_finishes_and_queued_stays_pending(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def slow(self, job):
            started.set()
            release.wait(30)
            return {"scenario": "figure1-toy", "rows": [], "deadline_hit": False}

        monkeypatch.setattr(AuditService, "_execute", slow)
        svc = AuditService(
            ServiceConfig(tmp_path, queue_limit=4, workers=1, port=None)
        ).start()
        svc.submit(_job("inflight"))
        assert started.wait(5)
        svc.submit(_job("waiting"))
        svc.request_shutdown()
        release.set()
        svc.stop()
        jobs = JobJournal(tmp_path / "journal.jsonl").replay()
        assert jobs["inflight"].state is JobState.DONE
        assert jobs["waiting"].state is JobState.PENDING
        assert not any(j.state is JobState.RUNNING for j in jobs.values())

    def test_restart_resumes_queued_jobs(self, tmp_path):
        config = ServiceConfig(tmp_path, workers=1, port=None)
        with AuditService(config) as svc:
            svc.submit(_job("early"))
            assert svc.drain(timeout=60)
        # Simulate a job left PENDING by a drain: journal one directly.
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            journal.append_submit(_job("leftover"), timestamp=100.0)
        with AuditService(config) as svc:
            assert svc.drain(timeout=60)
            assert svc.record("leftover").state is JobState.DONE
            assert svc.record("early").state is JobState.DONE  # not re-run
            assert svc.record("early").attempt == 1


class TestHTTPEndpoints:
    @pytest.fixture()
    def http_service(self, tmp_path):
        svc = AuditService(
            ServiceConfig(tmp_path, queue_limit=2, workers=1, port=0)
        ).start()
        host, port = svc.address
        yield svc, f"http://{host}:{port}"
        svc.stop()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.load(response)

    def _post(self, url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)

    def test_healthz(self, http_service):
        _, base = http_service
        status, body = self._get(base + "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_submit_accepted_and_job_listed(self, http_service):
        svc, base = http_service
        status, body = self._post(base + "/v1/jobs", _job("h1").to_dict())
        assert (status, body["job"]["id"]) == (202, "h1")
        assert svc.drain(timeout=60)
        _, listing = self._get(base + "/v1/jobs")
        assert [j["state"] for j in listing["jobs"]] == ["DONE"]

    def test_submit_rejections_map_to_status_codes(self, http_service):
        svc, base = http_service
        self._post(base + "/v1/jobs", _job("h1").to_dict())
        status, body = self._post(base + "/v1/jobs", _job("h1").to_dict())
        assert (status, body["error"]["code"]) == (409, "duplicate_id")
        status, body = self._post(base + "/v1/jobs", {"id": "h2", "scenario": "no"})
        assert (status, body["error"]["code"]) == (400, "invalid_spec")
        svc.request_shutdown()
        status, body = self._post(base + "/v1/jobs", _job("h3").to_dict())
        assert (status, body["error"]["code"]) == (503, "shutting_down")

    def test_metrics_endpoint_serves_registry(self, http_service):
        svc, base = http_service
        svc.submit(_job("m1"))
        assert svc.drain(timeout=60)
        status, body = self._get(base + "/v1/metrics")
        assert status == 200
        assert body["counters"]["service.submitted"] == 1
        assert body["counters"]["service.completed"] == 1

    def test_unknown_path_404(self, http_service):
        _, base = http_service
        try:
            with urllib.request.urlopen(base + "/v1/nope", timeout=10) as response:
                status = response.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 404


class TestV1Api:
    """The versioned surface: envelope errors, and nothing outside ``/v1``."""

    @pytest.fixture()
    def http_service(self, tmp_path):
        svc = AuditService(
            ServiceConfig(tmp_path, queue_limit=2, workers=1, port=0)
        ).start()
        host, port = svc.address
        yield svc, f"http://{host}:{port}"
        svc.stop()

    def _get(self, url):
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, json.load(response), dict(response.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc), dict(exc.headers)

    def _post(self, url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.load(response), dict(response.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc), dict(exc.headers)

    def test_v1_routes_carry_no_deprecation_header(self, http_service):
        _, base = http_service
        for path in ("/v1/healthz", "/v1/metrics", "/v1/jobs"):
            status, _, headers = self._get(base + path)
            assert status == 200
            assert "Deprecation" not in headers, path

    def test_unversioned_paths_answer_404(self, http_service):
        svc, base = http_service
        svc.submit(_job("j0"))
        assert svc.drain(timeout=60)
        for path in (
            "/healthz", "/metrics", "/jobs", "/jobs/j0", "/populations", "/v1",
        ):
            status, body, headers = self._get(base + path)
            assert (status, body["error"]["code"]) == (404, "not_found"), path
            assert "Deprecation" not in headers, path
        for path in ("/submit", "/jobs", "/populations"):
            status, body, headers = self._post(base + path, _job("late").to_dict())
            assert (status, body["error"]["code"]) == (404, "not_found"), path
            assert "Deprecation" not in headers, path
        assert "late" not in {r["id"] for r in svc.jobs_snapshot()}

    def test_post_v1_jobs_returns_the_record(self, http_service):
        svc, base = http_service
        status, body, _ = self._post(base + "/v1/jobs", _job("j1").to_dict())
        assert status == 202
        assert body["job"]["id"] == "j1"
        assert body["job"]["kind"] == "audit"
        assert body["job"]["state"] == "PENDING"
        assert svc.drain(timeout=60)

    def test_get_v1_job_by_id(self, http_service):
        svc, base = http_service
        svc.submit(_job("j2"))
        assert svc.drain(timeout=60)
        status, body, _ = self._get(base + "/v1/jobs/j2")
        assert status == 200
        assert body["job"]["state"] == "DONE"
        assert body["job"]["result"]["rows"]

    def test_v1_errors_use_the_shared_envelope(self, http_service):
        svc, base = http_service
        self._post(base + "/v1/jobs", _job("dup").to_dict())
        status, body, _ = self._post(base + "/v1/jobs", _job("dup").to_dict())
        assert status == 409
        assert body["error"]["code"] == "duplicate_id"
        assert "dup" in body["error"]["message"]
        status, body, _ = self._post(
            base + "/v1/jobs", {"id": "bad", "scenario": "no-such"}
        )
        assert (status, body["error"]["code"]) == (400, "invalid_spec")
        status, body, _ = self._get(base + "/v1/jobs/missing")
        assert (status, body["error"]["code"]) == (404, "not_found")
        svc.request_shutdown()
        status, body, _ = self._post(base + "/v1/jobs", _job("late").to_dict())
        assert (status, body["error"]["code"]) == (503, "shutting_down")

    def test_malformed_json_body_is_invalid_spec(self, http_service):
        _, base = http_service
        request = urllib.request.Request(
            base + "/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"]["code"] == "invalid_spec"


class TestJobSchemaV2:
    def test_to_dict_carries_the_schema_tag(self):
        from repro.service import JOB_SCHEMA

        assert _job("s1").to_dict()["schema"] == JOB_SCHEMA

    def test_round_trip_preserves_mitigate_fields(self):
        job = _job(
            "s2", kind="mitigate", strategy="det_rerank", top_k=50,
            min_proportion=0.9, alpha=0.2, amount=0.5,
        )
        assert AuditJob.from_dict(job.to_dict()) == job

    def test_untagged_payload_is_legacy_v1_audit(self):
        # Journals written before the v2 schema carry no tag; they replay
        # as plain audit jobs.
        job = AuditJob.from_dict({"id": "old", "scenario": "figure1"})
        assert job.kind == "audit"

    def test_wrong_schema_tag_rejected(self):
        with pytest.raises(ServiceError, match="schema"):
            AuditJob.from_dict(
                {"id": "s3", "scenario": "figure1", "schema": "repro.job/v99"}
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "transmogrify"},
            {"kind": "mitigate", "strategy": "no-such-strategy"},
            {"kind": "mitigate", "top_k": 0},
            {"kind": "mitigate", "min_proportion": 0.0},
            {"kind": "mitigate", "alpha": 1.0},
            {"kind": "mitigate", "amount": 2.0},
        ],
    )
    def test_invalid_mitigate_specs_rejected(self, overrides):
        with pytest.raises(ServiceError):
            _job("bad", **overrides)

    def test_record_snapshot_reports_the_kind(self, service):
        service.submit(_job("k1", kind="mitigate", strategy="quantile"))
        assert service.drain(timeout=60)
        assert service.record("k1").as_dict()["kind"] == "mitigate"

    def test_journal_naming_retired_numba_kernel_replays(self, tmp_path):
        # A submit record exactly as older daemons journaled it: raw JSON
        # plus CRC32, naming the retired "numba" kernel backend.
        job = {
            "id": "legacy", "scenario": "figure1", "algorithm": "balanced",
            "functions": [], "seed": 0, "n_workers": None, "priority": 0,
            "deadline_seconds": None, "max_attempts": 3, "metric": "emd",
            "kind": "audit", "strategy": "fair_topk", "top_k": None,
            "min_proportion": 0.8, "alpha": 0.1, "amount": 1.0,
            "kernel": "numba", "tenant": "default", "schema": "repro.job/v2",
        }
        lines = []
        for record in (
            {"type": "header", "schema": "repro.journal/v1"},
            {"type": "submit", "ts": 0.0, "job": job},
        ):
            body = json.dumps(record, sort_keys=True, separators=(",", ":"))
            lines.append(json.dumps({"crc": zlib.crc32(body.encode()), "rec": record}))
        (tmp_path / "journal.jsonl").write_text("\n".join(lines) + "\n")

        replayed = JobJournal(tmp_path / "journal.jsonl").replay()["legacy"]
        assert replayed.job.kernel == "numpy"
        config = ServiceConfig(tmp_path, workers=1, port=None)
        with AuditService(config) as svc:
            assert svc.drain(timeout=60)
            legacy = svc.record("legacy")
        assert legacy.state is JobState.DONE
        assert legacy.result["rows"]
        # A monitor spec keeps the name: its fingerprint gates the snapshot.
        assert MonitorSpec(id="m", kernel="numba").kernel == "numba"


class TestMitigateJobs:
    def test_mitigate_job_end_to_end(self, service):
        service.submit(
            _job("m1", kind="mitigate", strategy="quantile", seed=3)
        )
        assert service.drain(timeout=60)
        record = service.record("m1")
        assert record.state is JobState.DONE
        result = record.result
        assert result["kind"] == "mitigate"
        assert not result["deadline_hit"]
        assert result["rows"], "mitigate job produced no rows"
        for row in result["rows"]:
            assert row["strategy"] == "quantile"
            assert row["unfairness_after"] < row["unfairness_before"]
            assert row["unfairness_before"] == pytest.approx(
                row["audit_unfairness"]
            )
            assert isinstance(row["ranking_digest"], int)
        assert service.metrics.counter("service.repairs") == len(result["rows"])

    def test_mitigate_job_honours_deadlines(self, service):
        service.submit(
            _job(
                "rushed-m", kind="mitigate", strategy="quantile",
                deadline_seconds=1e-9,
            )
        )
        assert service.drain(timeout=60)
        record = service.record("rushed-m")
        assert record.state is JobState.CANCELLED
        assert record.result["deadline_hit"]

    def test_mitigate_resume_skips_checkpointed_cells(self, service):
        # The executor checkpoints each repaired cell; a re-execution of the
        # same job (the post-crash path) replays stored rows instead of
        # repairing again, bit-identically.
        job = _job("ckpt", kind="mitigate", strategy="quantile", seed=11)
        first = service._execute(job)
        skipped_before = service.metrics.counter("checkpoint.cells_skipped")
        second = service._execute(job)
        assert second == first
        assert service.metrics.counter("checkpoint.cells_skipped") == (
            skipped_before + len(first["rows"])
        )
        checkpoint = (
            service.config.workdir / "checkpoints" / "ckpt" / "checkpoint.json"
        )
        assert checkpoint.exists()


def _start_daemon(workdir, extra=()):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--workdir", str(workdir),
         "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # The startup banner carries the bound port.
    deadline = time.monotonic() + 30
    line = process.stdout.readline()
    while "listening on" not in line:
        assert time.monotonic() < deadline, "daemon never came up"
        assert process.poll() is None, "daemon died during startup"
        line = process.stdout.readline()
    base = line.split("listening on ")[1].split()[0]
    return process, base


def _submit(base, payload):
    request = urllib.request.Request(
        base + "/v1/jobs", data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def _jobs(base):
    with urllib.request.urlopen(base + "/v1/jobs", timeout=30) as response:
        return {j["id"]: j for j in json.load(response)["jobs"]}


def _shm_segments():
    shm = Path("/dev/shm")
    return set(p.name for p in shm.iterdir()) if shm.is_dir() else set()


@pytest.mark.slow
class TestSubprocessDrills:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        process, base = _start_daemon(tmp_path)
        try:
            _submit(base, {"id": "d1", "scenario": "figure1"})
            deadline = time.monotonic() + 60
            while _jobs(base).get("d1", {}).get("state") != "DONE":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
        jobs = JobJournal(tmp_path / "journal.jsonl").replay()
        assert jobs["d1"].state is JobState.DONE
        assert not any(j.state is JobState.RUNNING for j in jobs.values())

    def test_sigkill_mid_job_restart_is_byte_identical(self, tmp_path):
        """The chaos drill: SIGKILL while a job is RUNNING, restart on the
        same workdir, and the job must complete exactly once with results
        byte-identical to an uninterrupted run (checkpoint resume + per-cell
        seeding), leaking no shared-memory segments."""
        from repro.simulation.config import PaperConfig
        from repro.simulation.runner import run_scenario
        from repro.simulation.scenarios import table1_scenario

        shm_before = _shm_segments()
        spec = {"id": "victim", "scenario": "table1", "n_workers": 250, "seed": 5}
        process, base = _start_daemon(tmp_path)
        killed_while_running = False
        try:
            _submit(base, spec)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                state = _jobs(base).get("victim", {}).get("state")
                if state == "RUNNING":
                    process.kill()  # SIGKILL: no drain, no journal goodbye
                    killed_while_running = True
                    break
                if state in ("DONE", "FAILED"):
                    break
                time.sleep(0.002)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        if killed_while_running:
            journal = JobJournal(tmp_path / "journal.jsonl")
            assert journal.replay()["victim"].state is JobState.RUNNING

        process, base = _start_daemon(tmp_path)
        try:
            deadline = time.monotonic() + 120
            while _jobs(base).get("victim", {}).get("state") != "DONE":
                assert time.monotonic() < deadline, "recovered job never finished"
                time.sleep(0.05)
            record = _jobs(base)["victim"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()

        # Exactly once: one DONE record for the job, attempts reflect the
        # recovery re-queue, and the rows match an uninterrupted reference
        # run bit-for-bit.
        reference = run_scenario(
            table1_scenario(PaperConfig(n_workers=250)),
            algorithms=("balanced",),
            seed=5,
        )
        expected = {
            (row.function, row.unfairness, row.n_partitions) for row in reference.rows
        }
        actual = {
            (row["function"], row["unfairness"], row["n_partitions"])
            for row in record["result"]["rows"]
        }
        assert actual == expected
        assert _shm_segments() == shm_before
