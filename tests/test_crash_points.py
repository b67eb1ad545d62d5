"""Crash-point torture harness: kill a subprocess at every durability boundary.

Every fsync/replace boundary in the durable stores carries a named
:func:`~repro.chaos.crash_point`; arming ``REPRO_CRASH_POINT`` makes
a subprocess ``os._exit(86)`` the instant it crosses that boundary — a
power cut at exactly the worst moment.  For each of the canonical
:data:`~repro.chaos.CRASH_POINTS` this harness kills a subprocess
running one of the scripts below and asserts the three invariants:

1. **no acknowledged job is ever lost** — every ``ACK``'d submit replays
   from the survivor journal;
2. **no unacknowledged torn record is ever replayed** — replay succeeds
   (torn tails truncate, they never parse into ghost records);
3. **bit-identical recovery** — a restarted service re-runs the survivors
   and produces result digests identical to an uninterrupted baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import CRASH_EXIT_CODE, CRASH_POINTS
from repro.service.journal import JobJournal

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.slow

JOB_COUNT = 4

#: Driver A: a real in-process service; prints ``ACK <id>`` only after
#: ``submit`` returns (i.e. after the group-committed fsync), then drains
#: and prints ``RESULT <id> <sha256>`` per finished job.
SERVICE_DRIVER = """
import hashlib, json, sys
workdir, count = sys.argv[1], int(sys.argv[2])
from repro.service import AuditJob, AuditService, ServiceConfig

service = AuditService(
    ServiceConfig(workdir, queue_limit=64, workers=1, port=None)
)
service.start()
for index in range(count):
    service.submit(
        AuditJob(id=f"job-{index}", scenario="figure1", algorithm="balanced")
    )
    print(f"ACK job-{index}", flush=True)
assert service.drain(timeout=120), "drain timed out"
for info in sorted(service.jobs_snapshot(), key=lambda item: item["id"]):
    record = service.record(info["id"])
    if record.result is not None:
        digest = hashlib.sha256(
            json.dumps(record.result, sort_keys=True).encode()
        ).hexdigest()
        print(f"RESULT {record.job.id} {digest}", flush=True)
service.stop()
print("CLEAN", flush=True)
"""

#: Driver B: direct durable-store exercises (journal compaction, torn-tail
#: recovery, snapshot and checkpoint replaces) with the same ACK protocol.
STORES_DRIVER = """
import json, sys
mode, target = sys.argv[1], sys.argv[2]

if mode == "compact":
    from repro.service import AuditJob, JobState
    from repro.service.journal import JobJournal
    journal = JobJournal(target).open()
    for index in range(4):
        job = AuditJob(id=f"job-{index}", scenario="figure1", algorithm="balanced")
        journal.append_submit(job, float(index))
        journal.append_state(job.id, JobState.RUNNING, float(index), attempt=1)
        journal.append_state(
            job.id, JobState.DONE, float(index), result={"rows": [index]}
        )
        print(f"ACK job-{index}", flush=True)
    journal.compact_to()
    print("COMPACTED", flush=True)
    journal.close()
elif mode == "recover":
    from repro.service.journal import JobJournal
    JobJournal(target).open().close()  # recovery truncates the torn tail
    print("RECOVERED", flush=True)
elif mode == "snapshot":
    from repro.io.atomic import atomic_write_text
    for index in range(5):
        payload = {"version": index, "data": list(range(64))}
        atomic_write_text(
            target, json.dumps(payload, sort_keys=True), crash_scope="snapshot"
        )
        print(f"ACK {index}", flush=True)
elif mode == "checkpoint":
    from repro.simulation.checkpoint import CheckpointStore
    store = CheckpointStore(target)
    store.begin({"run": "torture"})
    for index in range(5):
        store.record_payload(f"cell-{index}", {"value": index})
        print(f"ACK cell-{index}", flush=True)
else:
    raise SystemExit(f"unknown mode {mode!r}")
print("CLEAN", flush=True)
"""


def _run(script: str, args: "list[str]", crash_point: "str | None" = None,
         skip: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_CRASH_POINT", None)
    env.pop("REPRO_CRASH_POINT_SKIP", None)
    if crash_point is not None:
        env["REPRO_CRASH_POINT"] = crash_point
        env["REPRO_CRASH_POINT_SKIP"] = str(skip)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )


def _acked(proc: subprocess.CompletedProcess) -> "set[str]":
    return {
        line.split(" ", 1)[1]
        for line in proc.stdout.splitlines()
        if line.startswith("ACK ")
    }


def _results(proc: subprocess.CompletedProcess) -> "dict[str, str]":
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            _, job_id, digest = line.split(" ")
            out[job_id] = digest
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Digests from one uninterrupted run — the bit-identity reference."""
    workdir = tmp_path_factory.mktemp("baseline")
    proc = _run(SERVICE_DRIVER, [str(workdir), str(JOB_COUNT)])
    assert proc.returncode == 0, proc.stderr
    assert "CLEAN" in proc.stdout
    digests = _results(proc)
    assert set(digests) == {f"job-{i}" for i in range(JOB_COUNT)}
    return digests


def test_crash_point_catalogue_is_complete():
    assert len(CRASH_POINTS) >= 8
    assert len(set(CRASH_POINTS)) == len(CRASH_POINTS)


def test_baseline_runs_are_bit_identical(tmp_path, baseline):
    proc = _run(SERVICE_DRIVER, [str(tmp_path), str(JOB_COUNT)])
    assert proc.returncode == 0, proc.stderr
    assert _results(proc) == baseline


JOURNAL_POINTS = [
    ("journal.append.after_write", 0),
    ("journal.append.after_write", 3),
    ("journal.append.after_write", 7),
    ("journal.sync.before_fsync", 0),
    ("journal.sync.before_fsync", 2),
    ("journal.sync.before_fsync", 5),
    ("journal.sync.after_fsync", 0),
    ("journal.sync.after_fsync", 2),
    ("journal.sync.after_fsync", 5),
]


class TestJournalCrashPoints:
    @pytest.mark.parametrize("point,skip", JOURNAL_POINTS)
    def test_kill_at_boundary_loses_no_acknowledged_job(
        self, tmp_path, baseline, point, skip
    ):
        proc = _run(SERVICE_DRIVER, [str(tmp_path), str(JOB_COUNT)],
                    crash_point=point, skip=skip)
        assert proc.returncode == CRASH_EXIT_CODE, (
            f"expected kill at {point} (skip={skip}); "
            f"rc={proc.returncode}\n{proc.stderr}"
        )
        acked = _acked(proc)
        # Invariant 2: the survivor journal replays cleanly — a torn tail
        # truncates, it never parses into a ghost record.
        journal = JobJournal(Path(tmp_path) / "journal.jsonl")
        state = journal.replay_state()
        replayed = set(state.jobs)
        # Invariant 1: every acknowledged submit survived the kill.
        assert acked <= replayed, f"acknowledged jobs lost: {acked - replayed}"
        # Invariant 3: a restarted service finishes the survivors with
        # digests identical to the uninterrupted baseline.
        recovery = _run(SERVICE_DRIVER, [str(tmp_path), "0"])
        assert recovery.returncode == 0, recovery.stderr
        assert "CLEAN" in recovery.stdout
        digests = _results(recovery)
        for job_id in acked:
            assert digests.get(job_id) == baseline[job_id], (
                f"{job_id}: recovered digest {digests.get(job_id)} != "
                f"baseline {baseline[job_id]}"
            )


class TestCompactionCrashPoints:
    @pytest.mark.parametrize(
        "point", ["journal.compact.before_replace", "journal.compact.after_replace"]
    )
    def test_kill_mid_compaction_leaves_old_or_new_never_torn(self, tmp_path, point):
        path = tmp_path / "journal.jsonl"
        proc = _run(STORES_DRIVER, ["compact", str(path)], crash_point=point)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        acked = _acked(proc)
        assert acked == {f"job-{i}" for i in range(4)}
        state = JobJournal(path).replay_state()
        assert set(state.jobs) == acked
        for job_id in acked:
            record = state.jobs[job_id]
            assert record.state.value == "DONE"
            assert record.result == {"rows": [int(job_id.split("-")[1])]}

    def test_unarmed_compaction_round_trips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        proc = _run(STORES_DRIVER, ["compact", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert "COMPACTED" in proc.stdout
        state = JobJournal(path).replay_state()
        assert len(state.jobs) == 4


class TestRecoveryCrashPoint:
    def test_kill_during_torn_tail_truncation(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        # Build a clean journal, then tear its tail the way a power cut
        # mid-append does: a partial record with no newline.
        prep = _run(STORES_DRIVER, ["compact", str(path)])
        assert prep.returncode == 0, prep.stderr
        with open(path, "a") as handle:
            handle.write('{"type": "state", "id": "job-0", "sta')
        # Recovery is killed *before* the truncate lands.
        proc = _run(STORES_DRIVER, ["recover", str(path)],
                    crash_point="journal.recover.before_truncate")
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        # The tail is still torn; a second recovery must succeed and the
        # acknowledged prefix must replay in full.
        state = JobJournal(path).replay_state()
        assert set(state.jobs) == {f"job-{i}" for i in range(4)}
        rerun = _run(STORES_DRIVER, ["recover", str(path)])
        assert rerun.returncode == 0, rerun.stderr
        assert "RECOVERED" in rerun.stdout
        assert set(JobJournal(path).replay_state().jobs) == set(state.jobs)


class TestSnapshotCrashPoints:
    @pytest.mark.parametrize(
        "point,skip",
        [
            ("snapshot.before_replace", 0),
            ("snapshot.before_replace", 2),
            ("snapshot.after_replace", 0),
            ("snapshot.after_replace", 2),
        ],
    )
    def test_kill_mid_replace_leaves_old_or_new_never_torn(
        self, tmp_path, point, skip
    ):
        target = tmp_path / "snap.json"
        proc = _run(STORES_DRIVER, ["snapshot", str(target)],
                    crash_point=point, skip=skip)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        acked = {int(a) for a in _acked(proc)}
        if point.endswith("before_replace") and not acked:
            # Killed before the very first replace: no file is legal.
            if not target.exists():
                return
        payload = json.loads(target.read_text())  # parses → never torn
        last_acked = max(acked) if acked else -1
        # before_replace: the file is the last acknowledged version;
        # after_replace: the in-flight (unacknowledged) version landed.
        assert payload["version"] in (last_acked, last_acked + 1)
        assert payload["data"] == list(range(64))


class TestCheckpointCrashPoints:
    @pytest.mark.parametrize(
        "point,skip",
        [
            ("checkpoint.before_replace", 1),
            ("checkpoint.before_replace", 3),
            ("checkpoint.after_replace", 1),
            ("checkpoint.after_replace", 3),
        ],
    )
    def test_kill_mid_record_keeps_every_acked_cell(self, tmp_path, point, skip):
        from repro.simulation.checkpoint import CheckpointStore

        proc = _run(STORES_DRIVER, ["checkpoint", str(tmp_path)],
                    crash_point=point, skip=skip)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        acked = _acked(proc)
        payload = CheckpointStore(tmp_path).load()  # schema-gated parse
        cells = set(payload["cells"])
        assert acked <= cells, f"acked cells lost: {acked - cells}"
        for name in acked:
            assert payload["cells"][name]["payload"] == {
                "value": int(name.split("-")[1])
            }


def test_harness_covers_every_canonical_point():
    exercised = {p for p, _ in JOURNAL_POINTS}
    exercised |= {"journal.compact.before_replace", "journal.compact.after_replace"}
    exercised |= {"journal.recover.before_truncate"}
    exercised |= {"snapshot.before_replace", "snapshot.after_replace"}
    exercised |= {"checkpoint.before_replace", "checkpoint.after_replace"}
    assert exercised == set(CRASH_POINTS)
