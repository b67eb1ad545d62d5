"""Crash-safety of the job journal (``repro.service.journal``).

The core property test truncates a populated journal at **every byte
offset** and re-opens it: recovery must either parse the file cleanly or
drop only the torn tail — never lose a record that had a complete line,
never resurrect a duplicate job id, never mistake mid-file damage for a
torn tail.  That is the exact guarantee the daemon's "journal ahead of
acknowledgement" protocol rests on.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import JournalError
from repro.service.jobs import AuditJob, JobState
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    decode_line,
    encode_record,
)


def _job(i: int) -> AuditJob:
    return AuditJob(id=f"job-{i}", scenario="figure1", algorithm="balanced", seed=i)


@pytest.fixture()
def populated(tmp_path):
    """A journal holding three jobs in different lifecycle stages."""
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        for i in range(3):
            journal.append_submit(_job(i), timestamp=float(i))
        journal.append_state("job-0", JobState.RUNNING, 10.0, attempt=1)
        journal.append_state("job-0", JobState.DONE, 11.0, result={"rows": []})
        journal.append_state("job-1", JobState.RUNNING, 12.0, attempt=1)
    return path


class TestRecordCodec:
    def test_round_trip(self):
        record = {"type": "state", "id": "x", "state": "DONE", "ts": 1.5}
        assert decode_line(encode_record(record)) == record

    def test_flipped_byte_fails_crc(self):
        line = encode_record({"type": "submit", "job": {"id": "a"}})
        # Corrupt a character inside the record payload, keeping valid JSON.
        damaged = line.replace('"id":"a"', '"id":"b"')
        assert damaged != line
        with pytest.raises(ValueError, match="crc mismatch"):
            decode_line(damaged)

    def test_non_record_json_rejected(self):
        with pytest.raises(ValueError):
            decode_line('{"not": "a record"}')


class TestTruncationProperty:
    def test_every_byte_offset_recovers_or_drops_only_the_tail(
        self, populated, tmp_path
    ):
        """SIGKILL can cut an append anywhere; recovery must be exact."""
        data = populated.read_bytes()
        # Byte offsets that end a complete line — prefixes that are clean.
        clean_offsets = {0}
        position = 0
        for line in data.splitlines(keepends=True):
            position += len(line)
            clean_offsets.add(position)

        for offset in range(len(data) + 1):
            path = tmp_path / "cut.jsonl"
            path.write_bytes(data[:offset])
            journal = JobJournal(path)
            if offset == 0:
                # Empty file: no header — refuse, don't invent one.
                with pytest.raises(JournalError):
                    journal.open()
                continue
            largest_clean = max(o for o in clean_offsets if o <= offset)
            if largest_clean == 0:
                # Even the header is torn: nothing trustworthy to append to.
                with pytest.raises(JournalError):
                    journal.open()
                continue
            journal.open()
            journal.close()
            # Recovery truncated exactly to the last complete record —
            # nothing less (no lost acknowledged records), nothing more.
            assert path.read_bytes() == data[:largest_clean]
            replayed = JobJournal(path).replay()
            ids = list(replayed)
            assert len(ids) == len(set(ids))  # no duplicate job ids
            expected_jobs = sum(
                1 for i in range(3) if data.find(f"job-{i}".encode()) < largest_clean
                and data.find(f"job-{i}".encode()) != -1
            )
            assert len(ids) == expected_jobs

    def test_recovered_tail_is_reported(self, populated):
        data = populated.read_bytes()
        populated.write_bytes(data[:-5])  # tear the final line
        journal = JobJournal(populated).open()
        journal.close()
        assert journal.recovered_tail_bytes > 0

    def test_append_after_recovery_continues_the_log(self, populated):
        data = populated.read_bytes()
        populated.write_bytes(data[:-5])
        with JobJournal(populated) as journal:
            journal.append_state("job-2", JobState.RUNNING, 20.0, attempt=1)
        replayed = JobJournal(populated).replay()
        assert replayed["job-2"].state is JobState.RUNNING


class TestMidFileCorruption:
    def test_damaged_middle_record_raises(self, populated):
        lines = populated.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:10] + b"X" + lines[2][11:]
        populated.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="mid-file"):
            JobJournal(populated).open()

    def test_crc_valid_but_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        header = encode_record({"type": "header", "schema": "repro.journal/v99"})
        path.write_text(header + "\n")
        with pytest.raises(JournalError, match="schema"):
            JobJournal(path).open()

    def test_alien_file_without_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(encode_record({"type": "state", "id": "x"}) + "\n")
        with pytest.raises(JournalError, match="header"):
            JobJournal(path).open()


class TestReplay:
    def test_replay_reconstructs_states(self, populated):
        jobs = JobJournal(populated).replay()
        assert jobs["job-0"].state is JobState.DONE
        assert jobs["job-0"].result == {"rows": []}
        assert jobs["job-1"].state is JobState.RUNNING
        assert jobs["job-1"].attempt == 1
        assert jobs["job-2"].state is JobState.PENDING

    def test_replay_rejects_duplicate_submit(self, tmp_path):
        # A duplicate submit with a *different* spec is corruption.  (An
        # identical duplicate is the degraded group-commit retry signature
        # and replays idempotently — see TestJournalWriteErrors.)
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.append_submit(_job(0), 0.0)
            journal.append_submit(
                AuditJob(id="job-0", scenario="figure1", algorithm="greedy", seed=7),
                1.0,
            )
        with pytest.raises(JournalError, match="duplicate"):
            JobJournal(path).replay()

    def test_replay_rejects_unknown_job(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.append_state("ghost", JobState.RUNNING, 0.0)
        with pytest.raises(JournalError, match="unknown job"):
            JobJournal(path).replay()

    def test_header_carries_schema_tag(self, populated):
        first = json.loads(populated.read_text().splitlines()[0])
        assert first["rec"]["schema"] == JOURNAL_SCHEMA
        body = json.dumps(first["rec"], sort_keys=True, separators=(",", ":"))
        assert first["crc"] == zlib.crc32(body.encode())


class TestCompaction:
    """Size-threshold compaction must be replay-equivalent (the satellite's
    core property): for ANY legal transition history, replaying the
    compacted journal yields the same final ``(state, attempt, reason,
    result)`` per job, and the same post-snapshot monitor events."""

    @staticmethod
    def _random_walk(journal: JobJournal, rng, i: int) -> None:
        """Journal one job through a random legal lifecycle walk."""
        from repro.service.jobs import VALID_TRANSITIONS

        journal.append_submit(_job(i), timestamp=float(i))
        state = JobState.PENDING
        attempt = 0
        ts = float(i)
        for _ in range(rng.randint(0, 8)):
            choices = sorted(VALID_TRANSITIONS[state], key=lambda s: s.value)
            if not choices:
                break
            state = rng.choice(choices)
            ts += 1.0
            details: dict = {}
            if state is JobState.RUNNING:
                attempt += 1
                details["attempt"] = attempt
            if rng.random() < 0.5:
                details["reason"] = f"r{rng.randint(0, 9)}"
            if state is JobState.DONE:
                details["result"] = {"rows": [attempt]}
            journal.append_state(_job(i).id, state, ts, **details)

    def test_random_walks_replay_equivalently_after_compaction(self, tmp_path):
        import random

        for seed in range(12):
            rng = random.Random(seed)
            path = tmp_path / f"journal-{seed}.jsonl"
            journal = JobJournal(path).open()
            for i in range(rng.randint(1, 6)):
                self._random_walk(journal, rng, i)
            before = {
                job_id: (r.state, r.attempt, r.reason, r.result)
                for job_id, r in journal.replay().items()
            }
            size_before = journal.size_bytes()
            reclaimed = journal.compact_to()
            journal.close()
            after = {
                job_id: (r.state, r.attempt, r.reason, r.result)
                for job_id, r in JobJournal(path).replay().items()
            }
            assert after == before, f"seed {seed} diverged"
            assert reclaimed >= 0
            assert JobJournal(path).size_bytes() == size_before - reclaimed

    def test_monitor_records_respect_snapshot_floor(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        spec = {"id": "m1", "scenario": "table1"}
        journal.append({"type": "mpop_create", "ts": 0.0, "spec": spec})
        for version in (3, 6, 9):
            journal.append(
                {
                    "type": "mpop_mutations",
                    "id": "m1",
                    "ts": float(version),
                    "version": version,
                    "mutations": [],
                }
            )
            journal.append(
                {
                    "type": "mpop_audit",
                    "id": "m1",
                    "ts": float(version),
                    "version": version,
                    "kind": "audit",
                    "unfairness": 0.1 * version,
                }
            )
        journal.compact_to({"m1": 6})
        journal.close()
        state = JobJournal(path).replay_state()
        monitor = state.monitors["m1"]
        assert [b["version"] for b in monitor.mutation_batches] == [9]
        assert [a["version"] for a in monitor.audits] == [9]
        assert monitor.spec == spec

    def test_compaction_is_atomic_and_reopens_append_handle(self, populated):
        journal = JobJournal(populated).open()
        journal.compact_to()
        # The append handle survives compaction: new records land in the file.
        journal.append_submit(_job(99), timestamp=99.0)
        journal.close()
        jobs = JobJournal(populated).replay()
        assert "job-99" in jobs


class TestGroupCommitTornTail:
    """Satellite property: bulk appends group-committed with one fsync,
    then torn at an arbitrary byte offset, must replay exactly the
    acknowledged prefix — every full line before the cut, nothing after."""

    @given(
        batch_sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_batches_times_random_truncation(
        self, tmp_path_factory, batch_sizes, fraction
    ):
        tmp_path = tmp_path_factory.mktemp("torn")
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        index = 0
        for size in batch_sizes:
            for _ in range(size):
                journal.append_submit(_job(index), timestamp=float(index), sync=False)
                index += 1
            journal.sync()  # one group commit per batch
        journal.close()
        data = path.read_bytes()

        # Map each complete line to the id it acknowledges.
        offsets, ids_by_offset, position = [0], {}, 0
        for line in data.splitlines(keepends=True):
            record = decode_line(line.decode("utf-8").rstrip("\n"))
            position += len(line)
            offsets.append(position)
            if record.get("type") == "submit":
                ids_by_offset[position] = record["job"]["id"]

        offset = int(fraction * len(data))
        largest_clean = max(o for o in offsets if o <= offset)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(data[:offset])
        if largest_clean == 0:
            with pytest.raises(JournalError):
                JobJournal(cut).open()
            return
        JobJournal(cut).open().close()
        assert cut.read_bytes() == data[:largest_clean]
        replayed = set(JobJournal(cut).replay())
        expected = {
            job_id for end, job_id in ids_by_offset.items() if end <= largest_clean
        }
        assert replayed == expected


class TestJournalWriteErrors:
    """Typed durability failures: the fault plane's OSErrors surface as
    JournalWriteError with the correct ``written`` marker, and the dirty
    buffer repairs itself before the next append."""

    def _plane(self, **rates):
        from repro.chaos import DiskFaults, FaultPlane

        return FaultPlane(DiskFaults(seed=1, **rates))

    @pytest.fixture(autouse=True)
    def _clean_plane(self):
        from repro import chaos

        yield
        chaos.uninstall()

    def test_append_eio_raises_unwritten_and_repairs(self, tmp_path):
        from repro import chaos
        from repro.exceptions import JournalWriteError

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        chaos.install(self._plane(eio_rate=1.0))
        with pytest.raises(JournalWriteError) as excinfo:
            journal.append_submit(_job(0), timestamp=0.0)
        assert excinfo.value.written is False
        chaos.uninstall()
        journal.append_submit(_job(1), timestamp=1.0)
        journal.close()
        assert set(JobJournal(path).replay()) == {"job-1"}

    def test_torn_append_truncated_not_replayed(self, tmp_path):
        from repro import chaos
        from repro.exceptions import JournalWriteError

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append_submit(_job(0), timestamp=0.0)
        chaos.install(self._plane(torn_rate=1.0))
        with pytest.raises(JournalWriteError) as excinfo:
            journal.append_submit(_job(1), timestamp=1.0)
        assert excinfo.value.written is False
        chaos.uninstall()
        # The dirty-buffer repair cuts the injected fragment exactly; the
        # next append lands on a clean tail.
        journal.append_submit(_job(2), timestamp=2.0)
        journal.close()
        assert set(JobJournal(path).replay()) == {"job-0", "job-2"}

    def test_fsync_failure_marks_written_true(self, tmp_path):
        from repro import chaos
        from repro.exceptions import JournalWriteError

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append_submit(_job(0), timestamp=0.0, sync=False)
        chaos.install(self._plane(fsync_rate=1.0))
        with pytest.raises(JournalWriteError) as excinfo:
            journal.sync()
        assert excinfo.value.written is True
        chaos.uninstall()
        # Durability deferred, not lost: a later sync persists the record
        # exactly once (re-appending would have duplicated it).
        journal.sync()
        journal.close()
        assert set(JobJournal(path).replay()) == {"job-0"}

    def test_compaction_failure_keeps_old_file_and_append_handle(self, tmp_path):
        from repro import chaos
        from repro.exceptions import JournalWriteError

        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append_submit(_job(0), timestamp=0.0)
        chaos.install(self._plane(enospc_rate=1.0))
        with pytest.raises(JournalWriteError):
            journal.compact_to()
        chaos.uninstall()
        journal.append_submit(_job(1), timestamp=1.0)
        journal.close()
        assert set(JobJournal(path).replay()) == {"job-0", "job-1"}

    def test_replay_tolerates_degraded_running_running_history(self, tmp_path):
        # The degraded-requeue signature: a RUNNING edge whose re-queue hop
        # the broken disk swallowed, followed by the re-run's RUNNING edge.
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append_submit(_job(0), timestamp=0.0)
        journal.append_state("job-0", JobState.RUNNING, 1.0, attempt=1)
        journal.append_state("job-0", JobState.RUNNING, 2.0, attempt=2)
        journal.append_state("job-0", JobState.DONE, 3.0, result={"rows": []})
        journal.close()
        record = JobJournal(path).replay()["job-0"]
        assert record.state is JobState.DONE
        assert record.attempt == 2

    def test_replay_tolerates_identical_duplicate_submit(self, tmp_path):
        # The other degraded signature: a group commit's appends hit the
        # file, its fsync failed, the batch was rejected — and the client's
        # retry appended the same submit again.
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append_submit(_job(0), timestamp=0.0)
        journal.append_submit(_job(0), timestamp=1.0)
        journal.append_state("job-0", JobState.RUNNING, 2.0, attempt=1)
        journal.close()
        record = JobJournal(path).replay()["job-0"]
        assert record.state is JobState.RUNNING
        assert record.submitted_at == 0.0  # the first submit wins

    def test_replay_rejects_conflicting_duplicate_submit(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append_submit(_job(0), timestamp=0.0)
        conflicting = AuditJob(
            id="job-0", scenario="figure1", algorithm="unbalanced", seed=9
        )
        journal.append_submit(conflicting, timestamp=1.0)
        journal.close()
        with pytest.raises(JournalError, match="duplicate submit"):
            JobJournal(path).replay()
