"""The ``daemon-hot`` and ``daemon-cold`` workloads.

Both drive a fresh ``python -m repro.cli serve`` subprocess, started with
``benchmarks/load_gen.py``'s :class:`Daemon` launcher, so with serve's
defaults (two queue workers, no coalescing) except a queue limit large
enough to admit the bulk backlog.  The load comes from this one process:
at most two threads, each with its own keep-alive connection.

``daemon-hot``
    Warm-up runs the four ``figure1``/``balanced`` seeds once per tenant,
    so every timed job is a cross-job-cache memo hit and HTTP, intake,
    journal fsync and scheduling are what is measured.  Paced phase: an
    open loop of seeded Poisson arrivals (``load_gen.build_plan``'s
    ``skewed`` mix), one ``POST /v1/jobs`` each, timed from each job's due
    time to its DONE ``updated_at``; it gives CPU seconds per job.  Bulk
    phase: a fixed backlog sent through ``POST /v1/jobs/batch``, timed from
    the first submit to the last DONE; it gives throughput.
``daemon-cold``
    A closed loop of two callers, each submitting a single-function audit
    of a population size no earlier job in the run used and polling until
    it is DONE before sending the next, so every cache lookup misses, every
    job writes a checkpoint and the two queue workers search at the same
    time.  The size picks the function and which of the paper's five
    algorithms runs, so the jobs cover every search path: the incremental
    objective, the local splitting rule and the pairwise kernels as well
    as ``balanced``'s closed-form averages.

Each timed phase runs in :data:`ROUNDS` rounds, the daemon drained between
them, and reports its median round, so one round slowed by the host does
not move the result.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "benchmarks"))

import load_gen  # noqa: E402

from tracing import PAPER_ALGORITHMS  # noqa: E402

#: ``repro serve``'s own defaults for the two knobs the launcher requires.
QUEUE_WORKERS = 2
BATCH_MAX = 1

#: Daemon start-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Each timed phase runs as this many rounds, every round drained before
#: the next; throughput and CPU per job are the median round's.
ROUNDS = 5

#: Paced-phase arrival rate: at most a sixth of the memo-hit throughput the
#: bulk phase measures (650-1100 jobs/s), so a host slowed by CPU steal
#: still does not queue, and enough jobs per round that the daemon's CPU
#: time, read in 10 ms clock ticks, resolves to about 1%.
HOT_RATE = 100.0
#: Share of ``--seconds`` spent in the paced phase.
HOT_PACED_SHARE = 0.5
#: Bulk backlog per second of ``--seconds``, and jobs per batch request.
HOT_BULK_PER_SECOND = 250
HOT_BULK_CHUNK = 50

#: Population sizes ``daemon-cold`` draws from, without replacement.
COLD_SIZES = range(150, 500)
#: Jobs per second of ``--seconds`` (two callers).
COLD_JOBS_PER_SECOND = 5
#: How often a cold caller polls its job.
POLL_SECONDS = 0.005
#: Health poll interval while waiting for a daemon to go idle: short during
#: warm-up, which ``setup_s`` times; longer after a timed phase, where the
#: end comes from the daemon's own timestamps and each poll costs it CPU.
WARM_UP_POLL_SECONDS = 0.01
DRAIN_POLL_SECONDS = 0.05


def cold_id(n_workers: int) -> str:
    return f"cold-{n_workers}"


def cold_spec(n_workers: int, tenant: str) -> dict:
    """The ``daemon-cold`` job for one population size: every 25
    consecutive sizes cover each (algorithm, function) pair once."""
    return {
        "id": cold_id(n_workers),
        "scenario": "table1",
        "algorithm": PAPER_ALGORITHMS[n_workers % 5],
        "functions": [f"f{1 + n_workers // 5 % 5}"],
        "n_workers": n_workers,
        "tenant": tenant,
    }


def hot_key(spec: dict) -> str:
    """Reference key of a ``daemon-hot`` job: its result depends on no more."""
    return f"{spec['scenario']}/{spec['algorithm']}/seed={spec['seed']}"


# ------------------------------------------------------------------ plumbing


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of a process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def latency_summary(latencies: list) -> dict:
    """Median and 90th percentile of per-job latencies, with the sample
    count: context printed with each run, not a bounded metric."""
    return {
        "p50": statistics.median(latencies),
        "p90": statistics.quantiles(latencies, n=10)[8],
        "n": len(latencies),
    }


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process (all threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def send(conn, method: str, path: str, body: "bytes | None" = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


@contextlib.contextmanager
def _through_launcher(spans: "Path | None"):
    """Make ``load_gen.Daemon`` start serve through ``traced_serve.py``."""
    if spans is None:
        yield
        return
    popen = subprocess.Popen

    def rewrite(command, **kwargs):
        rest = command[command.index("repro.cli") + 1:]
        launcher = [command[0], str(HERE / "traced_serve.py"), "--spans", str(spans)]
        return popen(launcher + rest, **kwargs)

    with mock.patch.object(load_gen.subprocess, "Popen", rewrite):
        yield


class Session:
    """One daemon in its own work directory under ``out``."""

    def __init__(self, out: Path, name: str, spans: "Path | None" = None):
        self.workdir = out / name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.started = time.perf_counter()
        with _through_launcher(spans):
            self.daemon = load_gen.Daemon(str(self.workdir), QUEUE_WORKERS, BATCH_MAX)
        self.pid = self.daemon.proc.pid
        self.conn = self.daemon.connect()

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        status, reply = send(self.conn, method, path, body)
        if status == 408:
            # The daemon closes a keep-alive connection idle for longer
            # than its request timeout; this one sat out a timed phase.
            self.conn.close()
            self.conn = self.daemon.connect()
            status, reply = send(self.conn, method, path, body)
        return status, reply

    def wait_idle(self, interval: float = WARM_UP_POLL_SECONDS) -> None:
        while True:
            _, health = self.call("GET", "/v1/healthz")
            if health["queued"] == 0 and health["running"] == 0:
                return
            time.sleep(interval)

    def done_rows(self, limit: int) -> dict:
        _, listing = self.call("GET", f"/v1/jobs?state=DONE&limit={limit}")
        return {row["id"]: row for row in listing["jobs"]}

    def metrics(self) -> dict:
        return self.call("GET", "/v1/metrics")[1]

    def checkpointed(self) -> set:
        """Ids of jobs that ran a search (memo hits write no checkpoint)."""
        root = self.workdir / "checkpoints"
        return {path.name for path in root.iterdir()} if root.exists() else set()

    def close(self) -> None:
        self.conn.close()
        self.daemon.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _start(out: Path, name: str, warm_up, spans=None):
    """Start a daemon and warm it; returns ``(session, setup seconds)``."""
    session = Session(out, name, spans)
    try:
        warm_up(session)
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - session.started


def _set_up(out: Path, workload: str, warm_up, spans):
    """``SETUP_SAMPLES`` start-ups; the last one's daemon is returned."""
    samples = []
    for index in range(SETUP_SAMPLES - 1):
        session, seconds = _start(out, f"{workload}-setup{index}", warm_up)
        samples.append(seconds)
        session.close()
    session, seconds = _start(out, workload, warm_up, spans)
    samples.append(seconds)
    return session, samples


def _timings(before: dict, after: dict, name: str) -> "tuple[int, float]":
    def pick(snapshot):
        timing = snapshot.get("timings", {}).get(name, {})
        return timing.get("count", 0), timing.get("total_seconds", 0.0)

    (c0, t0), (c1, t1) = pick(before), pick(after)
    return c1 - c0, t1 - t0


def server_layer(before: dict, after: dict, span: float) -> dict:
    """``server.*`` per-layer metrics from two ``/v1/metrics`` snapshots."""
    waits, wait_total = _timings(before, after, "service.wait_seconds")
    jobs, job_total = _timings(before, after, "service.job_seconds")
    rejected = after.get("counters", {}).get("service.rejected", 0) - before.get(
        "counters", {}
    ).get("service.rejected", 0)
    return {
        "server.rejected": rejected,
        "server.queue_wait_s_mean": wait_total / waits if waits else 0.0,
        "server.job_s_mean": job_total / jobs if jobs else 0.0,
        "server.concurrency": job_total / span if span > 0 else 0.0,
    }


def _check(rows: dict, planned: "list[tuple[str, object]]") -> "tuple[int, dict]":
    """Failed count and observed results of ``(job id, expected)`` pairs.

    ``expected`` is the reference result or ``None`` when there is none;
    a job that is missing, not DONE, or differs from its reference fails.
    """
    failed = 0
    observed = {}
    for job_id, expected in planned:
        row = rows.get(job_id)
        if row is None or row["state"] != "DONE":
            failed += 1
            continue
        observed[job_id] = row["result"]
        if expected is not None and row["result"] != expected:
            failed += 1
    return failed, observed


# ---------------------------------------------------------------- daemon-hot


def _hot_warm_up(session: Session) -> None:
    specs = [
        {
            "id": f"warm-{seed}-{tenant}",
            "scenario": "figure1",
            "algorithm": "balanced",
            "seed": seed,
            "tenant": tenant,
        }
        for seed in range(load_gen.SEED_POOL)
        for tenant in load_gen.TENANTS
    ]
    for spec in specs:
        status, _ = session.call("POST", "/v1/jobs", spec)
        if status != 202:
            raise RuntimeError(f"warm-up submit refused with HTTP {status}")
    session.wait_idle()
    rows = session.done_rows(len(specs))
    if any(spec["id"] not in rows for spec in specs):
        raise RuntimeError("daemon-hot warm-up jobs did not all finish DONE")
    session.warm_results = {hot_key(spec): rows[spec["id"]]["result"] for spec in specs}


def _paced_sender(session, jobs, t0, sent):
    conn = session.daemon.connect()
    try:
        for index, arrival, body in jobs:
            delay = t0 + arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[index] = time.perf_counter() - (t0 + arrival)
            send(conn, "POST", "/v1/jobs", body)
    finally:
        conn.close()


def _split(items: list, rounds: int) -> list:
    """``items`` cut into ``rounds`` contiguous, nearly equal parts."""
    size, extra = divmod(len(items), rounds)
    bounds = [k * size + min(k, extra) for k in range(rounds + 1)]
    return [items[bounds[k]:bounds[k + 1]] for k in range(rounds)]


def daemon_hot(seed: int, seconds: float, out: Path, references: dict, spans=None) -> dict:
    # The whole plan, request bodies included, is built before any clock.
    rng = random.Random(f"{seed}:daemon-hot")
    paced_seconds = seconds * HOT_PACED_SHARE
    paced = load_gen.build_plan("skewed", HOT_RATE, paced_seconds, rng)
    bulk = [spec for _, spec in load_gen.build_plan(
        "uniform", HOT_BULK_PER_SECOND * seconds, 1.0, rng
    )]
    round_seconds = paced_seconds / ROUNDS
    segments: list = [[] for _ in range(ROUNDS)]
    for index, (arrival, spec) in enumerate(paced):
        k = min(int(arrival / round_seconds), ROUNDS - 1)
        segments[k].append((index, arrival - k * round_seconds, json.dumps(spec).encode()))
    bulk_rounds = [
        [
            json.dumps({"jobs": part[i:i + HOT_BULK_CHUNK]}).encode()
            for i in range(0, len(part), HOT_BULK_CHUNK)
        ]
        for part in _split(bulk, ROUNDS)
    ]
    expected = references.get("jobs", {})
    due = [0.0] * len(paced)
    sent: list = [None] * len(paced)
    paced_cpu, bulk_starts = [], []

    session, setups = _set_up(out, "daemon-hot", _hot_warm_up, spans)
    try:
        before = session.metrics()
        mono0 = time.perf_counter()
        # Paced phase: per round, two open-loop senders take alternate jobs.
        for segment in segments:
            cpu0 = cpu_seconds(session.pid)
            wall0, t0 = time.time(), time.perf_counter() + 0.05
            for index, arrival, _ in segment:
                due[index] = wall0 + 0.05 + arrival
            threads = [
                threading.Thread(
                    target=_paced_sender,
                    args=(session, segment[k::2], t0, sent),
                )
                for k in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            session.wait_idle(DRAIN_POLL_SECONDS)
            paced_cpu.append((cpu_seconds(session.pid) - cpu0) / max(1, len(segment)))

        # Bulk phase: per round, the backlog in fixed-size batch requests.
        for bodies in bulk_rounds:
            bulk_starts.append(time.time())
            for body in bodies:
                send(session.conn, "POST", "/v1/jobs/batch", body)
            session.wait_idle(DRAIN_POLL_SECONDS)
        window = (mono0, time.perf_counter())
        after = session.metrics()
        rows = session.done_rows(len(paced) + len(bulk))
        checkpointed = session.checkpointed()
        peak_kib = vm_hwm_kib(session.pid)
    finally:
        session.close()

    failed, observed = _check(
        rows,
        [(spec["id"], expected.get(hot_key(spec))) for _, spec in paced]
        + [(spec["id"], expected.get(hot_key(spec))) for spec in bulk],
    )
    latencies = [
        rows[spec["id"]]["updated_at"] - due[index]
        for index, (_, spec) in enumerate(paced)
        if spec["id"] in rows
    ]
    bulk_rates = []
    for started, part in zip(bulk_starts, _split(bulk, ROUNDS)):
        done = [rows[spec["id"]]["updated_at"] for spec in part if spec["id"] in rows]
        bulk_rates.append(len(done) / (max(done) - started))
    lateness = [value for value in sent if value is not None]
    timed = [spec["id"] for _, spec in paced] + [spec["id"] for spec in bulk]
    return {
        "attempted": len(timed),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kib / 1024.0,
            "throughput_per_s": statistics.median(bulk_rates),
            "cpu_s_per_op": statistics.median(paced_cpu),
        },
        "latency_s": latency_summary(latencies),
        "setup_samples": setups,
        "generator_lateness_s": {
            "p50": statistics.median(lateness),
            "max": max(lateness),
        },
        "memo_hit_share": 1.0 - len(checkpointed & set(timed)) / len(timed),
        "outputs": observed,
        "reference_results": session.warm_results,
        "window": window,
        "server": server_layer(before, after, window[1] - window[0]),
    }


# --------------------------------------------------------------- daemon-cold


def _cold_warm_up(session: Session) -> None:
    # A size outside COLD_SIZES: loads the search path without touching
    # any cache entry a timed job could hit.
    spec = cold_spec(COLD_SIZES.start - 1, "default")
    status, _ = session.call("POST", "/v1/jobs", spec)
    if status != 202:
        raise RuntimeError(f"warm-up submit refused with HTTP {status}")
    session.wait_idle()
    if spec["id"] not in session.done_rows(1):
        raise RuntimeError("daemon-cold warm-up job did not finish DONE")


def _cold_caller(session, tenant, queue, lock, records):
    conn = session.daemon.connect()
    try:
        while True:
            with lock:
                if not queue:
                    return
                n_workers = queue.pop()
            spec = cold_spec(n_workers, tenant)
            submitted = time.time()
            status, _ = send(conn, "POST", "/v1/jobs", json.dumps(spec).encode())
            if status != 202:
                records[spec["id"]] = (submitted, None)
                continue
            path = f"/v1/jobs/{spec['id']}"
            while True:
                time.sleep(POLL_SECONDS)
                status, payload = send(conn, "GET", path)
                job = payload.get("job") if status == 200 else None
                if job is None or job["state"] not in ("PENDING", "RUNNING"):
                    break
            records[spec["id"]] = (submitted, job)
    finally:
        conn.close()


def cold_plan(seed: int, count: int) -> list:
    """``count`` distinct population sizes in a seeded order."""
    count = min(count, len(COLD_SIZES))
    return random.Random(f"{seed}:daemon-cold").sample(COLD_SIZES, count)


def daemon_cold(
    seed: int, seconds: float, out: Path, references: dict, spans=None, sizes=None
) -> dict:
    sizes = sizes or cold_plan(seed, int(COLD_JOBS_PER_SECOND * seconds))
    expected = references.get("jobs", {})
    rounds = _split(sizes, ROUNDS)
    lock = threading.Lock()
    records: dict = {}
    round_cpu = []

    session, setups = _set_up(out, "daemon-cold", _cold_warm_up, spans)
    try:
        before = session.metrics()
        mono0 = time.perf_counter()
        for part in rounds:
            queue = list(reversed(part))
            cpu0 = cpu_seconds(session.pid)
            threads = [
                threading.Thread(
                    target=_cold_caller,
                    args=(session, tenant, queue, lock, records),
                )
                for tenant in load_gen.TENANTS[:2]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            round_cpu.append((cpu_seconds(session.pid) - cpu0) / len(part))
        window = (mono0, time.perf_counter())
        after = session.metrics()
        checkpointed = session.checkpointed()
        peak_kib = vm_hwm_kib(session.pid)
    finally:
        session.close()

    rows = {job_id: job for job_id, (_, job) in records.items() if job is not None}
    ids = [cold_id(n) for n in sizes]
    failed, observed = _check(rows, [(i, expected.get(i)) for i in ids])
    latencies = [rows[i]["updated_at"] - records[i][0] for i in ids if i in observed]
    round_rates = []
    for part in rounds:
        part_ids = [cold_id(n) for n in part]
        ends = [rows[i]["updated_at"] for i in part_ids if i in observed]
        first_submit = min(records[i][0] for i in part_ids if i in records)
        round_rates.append(len(ends) / (max(ends) - first_submit))
    return {
        "attempted": len(ids),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kib / 1024.0,
            "throughput_per_s": statistics.median(round_rates),
            "cpu_s_per_op": statistics.median(round_cpu),
        },
        "latency_s": latency_summary(latencies),
        "setup_samples": setups,
        "memo_hit_share": 1.0 - len(checkpointed & set(ids)) / len(ids),
        "outputs": observed,
        "window": window,
        "server": server_layer(before, after, window[1] - window[0]),
    }
