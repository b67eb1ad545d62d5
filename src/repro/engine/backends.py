"""Pluggable execution backends for candidate-partitioning evaluation.

The expensive fan-out in the search algorithms is "score this batch of
candidate partitionings" (exhaustive enumeration chunks, beam-level
expansions).  :class:`EvaluationEngine` routes those batches through an
:class:`ExecutionBackend`:

* :class:`SequentialBackend` — in-process, cache-aware, the default.
* :class:`ProcessPoolBackend` — fans batches out across worker processes.
  Workers are initialised once per run with the digitised scores, the
  histogram spec and the metric, so a task is just a list of member-index
  arrays; every worker computes objectives through the *same*
  :func:`~repro.engine.kernels.full_objective` code path as the sequential
  engine, which keeps results bit-identical across backends.

The process pool's chunk loop is the one retry loop in the engine: each
chunk is dispatched with an optional deadline and retried under the
backend's :class:`~repro.engine.resilience.RetryPolicy` — stragglers are
re-dispatched on timeout, crashed chunks are retried with exponential
backoff + jitter, a broken pool is rebuilt, and when the pool is
irrecoverable the batch (and, for repeated pool breakage, the whole
backend) degrades to the in-process path, which computes the *same
values* through the same arithmetic.  Exhausting the budget with fallback
disabled raises a typed :class:`~repro.exceptions.BackendExhaustedError`.
With a per-chunk timeout, at most ``workers`` chunk attempts are on the
pool at once, so a deadline counts only the time a worker has the chunk.
A seeded :class:`~repro.chaos.EngineFaults` schedule can be attached to
inject crashes, hangs and corrupt returns inside the workers (chaos mode /
test harness).  The sequential backend has no worker process that could
fail, so it takes neither.

Backends are selected from the CLI via ``--engine-backend
{sequential,process}`` and ``--engine-workers N`` and are recorded in
:class:`AlgorithmResult` so the benchmark harness can attribute runtimes.
With tracing enabled on the engine, each process-pool batch records
``backend.process.dispatch`` / ``backend.process.collect`` spans and the
matching ``backend.*_seconds`` timing histograms; fault-tolerance events
show up as ``backend.retry`` / ``backend.fallback`` spans and the
``engine.retries`` / ``engine.timeouts`` / ``engine.pool_rebuilds`` /
``engine.backend_fallbacks`` counters (see ``docs/robustness.md``).
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.chaos import corrupt_values
from repro.engine.resilience import RetryPolicy, validate_batch
from repro.exceptions import (
    BackendExhaustedError,
    BackendTimeoutError,
    CorruptResultError,
    PartitioningError,
    WorkerCrashError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos import EngineFaults
    from repro.core.partition import Partition
    from repro.engine.engine import EvaluationEngine

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "ProcessPoolBackend",
    "available_backends",
    "get_backend",
]


class ExecutionBackend(abc.ABC):
    """Strategy for evaluating batches of candidate partitionings."""

    #: Registry key recorded in results (``sequential`` / ``process``).
    name: str = ""
    #: Degree of parallelism this backend provides.
    workers: int = 1

    @abc.abstractmethod
    def score_partitionings(
        self,
        engine: "EvaluationEngine",
        candidates: Sequence[Sequence["Partition"]],
    ) -> list[float]:
        """Objective value of every candidate, in input order."""

    def score_histogram_tasks(
        self, engine: "EvaluationEngine", tasks: "Sequence[list]"
    ) -> list[float]:
        """Objective value of every wire-format candidate, in input order.

        A task is a list of ``("a", atom_rows)`` / ``("m", member_indices)``
        entries, or a ``(k, bins)`` int64 matrix of the candidate's
        histograms — the atom-path dispatch formats, where candidates exist
        only as histogram recipes, never as Partition objects.  The default runs
        in-process through the engine's cache-aware scoring path; the
        process backend overrides it to fan out across workers.
        """
        engine.metrics.inc("backend.batches")
        engine.metrics.inc("backend.candidates", len(tasks))
        return engine.score_tasks_inline(tasks)

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SequentialBackend(ExecutionBackend):
    """Evaluate candidates in-process through the engine's cached path."""

    name = "sequential"
    workers = 1

    def score_partitionings(
        self,
        engine: "EvaluationEngine",
        candidates: Sequence[Sequence["Partition"]],
    ) -> list[float]:
        engine.metrics.inc("backend.batches")
        engine.metrics.inc("backend.candidates", len(candidates))
        return [engine.unfairness(candidate) for candidate in candidates]


# ----------------------------------------------------------- process workers
#
# Worker-side state lives in module globals set by the pool initializer.  The
# two big read-only arrays — the digitised scores and the atom count matrix —
# are published once through multiprocessing.shared_memory and attached here,
# so a scoring task ships only wire entries: ("a", atom_rows) for partitions
# resolvable on the atom table (a few dozen ints) or ("m", member_indices)
# for the legacy fallback.

_WORKER_STATE: dict = {}

#: Payload fields that may arrive as shared-memory descriptors.
_SHARED_FIELDS = ("bin_idx", "atom_counts")


def _shared_descriptor(array: np.ndarray) -> dict:
    """Copy one array into a new shared-memory segment; return its wire
    descriptor.  The caller owns the segment (close + unlink)."""
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
    return {
        "segment": segment,
        "shm_name": segment.name,
        "shape": array.shape,
        "dtype": str(array.dtype),
    }


def _init_worker(payload: dict) -> None:  # pragma: no cover - runs in workers
    global _WORKER_STATE
    from multiprocessing import shared_memory

    payload = dict(payload)
    attached = []
    for name in _SHARED_FIELDS:
        descriptor = payload.get(name)
        if isinstance(descriptor, dict):
            segment = shared_memory.SharedMemory(name=descriptor["shm_name"])
            attached.append(segment)
            array = np.ndarray(
                descriptor["shape"],
                dtype=np.dtype(descriptor["dtype"]),
                buffer=segment.buf,
            )
            array.setflags(write=False)
            payload[name] = array
    # Keep the SharedMemory handles alive for the worker's lifetime — the
    # arrays view their buffers.
    payload["_attached_segments"] = attached
    _WORKER_STATE = payload


def _score_wire_tasks(
    spec,
    metric,
    bin_idx: np.ndarray,
    weighting: str,
    atom_counts: "np.ndarray | None",
    chunk: "list[list[tuple]]",
    kernel: "str | None" = None,
) -> list[float]:
    """Score one chunk of wire-format candidates.

    The single scoring routine shared by pool workers and the parent's
    sequential-degradation path, so every execution route yields
    bit-identical values (see :func:`task_pmfs` for the pmfs).
    """
    from repro.engine.kernels import DEFAULT_KERNEL, full_objective

    if kernel is None:
        kernel = DEFAULT_KERNEL
    values: list[float] = []
    for entries in chunk:
        if len(entries) < 2:
            values.append(0.0)
            continue
        pmfs, sizes = task_pmfs(spec, bin_idx, atom_counts, entries)
        weights = None
        if weighting == "size":
            weights = np.array(sizes, dtype=np.float64)
        value, _ = full_objective(metric, pmfs, spec, weights, kernel=kernel)
        values.append(value)
    return values


def task_pmfs(
    spec, bin_idx: np.ndarray, atom_counts: "np.ndarray | None", task
) -> "tuple[np.ndarray, list[int]]":
    """Pmf stack and sizes of one wire-format candidate.

    A histogram-matrix task holds one row of int64 counts per partition.
    An ``("a", rows)`` entry is an int64 row-sum over the atom count
    matrix; an ``("m", members)`` entry is the legacy ``bincount`` over
    member indices.  Every form divides the same integer counts by the
    same integer size, so the pmfs match bit for bit.
    """
    if isinstance(task, np.ndarray):
        counts = task.sum(axis=1)
        return task / counts[:, np.newaxis], counts.tolist()
    pmfs = np.empty((len(task), spec.bins), dtype=np.float64)
    sizes: list[int] = []
    for i, (kind, payload) in enumerate(task):
        if kind == "a":
            counts = atom_counts[payload].sum(axis=0)
            size = int(counts.sum())
        else:
            counts = spec.histogram_from_bin_indices(bin_idx[payload])
            size = int(payload.shape[0])
        pmfs[i] = counts / size
        sizes.append(size)
    return pmfs, sizes


def _score_chunk(state: dict, chunk: "list[list[tuple]]") -> list[float]:
    """Score one chunk of wire tasks against ``state``: a pool worker's
    initializer payload, or the engine's own
    :meth:`~repro.engine.engine.EvaluationEngine.worker_payload` when the
    parent computes in-process — one routine, so both yield the same bits."""
    return _score_wire_tasks(
        state["spec"],
        state["metric"],
        state["bin_idx"],
        state["weighting"],
        state.get("atom_counts"),
        chunk,
        state.get("kernel"),
    )


def _run_chunk(
    chunk: "list[list[tuple]]", task_key: str
) -> list[float]:  # pragma: no cover - runs in workers
    """One attempt at scoring ``chunk`` under the worker's fault schedule.

    The task key seeds the fault decisions: retries roll fresh dice, so
    injected faults are transient by construction.  The order is fixed:
    hang first (the attempt becomes a straggler), then crash — a hard
    crash kills the worker — then corruption of the returned values.
    Fired faults are not counted: they happen in a worker process.
    """
    faults = _WORKER_STATE.get("faults")
    if faults is not None:
        if faults.fire("hang", task_key):
            time.sleep(faults.hang_seconds)
        if faults.fire("crash", task_key):
            if faults.crash_hard:
                os._exit(3)
            raise WorkerCrashError(f"injected crash at {task_key!r}")
    values = _score_chunk(_WORKER_STATE, chunk)
    if faults is not None and faults.fire("corrupt", task_key):
        values = corrupt_values(values, faults.seed, task_key)
    return values


class _ChunkTask:
    """One chunk's current attempt: its number, plus its future and
    deadline while the attempt is on the pool (``None`` while queued)."""

    __slots__ = ("attempt", "future", "deadline")

    def __init__(self) -> None:
        self.attempt = 0
        self.future: "Future | None" = None
        self.deadline: "float | None" = None


class ProcessPoolBackend(ExecutionBackend):
    """Fan candidate evaluation out across a pool of worker processes.

    Parameters
    ----------
    workers:
        Pool size (default: ``os.cpu_count()``).  Each batch splits into
        roughly ``4 * workers`` tasks so stragglers rebalance.
    policy:
        :class:`~repro.engine.resilience.RetryPolicy` governing per-chunk
        timeouts, retry budget, backoff and sequential degradation (default:
        ``RetryPolicy()`` — 3 retries, no timeout, fallback enabled).
    faults:
        Optional :class:`~repro.chaos.EngineFaults` schedule shipped to the
        workers; injects seeded crashes/hangs/corruption per chunk attempt.
        Hang injection requires ``policy.timeout_seconds``.
    """

    name = "process"

    def __init__(
        self,
        workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults: "EngineFaults | None" = None,
    ) -> None:
        resolved = int(workers) if workers else (os.cpu_count() or 1)
        if resolved < 1:
            raise PartitioningError(f"workers must be >= 1, got {resolved}")
        self.workers = resolved
        self.policy = policy or RetryPolicy()
        self.faults = faults
        if (
            faults is not None
            and faults.hang_rate > 0
            and not self.policy.timeout_seconds
        ):
            raise PartitioningError(
                "hang injection on the process backend requires a per-chunk "
                "timeout (RetryPolicy.timeout_seconds / --engine-timeout)"
            )
        self._pool: "ProcessPoolExecutor | None" = None
        self._engine_key: "tuple[int, int] | None" = None
        self._batch_counter = 0
        self._rebuilds = 0
        self._degraded = False
        #: Shared-memory segments owned by the current pool (closed +
        #: unlinked with it; recreated by the next _ensure_pool).
        self._segments: list = []
        #: Superseded attempts still running on the current pool: each
        #: holds a worker, so the chunk loop counts it against its window.
        self._stragglers: "set[Future]" = set()
        # Jitter source for backoff sleeps; seeded so reruns pace identically.
        self._rng = random.Random(0x5EED)

    @property
    def degraded(self) -> bool:
        """True once the pool was irrecoverable and the backend went sequential."""
        return self._degraded

    def _ensure_pool(self, engine: "EvaluationEngine") -> ProcessPoolExecutor:
        key = (id(engine), getattr(engine, "atom_version", 0))
        if self._pool is not None and self._engine_key != key:
            # A backend instance is reusable across runs; re-seed the
            # workers with the new engine's scores/metric.  The key includes
            # the engine's atom version, so a streaming engine that rebinds
            # to mutated counts republishes the shared-memory cube — and an
            # unchanged binding ("not dirty") keeps the live segments.
            self.close()
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            payload = dict(engine.worker_payload())
            payload["faults"] = self.faults
            # Publish the big read-only arrays once through shared memory;
            # workers attach by name in _init_worker, so neither the fork
            # nor any task dispatch ever copies them.
            for name in _SHARED_FIELDS:
                array = payload.get(name)
                if array is not None:
                    descriptor = _shared_descriptor(array)
                    self._segments.append(descriptor.pop("segment"))
                    payload[name] = descriptor
            engine.metrics.set_gauge(
                "engine.shared_memory_bytes",
                sum(segment.size for segment in self._segments),
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(payload,),
            )
            self._engine_key = key
        return self._pool

    def score_partitionings(
        self,
        engine: "EvaluationEngine",
        candidates: Sequence[Sequence["Partition"]],
    ) -> list[float]:
        if not candidates:
            return []
        tasks = [
            [self._wire_entry(engine, p) for p in candidate]
            for candidate in candidates
        ]
        return self._score_wire_batch(engine, tasks)

    def score_histogram_tasks(
        self, engine: "EvaluationEngine", tasks: "Sequence[list]"
    ) -> list[float]:
        if not tasks:
            return []
        return self._score_wire_batch(
            engine,
            [task if isinstance(task, np.ndarray) else list(task) for task in tasks],
        )

    @staticmethod
    def _wire_entry(engine: "EvaluationEngine", partition: "Partition") -> tuple:
        """Cheapest dispatchable form of one partition: its atom rows when
        the engine can resolve them, its member indices otherwise."""
        rows = engine.atom_rows(partition)
        if rows is not None:
            return ("a", rows)
        return ("m", partition.indices)

    def _score_wire_batch(
        self, engine: "EvaluationEngine", tasks: "list[list[tuple]]"
    ) -> list[float]:
        metrics = engine.metrics
        batch = self._batch_counter
        self._batch_counter += 1
        if self._degraded:
            values = _score_chunk(engine.worker_payload(), tasks)
        else:
            values = self._score_on_pool(engine, tasks, batch)
        metrics.inc("backend.batches")
        metrics.inc("backend.candidates", len(tasks))
        engine.record_external_evaluations(tasks)
        return values

    # -------------------------------------------------------- pool execution

    def _score_on_pool(
        self,
        engine: "EvaluationEngine",
        tasks: "list[list[tuple]]",
        batch: int,
    ) -> list[float]:
        metrics = engine.metrics
        with engine.tracer.span(
            "backend.process.dispatch", n_candidates=len(tasks)
        ) as dispatch_span, metrics.time("backend.dispatch_seconds"):
            pool = self._ensure_pool(engine)
            chunk_size = max(1, len(tasks) // (4 * self.workers))
            chunks = [
                tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)
            ]
            dispatch_span.set(n_chunks=len(chunks), chunk_size=chunk_size)
        try:
            with engine.tracer.span(
                "backend.process.collect", n_chunks=len(chunks)
            ), metrics.time("backend.collect_seconds"):
                per_chunk = self._collect(engine, pool, chunks, batch)
        except BackendExhaustedError as exc:
            if not self.policy.fallback_sequential:
                raise
            metrics.inc("engine.backend_fallbacks")
            if isinstance(exc.last_error, BrokenProcessPool):
                # The pool could not be kept alive; stop paying rebuild
                # costs and serve every later batch in-process.
                self._degraded = True
                self.close()
            with engine.tracer.span(
                "backend.fallback",
                reason=type(exc.last_error).__name__,
                n_candidates=len(tasks),
                degraded=self._degraded,
            ):
                # Same arithmetic in-process, so the same values.
                return _score_chunk(engine.worker_payload(), tasks)
        return [value for chunk_values in per_chunk for value in chunk_values]

    def _collect(
        self,
        engine: "EvaluationEngine",
        pool: ProcessPoolExecutor,
        chunks: "list[list[list[tuple]]]",
        batch: int,
    ) -> "list[list[float]]":
        """Gather all chunks, retrying/re-dispatching under the policy.

        With a per-chunk timeout at most ``workers`` attempts are on the
        pool at once — superseded stragglers still running included — and
        the other chunks wait in ``queue``: a deadline starts when a worker
        is free to take the chunk, never while it waits behind a hung one.
        Without a timeout every chunk goes to the pool at once.
        """
        policy, metrics = self.policy, engine.metrics
        results: "dict[int, list[float]]" = {}
        tasks = {i: _ChunkTask() for i in range(len(chunks))}
        queue = deque(tasks)
        window = self.workers if policy.timeout_seconds else float("inf")
        try:
            while len(results) < len(chunks):
                try:
                    self._stragglers = {f for f in self._stragglers if not f.done()}
                    on_pool = {
                        task.future: i
                        for i, task in tasks.items()
                        if task.future is not None
                    }
                    while queue and len(on_pool) + len(self._stragglers) < window:
                        i = queue[0]
                        key = f"{batch}-{i}"
                        on_pool[self._submit(pool, chunks[i], tasks[i], key)] = i
                        queue.popleft()
                    done, _ = wait(
                        set(on_pool) | self._stragglers,
                        timeout=self._wait_timeout(tasks),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        if future not in on_pool:
                            continue  # a straggler finished; its worker is free
                        i = on_pool[future]
                        try:
                            values = validate_batch(future.result(), len(chunks[i]))
                        except BrokenProcessPool:
                            raise
                        except CorruptResultError as exc:
                            metrics.inc("engine.corrupt_results")
                            self._retry_chunk(engine, tasks[i], queue, i, batch, exc)
                        except Exception as exc:  # worker-raised, incl. crashes
                            metrics.inc("engine.worker_crashes")
                            self._retry_chunk(engine, tasks[i], queue, i, batch, exc)
                        else:
                            results[i] = values
                            tasks[i].future = None
                    if policy.timeout_seconds:
                        now = time.monotonic()
                        for i, task in tasks.items():
                            if task.future is None or task.future.done():
                                continue
                            if now >= task.deadline:
                                metrics.inc("engine.timeouts")
                                metrics.inc("engine.straggler_redispatches")
                                self._stragglers.add(task.future)
                                exc = BackendTimeoutError(
                                    f"chunk {i} of batch {batch} exceeded "
                                    f"{policy.timeout_seconds}s "
                                    f"(attempt {task.attempt})"
                                )
                                self._retry_chunk(engine, task, queue, i, batch, exc)
                except BrokenProcessPool as exc:
                    pool = self._rebuild_pool(engine, tasks, queue, batch, exc)
        finally:
            # Attempts an exhausted budget leaves behind still hold workers.
            self._stragglers.update(
                task.future for task in tasks.values() if task.future is not None
            )
        return [results[i] for i in range(len(chunks))]

    def _submit(
        self, pool: ProcessPoolExecutor, chunk: list, task: _ChunkTask, key: str
    ) -> Future:
        """Put ``task``'s current attempt on the pool; its deadline starts now."""
        task.future = pool.submit(_run_chunk, chunk, f"{key}-{task.attempt}")
        timeout = self.policy.timeout_seconds
        task.deadline = time.monotonic() + timeout if timeout else None
        return task.future

    def _retry_chunk(
        self,
        engine: "EvaluationEngine",
        task: _ChunkTask,
        queue: "deque[int]",
        i: int,
        batch: int,
        exc: BaseException,
    ) -> None:
        """Queue the next attempt of one failed/straggling chunk, or give up
        typed."""
        if task.attempt >= self.policy.max_retries:
            raise BackendExhaustedError(task.attempt + 1, exc)
        engine.metrics.inc("engine.retries")
        with engine.tracer.span(
            "backend.retry",
            chunk=i,
            batch=batch,
            attempt=task.attempt + 1,
            error=type(exc).__name__,
        ):
            delay = self.policy.delay(task.attempt, self._rng)
            if delay:
                self.policy.sleep(delay)
        task.attempt += 1
        task.future = None
        queue.append(i)

    def _rebuild_pool(
        self,
        engine: "EvaluationEngine",
        tasks: "dict[int, _ChunkTask]",
        queue: "deque[int]",
        batch: int,
        exc: BaseException,
    ) -> ProcessPoolExecutor:
        """Replace a broken pool and queue every chunk that was on it again.

        Each resubmission consumes one retry from its chunk's budget, so a
        crash-looping pool still terminates in a
        :class:`~repro.exceptions.BackendExhaustedError`.
        """
        metrics = engine.metrics
        metrics.inc("engine.pool_rebuilds")
        self._rebuilds += 1
        with engine.tracer.span(
            "backend.pool_rebuild", batch=batch, rebuilds=self._rebuilds
        ):
            self.close()
            delay = self.policy.delay(self._rebuilds - 1, self._rng)
            if delay:
                self.policy.sleep(delay)
            pool = self._ensure_pool(engine)
        for i, task in tasks.items():
            if task.future is None:
                continue  # finished, or queued without reaching the pool
            if task.attempt >= self.policy.max_retries:
                raise BackendExhaustedError(task.attempt + 1, exc)
            metrics.inc("engine.retries")
            task.attempt += 1
            task.future = None
            queue.append(i)
        return pool

    @staticmethod
    def _wait_timeout(tasks: "dict[int, _ChunkTask]") -> "float | None":
        """How long ``wait`` may block: until the nearest chunk deadline."""
        deadlines = [
            task.deadline
            for task in tasks.values()
            if task.future is not None and task.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic()) + 1e-3

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._engine_key = None
        self._stragglers = set()
        # Unlink the shared segments only after the pool is gone: the
        # workers' attached views must never outlive the backing memory.
        # Robust to double-close and to rebuilds racing worker death.
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - defensive
                pass
        self._segments = []


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI ``--engine-backend``)."""
    return ("sequential", "process")


def get_backend(
    backend: "str | ExecutionBackend | None",
    workers: "int | None" = None,
    policy: "RetryPolicy | None" = None,
    faults: "EngineFaults | None" = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``policy`` / ``faults`` drive the process pool's chunk loop (per-chunk
    retries, worker-side fault injection).  The sequential backend has no
    worker process that could fail: it ignores ``policy`` and refuses an
    enabled ``faults`` schedule with
    :class:`~repro.exceptions.PartitioningError`.

    An already-constructed :class:`ExecutionBackend` instance passes through
    unchanged (it owns its own policy).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None or backend == "sequential":
        if faults is not None and faults.enabled:
            raise PartitioningError(
                "fault injection needs a worker pool (--engine-backend "
                "process); the sequential backend has no worker process to "
                "fail"
            )
        return SequentialBackend()
    if backend == "process":
        return ProcessPoolBackend(workers, policy=policy, faults=faults)
    raise PartitioningError(
        f"unknown backend {backend!r}; available: {available_backends()}"
    )
