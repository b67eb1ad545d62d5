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
* :class:`ShardedBackend` — splits each large candidate's histograms across
  the same pool by atom-range and merges the partial counts in order.

The process pool's chunk loop is the one retry loop in the engine, and
:class:`ShardedBackend` sends its shard-sum chunks through it too: each
chunk is dispatched with an optional deadline and retried under the
backend's :class:`~repro.engine.resilience.RetryPolicy` — stragglers are
re-dispatched on timeout, crashed chunks are retried with exponential
backoff + jitter, a broken pool is rebuilt, and when the pool is
irrecoverable the batch (and, for repeated pool breakage, the whole
backend) degrades to the in-process path, which computes the *same
values* through the same arithmetic.  Exhausting the budget with fallback
disabled raises a typed :class:`~repro.exceptions.BackendExhaustedError`.
A seeded :class:`~repro.engine.faults.FaultConfig` can be attached to
inject crashes, hangs and corrupt returns inside the workers (chaos mode /
test harness).  The sequential backend has no worker process that could
fail, so it takes neither.

Backends are selected from the CLI via ``--engine-backend
{sequential,process,sharded}`` and ``--engine-workers N`` and are recorded in
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
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import (
    BackendExhaustedError,
    BackendTimeoutError,
    CorruptResultError,
    PartitioningError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import Partition
    from repro.engine.engine import EvaluationEngine
    from repro.engine.faults import FaultConfig
    from repro.engine.resilience import RetryPolicy

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
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
        entries — the atom-path dispatch format, where candidates exist only
        as histogram recipes, never as Partition objects.  The default runs
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
    bit-identical values.  An ``("a", rows)`` entry is an int64 row-sum
    over the atom count matrix; an ``("m", members)`` entry is the legacy
    ``bincount`` over member indices — both divide the same integer counts
    by the same integer size, so the pmfs match bit for bit.  An
    ``("h", counts, size)`` entry is a pre-merged int64 histogram (the
    sharded backend's shard-sum output): the identical counts divided by
    the identical size, so it too lands on the same pmf bytes.
    """
    from repro.engine.kernels import DEFAULT_KERNEL, full_objective

    if kernel is None:
        kernel = DEFAULT_KERNEL
    values: list[float] = []
    for entries in chunk:
        if len(entries) < 2:
            values.append(0.0)
            continue
        pmfs = np.empty((len(entries), spec.bins), dtype=np.float64)
        sizes: list[int] = []
        for i, entry in enumerate(entries):
            kind, payload = entry[0], entry[1]
            if kind == "h":
                counts = payload
                size = int(entry[2])
            elif kind == "a":
                counts = atom_counts[payload].sum(axis=0)
                size = int(counts.sum())
            else:
                counts = spec.histogram_from_bin_indices(bin_idx[payload])
                size = int(payload.shape[0])
            pmfs[i] = counts / size
            sizes.append(size)
        weights = None
        if weighting == "size":
            weights = np.array(sizes, dtype=np.float64)
        value, _ = full_objective(metric, pmfs, spec, weights, kernel=kernel)
        values.append(value)
    return values


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


def _sum_wire_ranges(state: dict, ranges: "list[tuple]") -> "list[np.ndarray]":
    """Partial int64 histograms of one chunk of shard ranges, in order.

    Each range is an ``("a", rows_slice)`` / ``("m", member_slice)`` entry
    exactly as in :func:`_score_wire_tasks`; the returned count vectors are
    the same integer sums that routine would compute for the slice, so
    merging contiguous slices back in shard order reproduces the unsharded
    histogram bit for bit (int64 addition is exact).  ``state`` is as in
    :func:`_score_chunk`, so a shard summed in a worker or in the parent
    carries identical integers.
    """
    spec, bin_idx, atom_counts = state["spec"], state["bin_idx"], state["atom_counts"]
    out: "list[np.ndarray]" = []
    for kind, payload in ranges:
        if kind == "a":
            out.append(atom_counts[payload].sum(axis=0))
        else:
            out.append(spec.histogram_from_bin_indices(bin_idx[payload]))
    return out


def _run_chunk(
    fn, chunk: list, task_key: str
) -> list:  # pragma: no cover - runs in workers
    """One attempt of ``fn`` over ``chunk`` under the worker's fault schedule.

    The task key seeds the fault decisions: retries roll fresh dice, so
    injected faults are transient by construction.
    """
    faults = _WORKER_STATE.get("faults")
    if faults is not None:
        faults.maybe_crash_or_hang(task_key)
    values = fn(_WORKER_STATE, chunk)
    if faults is not None and faults.roll("corrupt", task_key):
        values = faults.corrupt_values(values, task_key)
    return values


def _validate_counts(values: "list | None", expected: int) -> list:
    """:func:`~repro.engine.resilience.validate_batch` for shard sums: the
    chunk must return ``expected`` integer count vectors."""
    if values is None or len(values) != expected:
        raise CorruptResultError(
            f"backend returned {0 if values is None else len(values)} partial "
            f"histograms for {expected} shards"
        )
    for counts in values:
        if not (isinstance(counts, np.ndarray) and counts.dtype.kind == "i"):
            raise CorruptResultError(f"backend returned damaged counts {counts!r}")
    return list(values)


class _ChunkTask:
    """Bookkeeping for one in-flight chunk: worker function, future,
    attempt, deadline."""

    __slots__ = ("fn", "future", "attempt", "deadline")

    def __init__(
        self, fn, future: Future, attempt: int, deadline: "float | None"
    ) -> None:
        self.fn = fn
        self.future = future
        self.attempt = attempt
        self.deadline = deadline


class ProcessPoolBackend(ExecutionBackend):
    """Fan candidate evaluation out across a pool of worker processes.

    Parameters
    ----------
    workers:
        Pool size (default: ``os.cpu_count()``).
    chunk_size:
        Candidates per task; default splits each batch into roughly
        ``4 * workers`` tasks so stragglers rebalance.
    policy:
        :class:`~repro.engine.resilience.RetryPolicy` governing per-chunk
        timeouts, retry budget, backoff and sequential degradation (default:
        ``RetryPolicy()`` — 3 retries, no timeout, fallback enabled).
    faults:
        Optional :class:`~repro.engine.faults.FaultConfig` shipped to the
        workers; injects seeded crashes/hangs/corruption per chunk attempt.
        Hang injection requires ``policy.timeout_seconds``.
    """

    name = "process"

    def __init__(
        self,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults: "FaultConfig | None" = None,
    ) -> None:
        from repro.engine.resilience import RetryPolicy

        resolved = int(workers) if workers else (os.cpu_count() or 1)
        if resolved < 1:
            raise PartitioningError(f"workers must be >= 1, got {resolved}")
        self.workers = resolved
        self.chunk_size = chunk_size
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
        return self._score_wire_batch(engine, [list(task) for task in tasks])

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
            chunk_size = self.chunk_size or max(
                1, len(tasks) // (4 * self.workers) or 1
            )
            chunks = [
                tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)
            ]
            dispatch_span.set(n_chunks=len(chunks), chunk_size=chunk_size)
        from repro.engine.resilience import validate_batch

        per_chunk = self._map_chunks(
            engine, pool, _score_chunk, validate_batch, chunks, batch
        )
        return [value for chunk_values in per_chunk for value in chunk_values]

    def _map_chunks(
        self,
        engine: "EvaluationEngine",
        pool: ProcessPoolExecutor,
        fn,
        validate,
        chunks: "list[list]",
        batch: int,
    ) -> "list[list]":
        """``fn(state, chunk)`` over every chunk on the pool, under the
        retry policy.

        ``validate(values, len(chunk))`` vets each returned chunk.  When the
        budget runs out with fallback enabled, every chunk is recomputed
        in-process against the engine's :meth:`worker_payload` — the same
        arithmetic, so the same values.
        """
        metrics = engine.metrics
        try:
            with engine.tracer.span(
                "backend.process.collect", n_chunks=len(chunks)
            ), metrics.time("backend.collect_seconds"):
                return self._collect(engine, pool, fn, validate, chunks, batch)
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
                n_candidates=sum(len(chunk) for chunk in chunks),
                degraded=self._degraded,
            ):
                payload = engine.worker_payload()
                return [fn(payload, chunk) for chunk in chunks]

    def _collect(
        self,
        engine: "EvaluationEngine",
        pool: ProcessPoolExecutor,
        fn,
        validate,
        chunks: "list[list]",
        batch: int,
    ) -> "list[list]":
        """Gather all chunks, retrying/re-dispatching under the policy."""
        policy, metrics = self.policy, engine.metrics
        results: "dict[int, list]" = {}
        state: "dict[int, _ChunkTask]" = {}
        for i in range(len(chunks)):
            try:
                state[i] = self._submit(pool, fn, chunks, i, batch, 0)
            except BrokenProcessPool as exc:
                # A worker hard-crashed on an earlier batch; replace the
                # pool (re-dispatching anything already submitted) first.
                pool = self._rebuild_pool(engine, chunks, state, results, batch, exc)
                state[i] = self._submit(pool, fn, chunks, i, batch, 0)
        while len(results) < len(chunks):
            try:
                current = {
                    task.future: i
                    for i, task in state.items()
                    if i not in results
                }
                done, _ = wait(
                    set(current),
                    timeout=self._wait_timeout(state, results),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    i = current[future]
                    task = state[i]
                    if task.future is not future:
                        continue  # superseded straggler; result discarded
                    try:
                        values = validate(future.result(), len(chunks[i]))
                    except BrokenProcessPool:
                        raise
                    except CorruptResultError as exc:
                        metrics.inc("engine.corrupt_results")
                        pool = self._retry_chunk(engine, pool, chunks, state, i, batch, exc)
                    except Exception as exc:  # worker-raised, incl. crashes
                        metrics.inc("engine.worker_crashes")
                        pool = self._retry_chunk(engine, pool, chunks, state, i, batch, exc)
                    else:
                        results[i] = values
                if policy.timeout_seconds:
                    now = time.monotonic()
                    for i, task in list(state.items()):
                        if i in results or task.future.done():
                            continue
                        if task.deadline is not None and now >= task.deadline:
                            metrics.inc("engine.timeouts")
                            metrics.inc("engine.straggler_redispatches")
                            exc = BackendTimeoutError(
                                f"chunk {i} of batch {batch} exceeded "
                                f"{policy.timeout_seconds}s (attempt {task.attempt})"
                            )
                            pool = self._retry_chunk(
                                engine, pool, chunks, state, i, batch, exc
                            )
            except BrokenProcessPool as exc:
                pool = self._rebuild_pool(engine, chunks, state, results, batch, exc)
        return [results[i] for i in range(len(chunks))]

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        fn,
        chunks: "list[list]",
        i: int,
        batch: int,
        attempt: int,
    ) -> _ChunkTask:
        future = pool.submit(_run_chunk, fn, chunks[i], f"{batch}-{i}-{attempt}")
        deadline = (
            time.monotonic() + self.policy.timeout_seconds
            if self.policy.timeout_seconds
            else None
        )
        return _ChunkTask(fn, future, attempt, deadline)

    def _retry_chunk(
        self,
        engine: "EvaluationEngine",
        pool: ProcessPoolExecutor,
        chunks: "list[list]",
        state: "dict[int, _ChunkTask]",
        i: int,
        batch: int,
        exc: BaseException,
    ) -> ProcessPoolExecutor:
        """Re-dispatch one failed/straggling chunk, or give up typed."""
        task = state[i]
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
        state[i] = self._submit(pool, task.fn, chunks, i, batch, task.attempt + 1)
        return pool

    def _rebuild_pool(
        self,
        engine: "EvaluationEngine",
        chunks: "list[list]",
        state: "dict[int, _ChunkTask]",
        results: "dict[int, list]",
        batch: int,
        exc: BaseException,
    ) -> ProcessPoolExecutor:
        """Replace a broken pool and re-dispatch every unfinished chunk.

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
        for i, task in list(state.items()):
            if i in results:
                continue
            if task.attempt >= self.policy.max_retries:
                raise BackendExhaustedError(task.attempt + 1, exc)
            metrics.inc("engine.retries")
            state[i] = self._submit(pool, task.fn, chunks, i, batch, task.attempt + 1)
        return pool

    def _wait_timeout(
        self,
        state: "dict[int, _ChunkTask]",
        results: "dict[int, list]",
    ) -> "float | None":
        """How long ``wait`` may block: until the nearest chunk deadline."""
        if not self.policy.timeout_seconds:
            return None
        deadlines = [
            task.deadline
            for i, task in state.items()
            if i not in results and task.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic()) + 1e-3

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._engine_key = None
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


class ShardedBackend(ProcessPoolBackend):
    """Split each *candidate's histograms* across worker processes by
    atom-range and merge deterministically.

    Where :class:`ProcessPoolBackend` parallelises across candidates (one
    chunk of whole tasks per worker), this backend parallelises *inside*
    large candidates: every ``("a", rows)`` / ``("m", members)`` wire entry
    with at least ``shard_min_rows`` rows is cut into up to ``workers``
    contiguous range shards, the pool computes each shard's partial int64
    histogram against the shared-memory count cube, and the parent merges
    the partials back **in shard order** before scoring the merged
    ``("h", counts, size)`` entries through the exact
    :func:`_score_wire_tasks` arithmetic.

    Bit-identity argument (pinned by ``tests/parity/test_sharded_parity.py``):
    the unsharded histogram is ``atom_counts[rows].sum(axis=0)`` — an exact
    int64 sum, so partial sums over contiguous slices re-added in slice
    order produce the *same integers*; the pmf is those integers divided by
    the same integer size, hence the same float64 bytes; and
    ``full_objective`` then sees inputs identical to the sequential path.
    Shard sums travel through the pool's chunk loop like any other chunk,
    and an exhausted budget degrades them to the identical local
    computation, so results never depend on where shards ran.

    Entries below ``shard_min_rows`` are summed locally — shipping a dozen
    atom ids to another process costs more than the row-sum itself.
    """

    name = "sharded"

    def __init__(
        self,
        workers: "int | None" = None,
        shard_min_rows: int = 512,
        chunk_size: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults: "FaultConfig | None" = None,
    ) -> None:
        super().__init__(workers, chunk_size=chunk_size, policy=policy, faults=faults)
        if shard_min_rows < 2:
            raise PartitioningError(
                f"shard_min_rows must be >= 2, got {shard_min_rows}"
            )
        self.shard_min_rows = shard_min_rows

    def _score_wire_batch(
        self, engine: "EvaluationEngine", tasks: "list[list[tuple]]"
    ) -> list[float]:
        metrics = engine.metrics
        batch = self._batch_counter
        self._batch_counter += 1
        merged = self._merge_sharded(engine, tasks, batch)
        values = _score_chunk(engine.worker_payload(), merged)
        metrics.inc("backend.batches")
        metrics.inc("backend.candidates", len(tasks))
        engine.record_external_evaluations(tasks)
        return values

    def _merge_sharded(
        self, engine: "EvaluationEngine", tasks: "list[list[tuple]]", batch: int
    ) -> "list[list[tuple]]":
        """Tasks with every large entry replaced by its merged histogram."""
        out = [list(task) for task in tasks]
        plan: "list[tuple[int, int, int, int, int]]" = []
        shards: "list[tuple]" = []
        for ti, task in enumerate(out):
            for ei, entry in enumerate(task):
                kind, payload = entry[0], entry[1]
                if kind not in ("a", "m"):
                    continue
                n_rows = int(payload.shape[0])
                if n_rows < self.shard_min_rows:
                    continue
                n_shards = min(self.workers, n_rows // (self.shard_min_rows // 2))
                if n_shards < 2:
                    continue
                start = len(shards)
                shards.extend(
                    (kind, piece) for piece in np.array_split(payload, n_shards)
                )
                plan.append((ti, ei, start, n_shards, n_rows))
        if not plan or self._degraded:
            return out
        partials = self._partials(engine, shards, batch)
        engine.metrics.inc("engine.shards_dispatched", len(shards))
        for ti, ei, start, n_shards, n_rows in plan:
            counts = partials[start].copy()
            for j in range(1, n_shards):  # merge in shard order: exact int64
                counts += partials[start + j]
            size = (
                int(counts.sum()) if out[ti][ei][0] == "a" else n_rows
            )
            out[ti][ei] = ("h", counts, size)
        return out

    def _partials(
        self, engine: "EvaluationEngine", shards: "list[tuple]", batch: int
    ) -> "list[np.ndarray]":
        """Every shard's partial histogram, summed through the pool's chunk
        loop (deadlines, injected faults, retries, pool rebuilds).

        An exhausted budget with fallback enabled sums the shards in the
        parent with the identical arithmetic, so a broken pool changes
        *where* integers are added, never which integers.
        """
        chunk_size = max(1, len(shards) // (2 * self.workers) or 1)
        chunks = [
            shards[i : i + chunk_size] for i in range(0, len(shards), chunk_size)
        ]
        per_chunk = self._map_chunks(
            engine,
            self._ensure_pool(engine),
            _sum_wire_ranges,
            _validate_counts,
            chunks,
            batch,
        )
        return [counts for chunk_counts in per_chunk for counts in chunk_counts]


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI ``--engine-backend``)."""
    return ("sequential", "process", "sharded")


def get_backend(
    backend: "str | ExecutionBackend | None",
    workers: "int | None" = None,
    policy: "RetryPolicy | None" = None,
    faults: "FaultConfig | None" = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``policy`` / ``faults`` drive the pool backends' chunk loop (per-chunk
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
                "process or sharded); the sequential backend has no worker "
                "process to fail"
            )
        return SequentialBackend()
    if backend == "process":
        return ProcessPoolBackend(workers, policy=policy, faults=faults)
    if backend == "sharded":
        return ShardedBackend(workers, policy=policy, faults=faults)
    raise PartitioningError(
        f"unknown backend {backend!r}; available: {available_backends()}"
    )
