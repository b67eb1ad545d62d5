"""Call-boundary tracing for the traced benchmark runs.

The program under test is never edited: :func:`install` replaces each
layer's public functions with timing wrappers from outside, in the process
under test.  A function imported by name into another module
(``from repro.engine.kernels import pairwise_matrix``) is a second binding
of the same object, so after wrapping the defining module every loaded
``repro`` module is scanned and its bindings of the original are re-pointed
at the wrapper; a wrapper placed only on the defining module would record
nothing for those callers.

Each call becomes one span ``(name, start, end, self, id, parent, job,
info)`` held in memory and written out by :meth:`Tracer.dump` when the
process ends.  ``self`` is the span's duration minus the duration of the
wrapped calls made beneath it on the same thread; ``job`` is the audit job
being executed on that thread, where the daemon is running one; ``info``
carries the counts measured at that boundary (kernel pairs, search effort,
cache hits, bytes).  :func:`layer_metrics` folds a span file into the
per-layer metrics, restricted to a time window so a daemon's set-up and
warm-up do not count.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

#: ``repro.core.algorithms.PAPER_ALGORITHMS``, spelled out so the span
#: files can be folded without importing the program.
PAPER_ALGORITHMS = ("unbalanced", "r-unbalanced", "balanced", "r-balanced", "all-attributes")

#: ``(span name, module, attribute path)`` of every traced public function.
TARGETS = (
    ("splitting.worst_attribute", "repro.core.splitting", "worst_attribute"),
    ("splitting.worst_attribute_local", "repro.core.splitting", "worst_attribute_local"),
    ("engine.unfairness", "repro.engine.engine", "EvaluationEngine.unfairness"),
    ("engine.cross_average", "repro.engine.engine", "EvaluationEngine.cross_average"),
    ("engine.union_average", "repro.engine.engine", "EvaluationEngine.union_average"),
    (
        "engine.score_attribute_splits",
        "repro.engine.engine",
        "EvaluationEngine.score_attribute_splits",
    ),
    ("engine.split_pmfs", "repro.engine.engine", "EvaluationEngine.split_pmfs"),
    ("incremental.score_add", "repro.engine.incremental", "IncrementalObjective.score_add"),
    (
        "incremental.score_add_pmfs",
        "repro.engine.incremental",
        "IncrementalObjective.score_add_pmfs",
    ),
    ("kernels.pairwise_matrix", "repro.engine.kernels", "pairwise_matrix"),
    ("kernels.cross_matrix", "repro.engine.kernels", "cross_matrix"),
    ("kernels.full_objective", "repro.engine.kernels", "full_objective"),
    ("atoms.build", "repro.engine.atoms", "AtomTable.build"),
    ("context.should_stop", "repro.engine.context", "SearchContext.should_stop"),
    ("runner.run_scenario", "repro.simulation.runner", "run_scenario"),
    ("checkpoint.record", "repro.simulation.checkpoint", "CheckpointStore.record"),
    ("http.dispatch", "repro.service.http", "dispatch"),
    ("server.submit", "repro.service.server", "AuditService.submit"),
    ("server.submit_many", "repro.service.server", "AuditService.submit_many"),
    ("journal.append", "repro.service.journal", "JobJournal.append"),
    ("journal.sync", "repro.service.journal", "JobJournal.sync"),
    ("scheduling.get_batch", "repro.service.scheduling", "TenantScheduler.get_batch"),
    ("cache.get", "repro.service.cache", "CrossJobCache.get"),
    ("cache.put", "repro.service.cache", "CrossJobCache.put"),
)

#: ``http.dispatch`` spans are named by route.
ROUTES = {
    ("POST", "/v1/jobs"): "post_jobs",
    ("POST", "/v1/jobs/batch"): "post_jobs_batch",
    ("GET", "/v1/healthz"): "get_healthz",
}


def route_name(method: str, target: str) -> str:
    path = target.split("?", 1)[0]
    name = ROUTES.get((method, path))
    if name is not None:
        return name
    if method == "GET" and path.startswith("/v1/jobs/"):
        return "get_job"
    return "other"


class Tracer:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, before=None, after=None):
        """Timing wrapper around ``fn``.

        ``name`` is a string or a callable of the call's arguments.
        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, before_value)``, whose
        return value becomes the span's ``info``.
        """
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_name = name if isinstance(name, str) else name(args, kwargs)
            noted = before(args, kwargs) if before is not None else None
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
            info = after(args, kwargs, result, noted) if after is not None else None
            spans.append(
                (
                    span_name,
                    start,
                    end,
                    duration - frame[1],
                    frame[0],
                    parent,
                    getattr(local, "job", None),
                    info,
                )
            )
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span recorded so far to ``path`` as JSON."""
        names: dict = {}
        rows = []
        for name, start, end, self_s, span_id, parent, job, info in list(self.spans):
            index = names.setdefault(name, len(names))
            rows.append([index, start, end, self_s, span_id, parent, job, info])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)


# --------------------------------------------------------------- count hooks


def _kernel_before(args, kwargs):
    counters = kwargs.get("counters")
    if counters is None:
        return None
    return counters.get("pairs_evaluated", 0), counters.get("pairs_served", 0)


def _kernel_after(args, kwargs, result, before):
    if before is None:
        return None
    counters = kwargs["counters"]
    return [
        counters.get("pairs_evaluated", 0) - before[0],
        counters.get("pairs_served", 0) - before[1],
    ]


def _run_after(args, kwargs, result, before):
    return [
        result.n_evaluations,
        result.cache_hits,
        result.n_full_evaluations,
        result.pair_distances_computed,
        result.pair_distances_full,
    ]


def _cache_get_after(args, kwargs, result, before):
    material = args[1]
    return [result is not None, bool(material) and material[0] == "experiment"]


def _cache_put_before(args, kwargs):
    return args[0].evictions


def _cache_put_after(args, kwargs, result, before):
    nbytes = args[3] if len(args) > 3 else kwargs["nbytes"]
    return [int(nbytes), args[0].evictions - before]


def _batch_after(args, kwargs, result, before):
    return len(result) if result else 0


HOOKS = {
    "scheduling.get_batch": (None, _batch_after),
    "kernels.pairwise_matrix": (_kernel_before, _kernel_after),
    "kernels.cross_matrix": (_kernel_before, _kernel_after),
    "cache.get": (None, _cache_get_after),
    "cache.put": (_cache_put_before, _cache_put_after),
}


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _rebind(original, wrapper) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the program in this process."""
    from repro.core.algorithms import get_algorithm
    from repro.service.server import AuditService

    for name, module_name, path in TARGETS:
        module, owner, attr = _resolve(module_name, path)
        before, after = HOOKS.get(name, (None, None))
        span_name = name
        if name == "http.dispatch":
            span_name = lambda args, kwargs: "http.dispatch." + route_name(args[1], args[2])
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, span_name, before, after)))
        elif owner is module:
            wrapper = tracer.wrap(raw, span_name, before, after)
            _rebind(raw, wrapper)
        else:
            setattr(owner, attr, tracer.wrap(raw, span_name, before, after))

    # Each paper algorithm inherits ``run`` from the base class; every
    # concrete class gets its own wrapper so spans carry the algorithm.
    for algorithm in PAPER_ALGORITHMS:
        cls = type(get_algorithm(algorithm))
        cls.run = tracer.wrap(cls.run, f"algorithms.{algorithm}", after=_run_after)

    # Tag the executing thread with the job id so spans beneath carry it.
    execute = AuditService._execute
    local = tracer._local

    @functools.wraps(execute)
    def tagged_execute(self, job):
        local.job = job.id
        try:
            return execute(self, job)
        finally:
            local.job = None

    AuditService._execute = tagged_execute


# -------------------------------------------------------------- aggregation

#: Counted layers and the statistics each reports (see BENCHMARK.json).
CALL_METRICS = {
    "splitting.worst_attribute": ("calls", "self_s"),
    "splitting.worst_attribute_local": ("calls", "self_s"),
    "engine.unfairness": ("calls", "self_s"),
    "engine.cross_average": ("calls", "self_s"),
    "engine.union_average": ("calls", "self_s"),
    "engine.score_attribute_splits": ("calls", "self_s"),
    "engine.split_pmfs": ("calls", "self_s"),
    "incremental.score_add": ("calls", "self_s"),
    "incremental.score_add_pmfs": ("calls", "self_s"),
    "kernels.pairwise_matrix": ("calls", "self_s"),
    "kernels.cross_matrix": ("calls", "self_s"),
    "kernels.full_objective": ("calls", "self_s"),
    "atoms.build": ("calls", "s"),
    "context.should_stop": ("calls", "s"),
    "runner.run_scenario": ("calls", "s"),
    "checkpoint.record": ("calls", "s"),
    "http.dispatch.post_jobs": ("calls", "self_s"),
    "http.dispatch.post_jobs_batch": ("calls", "self_s"),
    "http.dispatch.get_job": ("calls", "self_s"),
    "http.dispatch.get_healthz": ("calls", "self_s"),
    "server.submit": ("calls", "s"),
    "server.submit_many": ("calls", "s"),
    "journal.append": ("calls", "s"),
    "journal.sync": ("calls", "s"),
    "scheduling.get_batch": ("calls", "s"),
    "cache.get": ("calls", "s"),
    "cache.put": ("calls", "s"),
}
for _algorithm in PAPER_ALGORITHMS:
    CALL_METRICS[f"algorithms.{_algorithm}"] = ("s", "self_s")

def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    names = payload["names"]
    return [[names[row[0]]] + row[1:] for row in payload["spans"]]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list, window: "tuple[float, float] | None" = None) -> dict:
    """Per-layer metrics from ``spans`` that started inside ``window``.

    Returns ``{name: value}``: ``<layer>.calls`` / ``.s`` / ``.self_s``
    for :data:`CALL_METRICS` plus the ratios and counts derived from the
    spans' ``info``.
    """
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    effort = [0, 0, 0, 0, 0]
    pairs = [0, 0]
    gets = hits = memo_gets = memo_hits = put_bytes = evictions = 0
    batches = batched_jobs = 0
    for name, start, end, self_s, _id, _parent, _job, info in spans:
        if window is not None and not window[0] <= start <= window[1]:
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        if info is None:
            continue
        if name.startswith("algorithms."):
            effort = [a + b for a, b in zip(effort, info)]
        elif name.startswith("kernels."):
            pairs = [pairs[0] + info[0], pairs[1] + info[1]]
        elif name == "cache.get":
            gets += 1
            hits += bool(info[0])
            if info[1]:
                memo_gets += 1
                memo_hits += bool(info[0])
        elif name == "cache.put":
            put_bytes += info[0]
            evictions += info[1]
        elif name == "scheduling.get_batch" and info:
            batches += 1
            batched_jobs += info
    metrics = {}
    for name, stats in CALL_METRICS.items():
        for stat in stats:
            source = {"calls": calls, "s": total, "self_s": own}[stat]
            metrics[f"{name}.{stat}"] = source.get(name, 0)
    evaluations, cache_hits, full, computed, full_pairs = effort
    metrics.update(
        {
            "algorithms.evaluations": evaluations,
            "algorithms.full_evaluations": full,
            "engine.value_cache_hit_ratio": _ratio(cache_hits, evaluations),
            "incremental.pair_distances_computed": computed,
            "incremental.pair_distances_full": full_pairs,
            "incremental.pairs_avoided_ratio": (
                1.0 - _ratio(computed, full_pairs) if full_pairs else 0.0
            ),
            "kernels.pairs_evaluated": pairs[0],
            "kernels.pairs_served": pairs[1],
            "kernels.dedup_saving": 1.0 - _ratio(pairs[0], pairs[1]) if pairs[1] else 0.0,
            "cache.hit_ratio": _ratio(hits, gets),
            "cache.memo_hit_share": _ratio(memo_hits, memo_gets),
            "cache.put_bytes": put_bytes,
            "cache.evictions": evictions,
            "journal.records_per_sync": _ratio(
                calls.get("journal.append", 0), calls.get("journal.sync", 0)
            ),
            "scheduling.jobs_per_batch": _ratio(batched_jobs, batches),
        }
    )
    return metrics
