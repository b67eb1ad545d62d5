"""Shared evaluation engine: the single substrate for unfairness queries.

See :mod:`repro.engine.engine` for the entry point
(:class:`EvaluationEngine`), :mod:`repro.engine.kernels` for the vectorized
distance kernels, :mod:`repro.engine.incremental` for O(k·Δ) frontier
updates, :mod:`repro.engine.backends` for the execution backends (the
process pool's chunk loop is the one retry loop),
:mod:`repro.engine.resilience` for its retry/timeout/fallback policy,
and :mod:`repro.engine.streaming` for O(Δ) re-audits of mutable
populations.  Fault injection into pool workers lives in
:mod:`repro.chaos`.
"""

from repro.engine.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SequentialBackend,
    available_backends,
    get_backend,
)
from repro.engine.context import SearchContext
from repro.engine.deadline import Deadline, StepDeadline
from repro.engine.engine import EngineStats, EvaluationEngine
from repro.engine.resilience import RetryPolicy, validate_batch
from repro.engine.incremental import FullRecomputeObjective, IncrementalObjective
from repro.engine.kernels import (
    DEFAULT_KERNEL,
    KERNEL_BACKENDS,
    average_from_matrix,
    cross_matrix,
    full_objective,
    has_vectorized_kernel,
    pairwise_matrix,
    resolve_kernel_backend,
)
from repro.engine.pricing import (
    RepricingReport,
    group_pmfs,
    partition_codes,
    price_repair,
)
from repro.engine.streaming import (
    MutableAtomState,
    StreamingAuditor,
    StreamingAuditReport,
    StreamingEngine,
    proxy_population,
)

__all__ = [
    "EvaluationEngine",
    "EngineStats",
    "SearchContext",
    "Deadline",
    "StepDeadline",
    "ExecutionBackend",
    "SequentialBackend",
    "ProcessPoolBackend",
    "available_backends",
    "get_backend",
    "RetryPolicy",
    "validate_batch",
    "IncrementalObjective",
    "FullRecomputeObjective",
    "cross_matrix",
    "pairwise_matrix",
    "average_from_matrix",
    "full_objective",
    "has_vectorized_kernel",
    "KERNEL_BACKENDS",
    "DEFAULT_KERNEL",
    "resolve_kernel_backend",
    "RepricingReport",
    "group_pmfs",
    "partition_codes",
    "price_repair",
    "MutableAtomState",
    "StreamingAuditor",
    "StreamingAuditReport",
    "StreamingEngine",
    "proxy_population",
]
