"""Shared evaluation engine: the single substrate for unfairness queries.

See :mod:`repro.engine.engine` for the entry point
(:class:`EvaluationEngine`), :mod:`repro.engine.kernels` for the vectorized
distance kernels, :mod:`repro.engine.incremental` for O(k·Δ) frontier
updates, and :mod:`repro.engine.streaming` for O(Δ) re-audits of mutable
populations.  Every candidate is scored in-process.
"""

from repro.engine.context import SearchContext
from repro.engine.deadline import Deadline, StepDeadline
from repro.engine.engine import EngineStats, EvaluationEngine
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
