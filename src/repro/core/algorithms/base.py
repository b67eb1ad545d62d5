"""Common interface, result type and registry for partitioning algorithms.

Every algorithm searches for a full disjoint partitioning of a population on
its protected attributes that maximises average pairwise histogram distance
(Definition 1 of the paper).  They differ only in how they navigate the
exponential space; all of them run through the same entry point::

    result = get_algorithm("balanced").run(population, scores)

which yields an :class:`AlgorithmResult` carrying the partitioning, its
unfairness, wall-clock runtime and search-effort statistics — the quantities
the paper reports in Tables 1–3.

Evaluation is served by one :class:`~repro.engine.engine.EvaluationEngine`
per run (cache, vectorized kernels, incremental updates); algorithms
receive it inside a :class:`~repro.engine.context.SearchContext` and never
construct evaluator machinery themselves.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition, Partitioning
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.engine.context import SearchContext
from repro.engine.engine import EvaluationEngine
from repro.exceptions import PartitioningError
from repro.metrics.base import HistogramDistance
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "AlgorithmResult",
    "PartitioningAlgorithm",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
]


@dataclass(frozen=True)
class AlgorithmResult:
    """Outcome of one algorithm run.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm that produced this result.
    partitioning:
        The returned full disjoint partitioning.
    unfairness:
        Its average pairwise distance (the objective value; "Average EMD" in
        the paper's tables when the metric is EMD).
    runtime_seconds:
        Wall-clock search time, the paper's "time (in secs)" column.
    n_evaluations:
        Number of partitioning evaluations the search performed.
    metric:
        Name of the histogram distance that was optimised.
    cache_hits:
        Objective queries answered from the engine's value cache.
    n_full_evaluations:
        Queries that recomputed the objective from scratch.
    n_incremental_evaluations:
        Queries answered by an O(k·Δ) incremental frontier update.
    pair_distances_computed:
        Individual pairwise distances actually materialised.
    pair_distances_full:
        The naive dense cost — C(k, 2) summed over every query — that a
        cache-less, closed-form-less evaluator would have paid.
    deadline_hit:
        True when the search stopped at an iteration boundary because its
        cooperative deadline expired; the partitioning is then the partial
        result at the cutoff (bit-identical to the same-iteration prefix of
        an unbounded run), not the search's natural fixpoint.
    """

    algorithm: str
    partitioning: Partitioning
    unfairness: float
    runtime_seconds: float
    n_evaluations: int
    metric: str
    cache_hits: int = 0
    n_full_evaluations: int = 0
    n_incremental_evaluations: int = 0
    pair_distances_computed: int = 0
    pair_distances_full: int = 0
    deadline_hit: bool = False

    def describe(self, schema: WorkerSchema) -> str:
        """Multi-line human-readable summary of the result."""
        lines = [
            f"algorithm     : {self.algorithm}",
            f"unfairness    : {self.unfairness:.4f} ({self.metric})",
            f"partitions    : {self.partitioning.k}",
            f"attributes    : {', '.join(self.partitioning.attributes_used()) or '(none)'}",
            f"runtime       : {self.runtime_seconds:.4f}s "
            f"({self.n_evaluations} partitioning evaluations)",
            f"engine        : cache_hits={self.cache_hits} "
            f"pair_distances={self.pair_distances_computed}/{self.pair_distances_full}",
        ]
        if self.deadline_hit:
            lines.append("deadline      : hit — partial result at the cutoff boundary")
        lines.extend("  " + d for d in self.partitioning.describe(schema))
        return "\n".join(lines)


class PartitioningAlgorithm(abc.ABC):
    """Base class: timing, engine setup and result assembly.

    Subclasses implement :meth:`_search`, returning the leaf partitions of
    the partitioning they settled on.
    """

    #: Registry key; subclasses must set this.
    name: str = ""

    def run(
        self,
        population: Population,
        scores: np.ndarray,
        hist_spec: HistogramSpec | None = None,
        metric: "str | HistogramDistance" = "emd",
        rng: "np.random.Generator | int | None" = None,
        weighting: str = "uniform",
        engine_mode: str = "incremental",
        tracer: "Tracer | NullTracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        use_atoms: "bool | None" = None,
        deadline=None,
        engine_factory=None,
        kernel: "str | None" = None,
    ) -> AlgorithmResult:
        """Search for the most unfair partitioning of ``population`` under ``scores``.

        Parameters
        ----------
        population:
            Worker store whose protected attributes define the search space.
        scores:
            One score per worker in the histogram spec's range.
        hist_spec:
            Score binning (default: 10 equal bins over [0, 1]).
        metric:
            Histogram distance to maximise (default: the paper's EMD).
        rng:
            Randomness source; only the ``r-*`` baselines use it.
        weighting:
            ``"uniform"`` (the paper's objective) or ``"size"`` (pairs
            weighted by group sizes; see
            :class:`~repro.core.unfairness.UnfairnessEvaluator`).
        engine_mode:
            ``"incremental"`` (default) or ``"full"`` — see
            :class:`~repro.engine.engine.EvaluationEngine`.
        tracer, metrics:
            Observability hooks forwarded to the engine (see
            :mod:`repro.obs`).  With a real tracer the whole run is wrapped
            in an ``algorithm.<name>`` span; the default no-op tracer makes
            the instrumentation free.
        use_atoms:
            Atom-table fast path switch forwarded to the engine (default
            on in incremental mode; ``False`` forces the member-array cost
            model — results are bit-identical either way).
        deadline:
            Optional cooperative compute budget (a
            :class:`~repro.engine.deadline.Deadline` or any object with an
            ``expired()`` method).  The search polls it at iteration
            boundaries and, once spent, returns the partial result reached
            so far with ``deadline_hit=True`` instead of running on.
        engine_factory:
            Optional callable constructing (or re-using) the evaluation
            engine; called with the same keyword arguments
            :class:`~repro.engine.engine.EvaluationEngine` would receive.
            The streaming layer passes one that keeps a persistent
            :class:`~repro.engine.streaming.StreamingEngine` warm across
            re-audits instead of rebuilding per run.
        kernel:
            Kernel backend for the distance computations (``"numpy"`` /
            ``"scalar"``; ``None`` = default).  Bit-identical
            across backends — purely a cost-model switch, like
            ``use_atoms``.
        """
        if population.size == 0:
            raise PartitioningError("cannot partition an empty population")
        factory = engine_factory if engine_factory is not None else EvaluationEngine
        engine = factory(
            population,
            scores,
            hist_spec=hist_spec,
            metric=metric,
            weighting=weighting,
            mode=engine_mode,
            tracer=tracer,
            metrics=metrics,
            use_atoms=use_atoms,
            kernel=kernel,
        )
        generator = (
            np.random.default_rng(rng)
            if not isinstance(rng, np.random.Generator)
            else rng
        )
        context = SearchContext(
            population=population, engine=engine, rng=generator, deadline=deadline
        )
        run_tracer = tracer if tracer is not None else NULL_TRACER
        start = time.perf_counter()
        try:
            with run_tracer.span(
                f"algorithm.{self.name}",
                algorithm=self.name,
                population=population.size,
            ) as run_span:
                partitions = self._search(context)
                partitioning = Partitioning(partitions, population.size)
                final_unfairness = engine.unfairness(partitioning)
                run_span.set(
                    unfairness=final_unfairness,
                    n_partitions=partitioning.k,
                    deadline_hit=context.deadline_hit,
                )
        finally:
            engine.close()
        elapsed = time.perf_counter() - start
        engine.metrics.inc("algorithm.runs")
        engine.metrics.observe("algorithm.run_seconds", elapsed)
        stats = engine.stats
        return AlgorithmResult(
            algorithm=self.name,
            partitioning=partitioning,
            unfairness=final_unfairness,
            runtime_seconds=elapsed,
            n_evaluations=stats.n_evaluations,
            metric=engine.metric.name,
            cache_hits=stats.cache_hits,
            n_full_evaluations=stats.n_full_evaluations,
            n_incremental_evaluations=stats.n_incremental_evaluations,
            pair_distances_computed=stats.pair_distances_computed,
            pair_distances_full=stats.pair_distances_full,
            deadline_hit=context.deadline_hit,
        )

    @abc.abstractmethod
    def _search(self, context: SearchContext) -> list[Partition]:
        """Return the leaf partitions of the chosen partitioning."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, type[PartitioningAlgorithm]] = {}


def register_algorithm(cls: type[PartitioningAlgorithm]) -> type[PartitioningAlgorithm]:
    """Class decorator: register an algorithm under its ``name``."""
    if not cls.name:
        raise PartitioningError(f"algorithm class {cls.__name__} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str, **options: object) -> PartitioningAlgorithm:
    """Instantiate a registered algorithm by name.

    Keyword options are forwarded to the algorithm's constructor (e.g.
    ``get_algorithm("exhaustive", budget=10_000)``).
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise PartitioningError(
            f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**options)  # type: ignore[arg-type]


def available_algorithms() -> tuple[str, ...]:
    """Names of all registered algorithms."""
    return tuple(sorted(_REGISTRY))
