"""The shared evaluation substrate: :class:`EvaluationEngine`.

Every unfairness query the search algorithms, the CLI, the benchmark
harness and the audit layer make flows through one engine instance.  The
engine binds a population, a score vector, a histogram spec, a metric and
a weighting — exactly like :class:`~repro.core.unfairness.UnfairnessEvaluator`,
which remains the straight-line reference implementation — and adds the
two things the reference deliberately does not have:

* a **value cache** keyed on the multiset of partition histograms (the
  objective depends on nothing else), so re-visited partitionings cost a
  dictionary lookup;
* **vectorized kernels** (:mod:`repro.engine.kernels`) and an
  **incremental objective** (:mod:`repro.engine.incremental`) so a greedy
  step pays O(k·Δ) instead of O(k²).

Candidate batches (:meth:`EvaluationEngine.score_many`,
:meth:`EvaluationEngine.score_rows_many`) are scored in-process, one
candidate after another, through the same cached path.

The engine also keeps :class:`EngineStats` — evaluation counts, cache
hits, and pairwise distances actually materialised vs the naive dense
cost — which :class:`~repro.core.algorithms.base.AlgorithmResult` records
and the microbenchmarks compare across modes.

``mode="full"`` disables the cache and the closed-form average fast paths
and materialises the dense pairwise matrix on every query: that is the
seed's cost model, kept as the measurable baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition, Partitioning
from repro.core.population import Population
from repro.engine.atoms import AtomTable, RowGroups
from repro.engine.incremental import FullRecomputeObjective, IncrementalObjective
from repro.engine.kernels import (
    KERNEL_COUNTER_KEYS,
    average_from_matrix,
    cross_matrix,
    full_objective,
    pairwise_matrix,
    resolve_kernel_backend,
)
from repro.exceptions import PartitioningError
from repro.metrics.base import HistogramDistance, get_metric
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["EvaluationEngine", "EngineStats"]

#: Value-cache capacity.  Keys are a few hundred bytes each; 50k entries
#: bound the cache at tens of MB.  Eviction is LRU (least recently *hit*
#: entry goes first), so a long run keeps its working set instead of
#: periodically dropping everything.
_CACHE_CAP = 50_000


@dataclass
class EngineStats:
    """Search-effort accounting, reported through ``AlgorithmResult``.

    ``pair_distances_full`` is the *naive dense cost*: C(k, 2) summed over
    every objective query, i.e. what the evaluation would cost if each query
    materialised every pair (the seed's model).  ``pair_distances_computed``
    counts pair distances actually materialised — the gap between the two is
    what the cache, the closed-form averages and the incremental updates
    saved.
    """

    n_evaluations: int = 0
    n_full_evaluations: int = 0
    n_incremental_evaluations: int = 0
    cache_hits: int = 0
    pair_distances_computed: int = 0
    pair_distances_full: int = 0
    kernel: str = "numpy"

    def as_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {
            "n_evaluations": self.n_evaluations,
            "n_full_evaluations": self.n_full_evaluations,
            "n_incremental_evaluations": self.n_incremental_evaluations,
            "cache_hits": self.cache_hits,
            "pair_distances_computed": self.pair_distances_computed,
            "pair_distances_full": self.pair_distances_full,
            "kernel": self.kernel,
        }


class EvaluationEngine:
    """Serves every unfairness query over one (population, scores) binding.

    Parameters
    ----------
    population, scores, hist_spec, metric, weighting:
        As in :class:`~repro.core.unfairness.UnfairnessEvaluator`.
    mode:
        ``"incremental"`` (default: cache + fast paths + O(k·Δ) frontier
        updates) or ``"full"`` (dense recomputation every query — the
        baseline the microbenchmarks measure against).
    tracer:
        An :class:`~repro.obs.tracer.Tracer` to record per-evaluation spans
        into; defaults to the disabled :data:`~repro.obs.tracer.NULL_TRACER`,
        in which case the hot paths skip span creation entirely (one
        attribute check per query).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the engine mirrors its
        effort counters into (``engine.*`` namespace, see
        :meth:`sync_metrics`) and records timing histograms into while
        tracing; a private registry is created when omitted.
    use_atoms:
        Enable the :class:`~repro.engine.atoms.AtomTable` fast path
        (default).  Pass ``False`` to force the member-array path — the
        benchmark's "member" baseline.  Always off in ``mode="full"``.
        Both paths are bit-identical; this is purely a cost-model switch.
    kernel:
        Kernel backend name (``"numpy"`` / ``"scalar"``, see
        :mod:`repro.engine.kernels`) deciding *how* distance blocks are
        computed.  All backends are bit-identical (the parity harness pins
        this), so like ``use_atoms`` this is purely a cost-model switch;
        ``None`` means the default fused-numpy kernels.
    atom_table:
        Optional prebuilt :class:`~repro.engine.atoms.AtomTable` for this
        exact (population, bin spec) binding — the service's cross-job
        cache injects one on a hit so the engine skips its O(n) build.
    seed_value_cache:
        Optional mapping of value-cache entries (content-addressed pmf
        multiset keys → objective values) to pre-warm the cache with; used
        by the cross-job cache.  Entries beyond the cache cap are dropped
        oldest-first.
    """

    def __init__(
        self,
        population: Population,
        scores: np.ndarray,
        hist_spec: HistogramSpec | None = None,
        metric: "str | HistogramDistance" = "emd",
        weighting: str = "uniform",
        mode: str = "incremental",
        tracer: "Tracer | NullTracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        use_atoms: "bool | None" = None,
        kernel: "str | None" = None,
        atom_table: "AtomTable | None" = None,
        seed_value_cache: "dict | None" = None,
    ) -> None:
        self.population = population
        self.spec = hist_spec or HistogramSpec()
        self.metric = get_metric(metric)
        if weighting not in ("uniform", "size"):
            raise PartitioningError(
                f"weighting must be 'uniform' or 'size', got {weighting!r}"
            )
        self.weighting = weighting
        if mode not in ("incremental", "full"):
            raise PartitioningError(
                f"mode must be 'incremental' or 'full', got {mode!r}"
            )
        self.mode = mode
        self.kernel = resolve_kernel_backend(kernel)
        #: Kernel-effort counters (see ``KERNEL_COUNTER_KEYS``): entry-point
        #: invocations, unique pairs actually evaluated, and output cells
        #: served.  Mirrored into the registry as ``engine.kernel_*``.
        self._kernel_counters: dict[str, int] = {}
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (population.size,):
            raise PartitioningError(
                f"scores have shape {scores.shape}, expected ({population.size},)"
            )
        self.scores = scores
        self._bin_idx = self.spec.bin_indices(scores)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Hot-path guard: span creation (and timing observation) is skipped
        #: entirely unless a real tracer was passed in.
        self._trace = bool(getattr(self.tracer, "enabled", False))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._synced_stats: dict[str, int] = {}
        self.stats = EngineStats(kernel=self.kernel)
        self._pmf_cache: dict[Partition, np.ndarray] = {}
        self._value_cache: "OrderedDict[tuple, float]" = OrderedDict()
        if seed_value_cache:
            for key, value in seed_value_cache.items():
                self._value_cache[key] = value
            while len(self._value_cache) > _CACHE_CAP:
                self._value_cache.popitem(last=False)
        # Atom-table fast path: on by default in incremental mode, never in
        # mode="full" (the baseline cost model must keep paying member-array
        # prices).  The table itself is built lazily on first use.
        self._use_atoms = bool(use_atoms) if use_atoms is not None else True
        if self.mode == "full":
            self._use_atoms = False
        self._atom_table: "AtomTable | None" = None
        if atom_table is not None and self._use_atoms:
            self._atom_table = atom_table

    # ---------------------------------------------------------------- atoms

    @property
    def use_atoms(self) -> bool:
        """True when the atom-table fast path is enabled for this engine."""
        return self._use_atoms

    @property
    def atom_table(self) -> AtomTable:
        """The population's :class:`~repro.engine.atoms.AtomTable`, built on
        first access (one O(n) pass) and reused for the engine's lifetime."""
        if self._atom_table is None:
            with self.tracer.span("engine.atom_table.build") as span, self.metrics.time(
                "engine.atom_table_build_seconds"
            ):
                self._atom_table = AtomTable.build(
                    self.population, self._bin_idx, self.spec.bins
                )
                span.set(n_atoms=self._atom_table.n_atoms)
            self.metrics.set_gauge("engine.atoms", self._atom_table.n_atoms)
        return self._atom_table

    def atom_rows(self, partition: Partition) -> "np.ndarray | None":
        """Atom rows of one partition, or None when the member path must be
        used (atoms disabled, or the partition's constraints do not account
        for its members).  Rows the partition carries for this engine's
        table are returned as they are; any other partition is resolved
        from its constraints once and then carries the result."""
        if not self._use_atoms:
            return None
        table = self.atom_table
        if partition.atom_table is table:
            return partition.atom_rows
        rows = table.resolve(partition)
        self.metrics.inc(
            "engine.atom_hits" if rows is not None else "engine.atom_fallbacks"
        )
        if rows is not None:
            partition.atom_table, partition.atom_rows = table, rows
        return rows

    def single_atom(self, partition: Partition) -> bool:
        """True when every member of ``partition`` shares every protected
        code: the partition is one atom, and splitting it on any attribute
        gives back its own member set.  Read from the atom rows when the
        partition has them, else from the members' code columns, so both
        paths answer alike."""
        rows = self.atom_rows(partition)
        if rows is not None:
            return len(rows) == 1
        members = partition.indices
        for name in self.population.schema.protected_names:
            codes = self.population.partition_codes(name)[members]
            if (codes != codes[0]).any():
                return False
        return True

    def root_partition(self) -> Partition:
        """The whole population as one partition — carrying every atom row
        on the atom path, so its descendants never resolve constraints."""
        if not self._use_atoms:
            return Partition(self.population.all_indices())
        rows = np.arange(self.atom_table.n_atoms, dtype=np.int64)
        return self.partition_from_rows(rows, ())

    def partition_from_rows(
        self,
        rows: np.ndarray,
        constraints: "tuple[tuple[str, int], ...]",
        size: "int | None" = None,
    ) -> Partition:
        """The partition made of atom ``rows`` (ascending) of this engine's
        table, holding ``size`` workers; its member indices are built only
        if something reads them."""
        return Partition.from_atoms(self.atom_table, rows, constraints, size)

    def children_from_groups(
        self,
        partitions: Sequence[Partition],
        attribute: str,
        grouped: RowGroups,
        pmfs: "np.ndarray | None" = None,
    ) -> list[Partition]:
        """The children of splitting every partition on ``attribute``, from
        the atom-row groups :meth:`score_attribute_splits` or
        :meth:`split_pmfs` already formed.  Order, constraints and sizes
        are those ``split_partitions`` gives.  ``pmfs``, one row per child,
        seeds the histogram cache with values already computed."""
        children = grouped.children(partitions, attribute, self.partition_from_rows)
        if pmfs is not None:
            for child, pmf in zip(children, pmfs):
                self._pmf_cache[child] = pmf
        return children

    # ----------------------------------------------------------- histograms

    def pmf(self, partition: Partition) -> np.ndarray:
        """Normalised score histogram of one partition (cached per object).

        With atoms enabled and the partition resolvable, the histogram is an
        int64 row-sum over the atom table — bit-identical to the member-path
        ``bincount`` but independent of the partition's member count.
        """
        cached = self._pmf_cache.get(partition)
        if cached is None:
            rows = self.atom_rows(partition)
            if rows is not None:
                counts = self.atom_table.histogram(rows)
            else:
                counts = self.spec.histogram_from_bin_indices(
                    self._bin_idx[partition.indices]
                )
            cached = counts / partition.size
            cached.setflags(write=False)
            self._pmf_cache[partition] = cached
        return cached

    def pmf_matrix(self, partitions: Sequence[Partition]) -> np.ndarray:
        """Stacked (k, bins) matrix of normalised histograms."""
        if not partitions:
            return np.zeros((0, self.spec.bins), dtype=np.float64)
        return np.vstack([self.pmf(p) for p in partitions])

    def partition_weights(
        self, partitions: Sequence[Partition]
    ) -> "np.ndarray | None":
        """Per-partition objective weights (sizes), or None when uniform."""
        if self.weighting != "size":
            return None
        return np.array([p.size for p in partitions], dtype=np.float64)

    # ----------------------------------------------------------- objectives

    def unfairness(self, partitioning: "Partitioning | Sequence[Partition]") -> float:
        """Average pairwise distance between all partition histograms.

        Interface-compatible with
        :meth:`~repro.core.unfairness.UnfairnessEvaluator.unfairness`; cached
        and vectorized in the default mode.  With tracing enabled, each query
        records an ``engine.unfairness`` span (k, value, cache hit) and an
        ``engine.unfairness_seconds`` timing observation.
        """
        partitions = list(partitioning)
        if not self._trace:
            return self._unfairness(partitions)
        with self.tracer.span("engine.unfairness", k=len(partitions)) as span:
            hits_before = self.stats.cache_hits
            value = self._unfairness(partitions)
            span.set(value=value, cache_hit=self.stats.cache_hits > hits_before)
        self.metrics.observe("engine.unfairness_seconds", span.duration_seconds)
        return value

    def _unfairness(self, partitions: "list[Partition]") -> float:
        k = len(partitions)
        self.stats.n_evaluations += 1
        if k < 2:
            return 0.0
        self.stats.pair_distances_full += k * (k - 1) // 2

        if self.mode == "full":
            # Baseline cost model: dense matrix, no cache, no closed forms.
            self.stats.n_full_evaluations += 1
            self.stats.pair_distances_computed += k * (k - 1) // 2
            matrix = pairwise_matrix(
                self.metric,
                self.pmf_matrix(partitions),
                self.spec,
                kernel=self.kernel,
                counters=self._kernel_counters,
            )
            return average_from_matrix(matrix, self.partition_weights(partitions))

        key = self._cache_key(partitions)
        cached = self._value_cache.get(key)
        if cached is not None:
            self._value_cache.move_to_end(key)
            self.stats.cache_hits += 1
            return cached
        value, pairs = full_objective(
            self.metric,
            self.pmf_matrix(partitions),
            self.spec,
            self.partition_weights(partitions),
            kernel=self.kernel,
            counters=self._kernel_counters,
        )
        self.stats.n_full_evaluations += 1
        self.stats.pair_distances_computed += pairs
        self._cache_insert(key, value)
        return value

    def _cache_insert(self, key: tuple, value: float) -> None:
        """Insert one value, evicting the least recently used entry at cap."""
        if len(self._value_cache) >= _CACHE_CAP:
            self._value_cache.popitem(last=False)
            self.metrics.inc("engine.cache_evictions")
        self._value_cache[key] = value

    def reset_caches(self) -> None:
        """Drop memoised pmfs and objective values (the atom table and its
        resolutions survive — they are per-binding, not per-query).  The
        scaling benchmark uses this to re-measure queries cold."""
        self._pmf_cache.clear()
        self._value_cache.clear()

    def export_value_cache(self) -> "dict[tuple, float]":
        """A plain-dict copy of the value cache, in LRU order (oldest first).

        Keys are content-addressed — the multiset of partition-histogram
        bytes (plus sizes under size weighting) — so entries are safe to
        reuse in *any* engine bound to the same (bin spec, metric,
        weighting), which is exactly what the service's cross-job cache
        does.
        """
        return dict(self._value_cache)

    def kernel_counters(self) -> "dict[str, int]":
        """Plain-dict copy of the kernel-effort counters (see kernels.py)."""
        return dict(self._kernel_counters)

    def union_average(
        self, group: Sequence[Partition], siblings: Sequence[Partition]
    ) -> float:
        """Average pairwise distance over ``group ∪ siblings`` (Algorithm 2's
        two-argument ``averageEMD`` under the union reading)."""
        return self.unfairness(list(group) + list(siblings))

    def cross_average(
        self, group: Sequence[Partition], siblings: Sequence[Partition]
    ) -> float:
        """Average distance over pairs (g, s), g in group, s in siblings."""
        if self._trace:
            with self.tracer.span(
                "engine.cross_average", group=len(group), siblings=len(siblings)
            ) as span:
                value = self._cross_average(list(group), list(siblings))
                span.set(value=value)
            self.metrics.observe("engine.unfairness_seconds", span.duration_seconds)
            return value
        return self._cross_average(list(group), list(siblings))

    def _cross_average(
        self, group: "list[Partition]", siblings: "list[Partition]"
    ) -> float:
        self.stats.n_evaluations += 1
        if not group or not siblings:
            return 0.0
        n_pairs = len(group) * len(siblings)
        self.stats.n_full_evaluations += 1
        self.stats.pair_distances_full += n_pairs
        self.stats.pair_distances_computed += n_pairs
        matrix = cross_matrix(
            self.metric,
            self.pmf_matrix(group),
            self.pmf_matrix(siblings),
            self.spec,
            kernel=self.kernel,
            counters=self._kernel_counters,
        )
        return float(matrix.mean())

    def pairwise_matrix(self, partitions: Sequence[Partition]) -> np.ndarray:
        """Dense pairwise-distance matrix, for reporting and analysis."""
        return pairwise_matrix(
            self.metric,
            self.pmf_matrix(list(partitions)),
            self.spec,
            kernel=self.kernel,
            counters=self._kernel_counters,
        )

    # ------------------------------------------------------------- batching

    def score_many(
        self, candidates: Sequence[Sequence[Partition]]
    ) -> list[float]:
        """Objective of every candidate partitioning, in input order."""
        candidates = list(candidates)
        self.metrics.inc("backend.batches")
        self.metrics.inc("backend.candidates", len(candidates))
        if not self._trace:
            return [self.unfairness(candidate) for candidate in candidates]
        with self.tracer.span(
            "engine.score_many", n_candidates=len(candidates)
        ) as span:
            values = [self.unfairness(candidate) for candidate in candidates]
        self.metrics.observe("engine.score_many_seconds", span.duration_seconds)
        return values

    def score_rows_many(self, tasks: "Sequence[np.ndarray]") -> list[float]:
        """Objective of every candidate given as histograms, in input order.

        Each task is a ``(k, bins)`` int64 matrix holding the histograms of
        the candidate's ``k`` partitions.  This is the atom-path sibling of
        :meth:`score_many`, for candidates that exist only as histograms,
        never as Partition objects; same histograms give the same cache
        keys, hits and counter increments on either path.
        """
        tasks = list(tasks)
        self.metrics.inc("backend.batches")
        self.metrics.inc("backend.candidates", len(tasks))
        if not self._trace:
            return [self._score_counts(task) for task in tasks]
        with self.tracer.span(
            "engine.score_rows_many", n_candidates=len(tasks)
        ) as span:
            values = [self._score_counts(task) for task in tasks]
        self.metrics.observe("engine.score_many_seconds", span.duration_seconds)
        return values

    def _score_counts(self, counts: np.ndarray) -> float:
        """Objective of one ``(k, bins)`` histogram matrix: each row's
        integer counts divided by its integer size, as :meth:`pmf` does."""
        sizes = counts.sum(axis=1)
        return self._score_pmf_stack(counts / sizes[:, np.newaxis], sizes.tolist())

    def _score_pmf_stack(self, pmfs: np.ndarray, sizes: "list[int]") -> float:
        """Cache-aware objective of one pmf stack; mirrors :meth:`_unfairness`
        (same keys, stats and eviction behaviour) for candidates that exist
        only as histograms, never as Partition objects."""
        k = pmfs.shape[0]
        self.stats.n_evaluations += 1
        if k < 2:
            return 0.0
        self.stats.pair_distances_full += k * (k - 1) // 2
        if self.weighting == "size":
            weights = np.array(sizes, dtype=np.float64)
            key = tuple(sorted((pmfs[i].tobytes(), sizes[i]) for i in range(k)))
        else:
            weights = None
            key = tuple(sorted(pmfs[i].tobytes() for i in range(k)))
        if self.mode == "full":
            self.stats.n_full_evaluations += 1
            self.stats.pair_distances_computed += k * (k - 1) // 2
            matrix = pairwise_matrix(
                self.metric,
                pmfs,
                self.spec,
                kernel=self.kernel,
                counters=self._kernel_counters,
            )
            return average_from_matrix(matrix, weights)
        cached = self._value_cache.get(key)
        if cached is not None:
            self._value_cache.move_to_end(key)
            self.stats.cache_hits += 1
            return cached
        value, pairs = full_objective(
            self.metric,
            pmfs,
            self.spec,
            weights,
            kernel=self.kernel,
            counters=self._kernel_counters,
        )
        self.stats.n_full_evaluations += 1
        self.stats.pair_distances_computed += pairs
        self._cache_insert(key, value)
        return value

    def score_attribute_splits(
        self, partitions: Sequence[Partition], candidates: Sequence[str]
    ) -> "tuple[list[float], list[RowGroups]] | None":
        """Score every candidate attribute of a balanced greedy step as one
        grouped aggregation over the atom table.

        For each candidate attribute, the atom rows of every partition are
        grouped by that attribute's code column in one sort (the exact
        children ``split_partitions`` would build, without materialising a
        single member array) and the candidate's histograms are scored
        through :meth:`score_rows_many`.  Returns ``(scores, groups)`` with
        each candidate's :class:`~repro.engine.atoms.RowGroups` (see
        :meth:`children_from_groups`), or None when the atom path cannot
        serve the query — atoms disabled, a partition unresolvable, an
        attribute unknown or already constrained — in which case the caller
        must use the legacy split-then-score path (preserving its error
        semantics).
        """
        if not self._use_atoms:
            return None
        partitions = list(partitions)
        rows_per_partition = []
        for partition in partitions:
            rows = self.atom_rows(partition)
            if rows is None:
                return None
            rows_per_partition.append(rows)
        table = self.atom_table
        constrained = [set(p.constrained_attributes()) for p in partitions]
        groups: list[RowGroups] = []
        try:
            for attribute in candidates:
                if any(attribute in used for used in constrained):
                    return None
                groups.append(table.group_rows(rows_per_partition, attribute))
        except KeyError:
            return None
        tasks = [table.group_histograms(grouped) for grouped in groups]
        return self.score_rows_many(tasks), groups

    def split_pmfs(
        self, partition: Partition, candidates: Sequence[str]
    ) -> "list[tuple[np.ndarray, np.ndarray | None, RowGroups]] | None":
        """Per-candidate ``(child pmfs, child weights, child row groups)`` of
        one partition's single-attribute splits, from the atom table.

        The stacks are bit-identical to what ``split_partition`` +
        :meth:`pmf_matrix` / :meth:`partition_weights` would produce (same
        integer counts divided by the same integer sizes, children in
        ascending code order), so an
        :meth:`IncrementalObjective.score_add_pmfs` query over them matches
        the member path exactly.  The pmf stacks are read-only, so
        :meth:`children_from_groups` can seed the winner's histograms from
        them.  Returns None when the atom path cannot serve the query (see
        :meth:`score_attribute_splits`).
        """
        if not self._use_atoms:
            return None
        rows = self.atom_rows(partition)
        if rows is None:
            return None
        if set(candidates) & set(partition.constrained_attributes()):
            return None
        try:
            grouped_each, counts, sizes = self.atom_table.group_each(rows, candidates)
        except KeyError:
            return None
        pmfs = counts / sizes[:, np.newaxis]
        pmfs.setflags(write=False)
        sized = self.weighting == "size"
        out: "list[tuple[np.ndarray, np.ndarray | None, RowGroups]]" = []
        start = 0
        for grouped in grouped_each:
            stop = start + len(grouped.codes)
            weights = sizes[start:stop].astype(np.float64) if sized else None
            out.append((pmfs[start:stop], weights, grouped))
            start = stop
        return out

    def incremental(
        self, partitions: Sequence[Partition]
    ) -> "IncrementalObjective | FullRecomputeObjective":
        """An objective tracker seeded with ``partitions`` as the frontier.

        Returns the matrix-maintaining :class:`IncrementalObjective` in the
        default mode and the recompute-everything
        :class:`FullRecomputeObjective` in ``mode="full"``.
        """
        if self.mode == "full":
            return FullRecomputeObjective(self, partitions)
        return IncrementalObjective(self, partitions)

    # --------------------------------------------- kernel/stat plumbing used
    # by IncrementalObjective; not part of the search API.

    def materialize_pairwise(self, pmfs: np.ndarray) -> np.ndarray:
        """Dense pairwise matrix of a pmf stack (no EngineStats side effects;
        kernel-effort counters still accrue)."""
        return pairwise_matrix(
            self.metric,
            pmfs,
            self.spec,
            kernel=self.kernel,
            counters=self._kernel_counters,
        )

    def materialize_cross(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Cross-distance matrix of two pmf stacks (no EngineStats side
        effects; kernel-effort counters still accrue)."""
        return cross_matrix(
            self.metric,
            left,
            right,
            self.spec,
            kernel=self.kernel,
            counters=self._kernel_counters,
        )

    def record_incremental_evaluation(self, k: int, new_pairs: int) -> None:
        """Account one O(k·Δ) frontier query: ``new_pairs`` distances were
        materialised where a dense recomputation would have cost C(k, 2)."""
        self.stats.n_evaluations += 1
        self.stats.n_incremental_evaluations += 1
        self.stats.pair_distances_computed += new_pairs
        self.stats.pair_distances_full += k * (k - 1) // 2

    # ------------------------------------------------------------ lifecycle

    @property
    def n_evaluations(self) -> int:
        """Total objective queries served (search-effort unit in results)."""
        return self.stats.n_evaluations

    @property
    def trace_enabled(self) -> bool:
        """True when a real tracer was attached (hot paths record spans)."""
        return self._trace

    def sync_metrics(self) -> MetricsRegistry:
        """Mirror :class:`EngineStats` into the metrics registry.

        Counter metrics (``engine.n_evaluations`` …) receive the *delta*
        since the last sync, so repeated syncs are idempotent and several
        engines sharing one registry accumulate rather than overwrite.
        Returns the registry.
        """
        current = self.stats.as_dict()
        for key in (
            "n_evaluations",
            "n_full_evaluations",
            "n_incremental_evaluations",
            "cache_hits",
            "pair_distances_computed",
            "pair_distances_full",
        ):
            value = current[key]
            delta = value - self._synced_stats.get(key, 0)
            if delta:
                self.metrics.inc(f"engine.{key}", delta)
            self._synced_stats[key] = value
        for key in KERNEL_COUNTER_KEYS:
            value = self._kernel_counters.get(key, 0)
            synced_key = f"kernel_{key}"
            delta = value - self._synced_stats.get(synced_key, 0)
            if delta:
                self.metrics.inc(f"engine.{synced_key}", delta)
            self._synced_stats[synced_key] = value
        self.metrics.set_gauge("engine.value_cache_size", len(self._value_cache))
        return self.metrics

    def metrics_snapshot(self) -> dict:
        """Sync the effort counters and return the registry's plain-dict view."""
        return self.sync_metrics().as_dict()

    def close(self) -> None:
        """End of a run: flush the effort counters into the registry.  The
        engine stays usable."""
        self.sync_metrics()

    def _cache_key(self, partitions: Sequence[Partition]) -> tuple:
        # The objective is a function of the *multiset* of histograms only
        # (plus sizes under size weighting), so that is the cache key —
        # partitionings reached through different split trees share entries.
        if self.weighting == "size":
            return tuple(sorted((self.pmf(p).tobytes(), p.size) for p in partitions))
        return tuple(sorted(self.pmf(p).tobytes() for p in partitions))

    def __repr__(self) -> str:
        return (
            f"EvaluationEngine(metric={self.metric.name!r}, mode={self.mode!r})"
        )
