"""O(Δ) re-auditing of mutable populations.

The batch stack pays O(n) at three places per audit: digitising scores,
building the :class:`~repro.engine.atoms.AtomTable`, and materialising
member-index arrays while splitting.  For a streaming audit over a
population absorbing small delta batches, all three are avoidable — the
objective is a function of the per-atom score histograms alone, and a
mutation touches exactly one atom.

Three pieces make the audit O(atoms) end to end:

* :class:`MutableAtomState` — the atom count cube as a ``key → histogram``
  dict, patched in O(1) per mutation and materialised (sorted, dense) into
  an :class:`AtomTable` only when dirty.  A table materialised after any
  mutation history is **bit-identical** to one built from scratch on the
  final population: same integer counts, same ascending-key atom order.
* The **atom proxy**: the search runs on a synthetic population with one
  row per atom (raw values decoded from the atom's codes), so *member*
  arrays inside the algorithms are atom-row arrays.  Every partition the
  search forms over the proxy has indices that are exactly its atom rows.
* :class:`StreamingEngine` — an :class:`EvaluationEngine` over the proxy
  whose histogram arithmetic divides by **true member sizes** from the
  table.  Because the batch engine's objective values are pure functions
  of (integer histogram, integer size) pairs and both paths produce the
  same integers, every float the search compares is the same IEEE value —
  greedy decisions, and hence final partitionings, match the batch audit
  exactly.  The engine persists across re-audits: its content-addressed
  value cache is keyed on histogram bytes, so a mutation batch only
  invalidates the entries whose histograms actually changed (untouched
  keys keep hitting), and its process-pool backend republishes the
  shared-memory cube only when the atom version moved.

:class:`StreamingAuditor` ties it together: sync mutations from a
:class:`~repro.marketplace.streaming.MutablePopulation`, re-run the
configured algorithm on the proxy, and (between full audits) re-score the
*previous* partitioning against the moved population in O(Δ·k) via
:meth:`IncrementalObjective.update_pmf`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.attributes import CategoricalAttribute
from repro.core.partition import Partition
from repro.core.population import Population
from repro.engine.atoms import AtomTable, encode_codes, protected_cards
from repro.engine.engine import EngineStats, EvaluationEngine
from repro.exceptions import MutationError, PartitioningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily: marketplace.streaming pulls in the io/simulation
    # stack, which would close an import cycle back to core.algorithms.
    from repro.marketplace.streaming import AppliedMutation, MutablePopulation

__all__ = [
    "MutableAtomState",
    "StreamingEngine",
    "StreamingAuditor",
    "StreamingAuditReport",
    "proxy_population",
]


class MutableAtomState:
    """Incrementally maintained atom count cube.

    ``_counts`` maps the mixed-radix atom key to its ``(bins,)`` int64
    score histogram; a mutation patches one cell of one row.  Zero rows
    are dropped eagerly so materialisation only ever sees non-empty atoms
    (matching :meth:`AtomTable.build`, which can't see empty cells).
    """

    def __init__(
        self,
        attribute_names: "tuple[str, ...]",
        cards: "tuple[int, ...]",
        bins: int,
    ) -> None:
        self.attribute_names = attribute_names
        self.cards = cards
        self.bins = int(bins)
        self._counts: dict[int, np.ndarray] = {}
        self.version = 0
        self._table: "AtomTable | None" = None
        self._table_version = -1

    @classmethod
    def from_store(cls, store: MutablePopulation) -> "MutableAtomState":
        """Bulk-build from a mutable population's current state (one O(n) pass)."""
        names, cards = protected_cards(store.schema)
        state = cls(names, cards, store.hist_spec.bins)
        code_matrix = store.partition_code_matrix()
        bin_idx = store.bin_column()
        n = code_matrix.shape[0]
        if n:
            key = code_matrix[:, 0].astype(np.int64, copy=True)
            for j in range(1, len(cards)):
                key = key * cards[j] + code_matrix[:, j]
            unique_keys, inverse = np.unique(key, return_inverse=True)
            counts = np.bincount(
                inverse.astype(np.int64) * state.bins + bin_idx,
                minlength=unique_keys.shape[0] * state.bins,
            ).reshape(unique_keys.shape[0], state.bins)
            state._counts = {
                int(k): counts[i].astype(np.int64, copy=True)
                for i, k in enumerate(unique_keys)
            }
        state.version = store.version
        return state

    # -------------------------------------------------------------- mutation

    def apply(self, applied: AppliedMutation) -> None:
        """Patch the cube for one applied mutation (O(affected atoms) = O(1))."""
        key = encode_codes(applied.codes, self.cards)
        if applied.kind == "add":
            row = self._counts.get(key)
            if row is None:
                row = np.zeros(self.bins, dtype=np.int64)
                self._counts[key] = row
            row[applied.bin] += 1
        elif applied.kind == "remove":
            self._decrement(key, applied.bin)
        elif applied.kind == "update_score":
            if applied.old_bin is None:
                raise MutationError("update_score delta is missing its old bin")
            if applied.old_bin != applied.bin:
                row = self._require(key, applied.old_bin)
                row[applied.old_bin] -= 1
                row[applied.bin] += 1
        else:  # pragma: no cover - Mutation validates kinds
            raise MutationError(f"unknown mutation kind {applied.kind!r}")
        self.version += 1

    def _require(self, key: int, bin_: int) -> np.ndarray:
        row = self._counts.get(key)
        if row is None or row[bin_] <= 0:
            raise MutationError(
                "atom count underflow: the mutation log is inconsistent with "
                "the atom state (was the state rebuilt from a different version?)"
            )
        return row

    def _decrement(self, key: int, bin_: int) -> None:
        row = self._require(key, bin_)
        row[bin_] -= 1
        if not row.any():
            del self._counts[key]

    # ---------------------------------------------------------- materialise

    @property
    def n_atoms(self) -> int:
        return len(self._counts)

    def materialize(self) -> AtomTable:
        """Dense, sorted :class:`AtomTable` of the current counts (cached
        until the next mutation).  Bit-identical to ``AtomTable.build`` on
        the equivalent frozen population."""
        if self._table is None or self._table_version != self.version:
            keys = np.fromiter(sorted(self._counts), dtype=np.int64, count=len(self._counts))
            counts = (
                np.stack([self._counts[int(k)] for k in keys])
                if keys.size
                else np.zeros((0, self.bins), dtype=np.int64)
            )
            self._table = AtomTable.from_key_counts(
                self.attribute_names, self.cards, keys, counts
            )
            self._table_version = self.version
        return self._table

    def fingerprint(self) -> str:
        """Content fingerprint of the current atom state (the materialised
        table's digest).  Mutations that change any count change it; two
        states reached through different mutation orders but holding the
        same counts share it — the content-addressing property the
        cross-job cache relies on."""
        return self.materialize().fingerprint()


def proxy_population(schema, table: AtomTable) -> Population:
    """One synthetic worker per atom, carrying that atom's code tuple.

    Raw values are chosen so each proxy row's partition codes equal the
    atom's codes: categorical attributes take the code itself, integer
    attributes take the smallest integer of the code's bucket
    (``ceil(bucket_edges[code])`` — the inverse the bucketiser maps back).
    Observed columns are filler (the search never reads them).
    """
    protected = {}
    for j, name in enumerate(table.attribute_names):
        attr = schema.protected_attribute(name)
        codes = table.codes[:, j]
        if isinstance(attr, CategoricalAttribute):
            protected[name] = codes.copy()
        else:
            protected[name] = np.ceil(attr.bucket_edges[codes]).astype(np.int64)
    observed = {
        attr.name: np.full(table.n_atoms, attr.low, dtype=np.float64)
        for attr in schema.observed
    }
    return Population(schema, protected, observed)


class StreamingEngine(EvaluationEngine):
    """Engine over the atom proxy, arithmetically identical to the batch path.

    Overrides make three substitutions: partition indices *are* atom rows
    (no constraint resolution), pmf denominators and objective weights are
    **true member sizes** from the table, and ``close()`` keeps the backend
    alive so one engine serves every re-audit of a monitored population
    (call :meth:`shutdown` to actually release it).
    """

    def __init__(self, population, scores, *, table: AtomTable, **kwargs) -> None:
        if kwargs.get("mode", "incremental") == "full":
            raise PartitioningError(
                "StreamingEngine requires mode='incremental' (the full-recompute "
                "baseline measures the member-array cost model)"
            )
        kwargs["use_atoms"] = True
        super().__init__(population, scores, **kwargs)
        self._atom_table = table
        self.metrics.set_gauge("engine.atoms", table.n_atoms)

    # ------------------------------------------------------------- overrides

    def atom_rows(self, partition: "Partition") -> np.ndarray:
        """In the proxy, a partition's member indices are its atom rows."""
        return partition.indices

    def partition_from_rows(self, rows, constraints, size=None) -> "Partition":
        """A proxy partition: its member indices *are* the atom rows, so
        the search's children stay partitions of the proxy population (and
        its size is its atom count, not the true ``size``)."""
        return Partition(rows, constraints)

    def true_size(self, partition: "Partition") -> int:
        """True member count of a proxy partition (sum of its atoms' sizes)."""
        return int(self._atom_table.sizes[partition.indices].sum())

    def pmf(self, partition: "Partition") -> np.ndarray:
        cached = self._pmf_cache.get(partition)
        if cached is None:
            table = self._atom_table
            rows = partition.indices
            counts = table.counts[rows].sum(axis=0)
            cached = counts / int(table.sizes[rows].sum())
            cached.setflags(write=False)
            self._pmf_cache[partition] = cached
        return cached

    def partition_weights(self, partitions) -> "np.ndarray | None":
        if self.weighting != "size":
            return None
        return np.array([self.true_size(p) for p in partitions], dtype=np.float64)

    def _cache_key(self, partitions) -> tuple:
        if self.weighting == "size":
            return tuple(
                sorted((self.pmf(p).tobytes(), self.true_size(p)) for p in partitions)
            )
        return tuple(sorted(self.pmf(p).tobytes() for p in partitions))

    # ------------------------------------------------------------- lifecycle

    def rebind(self, population, scores, table: AtomTable) -> None:
        """Swap in the post-mutation proxy and table; keep what's still valid.

        Partition-object-keyed caches go (their Partition objects belong to
        the previous audit's proxy); the content-addressed value cache
        stays — an entry whose histograms did not change keeps hitting, so
        only touched cache keys miss.  ``atom_version`` bumps only when the
        table actually changed: that is what tells the process backend the
        shared cube is dirty and must be republished (an audit with no
        intervening mutations reuses the live segments).
        """
        if population.size != table.n_atoms:
            raise PartitioningError(
                f"proxy population has {population.size} rows for {table.n_atoms} atoms"
            )
        self.population = population
        scores = np.asarray(scores, dtype=np.float64)
        self.scores = scores
        self._bin_idx = self.spec.bin_indices(scores)
        if table is not self._atom_table:
            self._atom_table = table
            self.atom_version += 1
        self._pmf_cache.clear()
        self.stats = EngineStats(
            backend=self.backend.name, workers=self.backend.workers, kernel=self.kernel
        )
        self._synced_stats = {}
        self.metrics.set_gauge("engine.atoms", table.n_atoms)

    def close(self) -> None:
        """Per-run close: flush metrics but keep the backend's pool warm.

        ``PartitioningAlgorithm.run`` closes its engine in a ``finally``;
        for a persistent streaming engine that must not tear down the
        process pool between re-audits.  :meth:`shutdown` does.
        """
        self.sync_metrics()

    def shutdown(self) -> None:
        """Actually release backend resources (pool, shared memory)."""
        super().close()


@dataclass(frozen=True)
class StreamingAuditReport:
    """One point of a monitored population's unfairness-over-time series.

    ``kind`` is ``"audit"`` (a full re-run of the search, bit-identical to
    a batch audit of the same state) or ``"delta"`` (the previous audit's
    groups re-scored against the moved population in O(Δ·k)).
    ``group_sizes`` are true member counts; ``groups`` carries each group's
    constraint conjunction as ``[[attribute, code], ...]`` lists.
    """

    kind: str
    version: int
    population_size: int
    unfairness: float
    n_partitions: int
    attributes: tuple[str, ...]
    group_sizes: tuple[int, ...]
    groups: tuple[tuple[tuple[str, int], ...], ...]
    algorithm: str
    metric: str
    duration_seconds: float
    deadline_hit: bool = False
    n_evaluations: int = 0
    cache_hits: int = 0
    stale: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "population_size": self.population_size,
            "unfairness": self.unfairness,
            "n_partitions": self.n_partitions,
            "attributes": list(self.attributes),
            "group_sizes": list(self.group_sizes),
            "groups": [[[name, int(code)] for name, code in group] for group in self.groups],
            "algorithm": self.algorithm,
            "metric": self.metric,
            "duration_seconds": self.duration_seconds,
            "deadline_hit": self.deadline_hit,
            "n_evaluations": self.n_evaluations,
            "cache_hits": self.cache_hits,
            "stale": self.stale,
        }


@dataclass
class _Frontier:
    """The last full audit's groups, tracked for O(Δ·k) delta re-scoring.

    The pairwise-distance tracker costs O(k²) to seed, so it is built
    lazily on the first :meth:`StreamingAuditor.rescore_delta` call —
    audits that are never delta-repriced (``delta_series=False`` monitors,
    one-shot audits) never pay for it.
    """

    constraints: "list[tuple[tuple[str, int], ...]]"
    partitions: "list[Partition]"
    attr_positions: dict[str, int]
    #: k×n_attrs matrix of each group's constraints, -1 = unconstrained —
    #: lets a code tuple find its owning group in one vectorised compare.
    constraint_matrix: "np.ndarray" = None
    sizes: "list[int]" = field(default_factory=list)
    tracker: object = None  # IncrementalObjective, seeded on first use
    #: code tuple → owning group index (None = covered by no group), so
    #: repeat mutations of the same atom skip even the vectorised scan.
    code_groups: "dict[tuple[int, ...], int | None]" = field(default_factory=dict)
    dirty: set = field(default_factory=set)
    stale: bool = False


class StreamingAuditor:
    """Re-audits a :class:`MutablePopulation` with O(Δ) incremental work.

    One persistent :class:`StreamingEngine` serves every audit;
    :meth:`sync` folds new mutations into the atom state; :meth:`audit`
    re-runs the configured algorithm (bit-identical to a batch audit of
    the current state); :meth:`rescore_delta` re-prices the previous
    audit's partitioning against the moved population without searching.
    """

    def __init__(
        self,
        store: MutablePopulation,
        algorithm: str = "balanced",
        metric: str = "emd",
        weighting: str = "uniform",
        backend: "str | None" = None,
        workers: "int | None" = None,
        seed: int = 0,
        retry_policy=None,
        fault_config=None,
        algorithm_options: "dict | None" = None,
        metrics=None,
        tracer=None,
        kernel: "str | None" = None,
    ) -> None:
        self.store = store
        self.algorithm = algorithm
        self.metric = metric
        self.weighting = weighting
        self.backend = backend
        self.workers = workers
        self.kernel = kernel
        self.seed = seed
        self.retry_policy = retry_policy
        self.fault_config = fault_config
        self.algorithm_options = dict(algorithm_options or {})
        self.metrics = metrics
        self.tracer = tracer
        self.state = MutableAtomState.from_store(store)
        self.audits = 0
        self.mutations_absorbed = 0
        self._applied_seq = store.version
        #: Optional engine value cache transplanted into the first engine
        #: this auditor builds (see :mod:`repro.service.cache`); consumed
        #: once, then cleared.
        self.seed_value_cache: "dict | None" = None
        self._engine: "StreamingEngine | None" = None
        self._proxy: "Population | None" = None
        self._proxy_version = -1
        self._frontier: "_Frontier | None" = None

    # ------------------------------------------------------------------ sync

    @property
    def version(self) -> int:
        """Store version the atom state has absorbed."""
        return self._applied_seq

    def sync(self) -> int:
        """Fold mutations newer than the absorbed version into the atom
        state (O(Δ)); returns how many were applied."""
        log = self.store.log_since(self._applied_seq)
        for applied in log:
            self.state.apply(applied)
            self._mark_frontier_dirty(applied)
        if log:
            self._applied_seq = log[-1].seq
            self.mutations_absorbed += len(log)
            self.store.trim_log(self._applied_seq)
        return len(log)

    def _ensure_proxy(self) -> "tuple[Population, AtomTable]":
        table = self.state.materialize()
        if self._proxy is None or self._proxy_version != self.state.version:
            self._proxy = proxy_population(self.store.schema, table)
            self._proxy_version = self.state.version
        return self._proxy, table

    def _engine_factory(self, population, scores, **kwargs):
        table = self.state.materialize()
        if kwargs.get("kernel") is None and self.kernel is not None:
            kwargs["kernel"] = self.kernel
        if self._engine is None:
            if self.seed_value_cache is not None:
                kwargs.setdefault("seed_value_cache", self.seed_value_cache)
                self.seed_value_cache = None
            self._engine = StreamingEngine(population, scores, table=table, **kwargs)
        else:
            self._engine.rebind(population, scores, table)
        return self._engine

    def engine_value_cache(self) -> "dict[tuple, float]":
        """Exported objective value cache of the persistent engine (empty
        before the first audit); safe to transplant into an engine with the
        same spec/metric/weighting (keys are content-addressed)."""
        if self._engine is None:
            return {}
        return self._engine.export_value_cache()

    # ----------------------------------------------------------------- audit

    def audit(self, deadline=None) -> StreamingAuditReport:
        """Full re-audit of the current state; O(atoms) end to end.

        Runs the configured algorithm on the atom proxy through the
        persistent engine.  The result (objective value, chosen groups,
        group sizes) is bit-identical to a fresh batch audit of the frozen
        current population with the same seed.
        """
        from repro.core.algorithms.base import get_algorithm

        self.sync()
        if self.store.size == 0:
            raise MutationError("cannot audit an empty population")
        proxy, table = self._ensure_proxy()
        proxy_scores = np.full(proxy.size, self.store.hist_spec.low, dtype=np.float64)
        start = time.perf_counter()
        result = get_algorithm(self.algorithm, **self.algorithm_options).run(
            proxy,
            proxy_scores,
            hist_spec=self.store.hist_spec,
            metric=self.metric,
            rng=self.seed,
            weighting=self.weighting,
            backend=self.backend,
            workers=self.workers,
            tracer=self.tracer,
            metrics=self.metrics,
            retry_policy=self.retry_policy,
            fault_config=self.fault_config,
            deadline=deadline,
            engine_factory=self._engine_factory,
            kernel=self.kernel,
        )
        duration = time.perf_counter() - start
        engine = self._engine
        assert engine is not None
        partitions = list(result.partitioning)
        sizes = tuple(engine.true_size(p) for p in partitions)
        groups = tuple(
            tuple((name, int(code)) for name, code in p.constraints) for p in partitions
        )
        self.audits += 1
        self._seed_frontier(partitions, sizes)
        return StreamingAuditReport(
            kind="audit",
            version=self.store.version,
            population_size=self.store.size,
            unfairness=result.unfairness,
            n_partitions=result.partitioning.k,
            attributes=tuple(result.partitioning.attributes_used()),
            group_sizes=sizes,
            groups=groups,
            algorithm=self.algorithm,
            metric=self.metric,
            duration_seconds=duration,
            deadline_hit=result.deadline_hit,
            n_evaluations=result.n_evaluations,
            cache_hits=result.cache_hits,
        )

    # ------------------------------------------------------------ delta path

    def _seed_frontier(
        self, partitions: "list[Partition]", sizes: "tuple[int, ...]"
    ) -> None:
        engine = self._engine
        assert engine is not None
        constraints = [
            tuple((name, int(code)) for name, code in p.constraints) for p in partitions
        ]
        positions = {
            name: j for j, name in enumerate(self.store.schema.protected_names)
        }
        matrix = np.full((len(constraints), len(positions)), -1, dtype=np.int64)
        for j, group in enumerate(constraints):
            for name, code in group:
                matrix[j, positions[name]] = code
        self._frontier = _Frontier(
            constraints=constraints,
            partitions=list(partitions),
            attr_positions=positions,
            constraint_matrix=matrix,
            sizes=list(sizes),
            dirty=set(),
        )

    def _mark_frontier_dirty(self, applied: AppliedMutation) -> None:
        frontier = self._frontier
        if frontier is None or frontier.stale:
            return
        key = tuple(int(code) for code in applied.codes)
        try:
            index = frontier.code_groups[key]
        except KeyError:
            matrix = frontier.constraint_matrix
            row = np.asarray(key, dtype=np.int64)
            hits = np.flatnonzero(((matrix == row) | (matrix < 0)).all(axis=1))
            index = int(hits[0]) if hits.size else None
            frontier.code_groups[key] = index
        if index is None:
            # The mutation's code combination matches no chosen group: the
            # partitioning no longer covers the population and must be
            # re-found.
            frontier.stale = True
        else:
            frontier.dirty.add(index)

    def rescore_delta(self) -> "StreamingAuditReport | None":
        """Re-price the previous audit's groups after a mutation batch.

        Only groups a mutation actually touched get a new histogram, and
        each patch recomputes one row/column of the tracker's distance
        matrix — O(Δ·k) work total.  Returns None when no audit has run
        yet; returns a ``stale=True`` report (value of the *coverable*
        groups) when the old partitioning no longer covers the population
        (a full :meth:`audit` is then required).
        """
        self.sync()
        frontier = self._frontier
        if frontier is None or self._engine is None:
            return None
        start = time.perf_counter()
        table = self.state.materialize()
        if frontier.tracker is None:
            # First delta after an audit: seed the O(k²) pairwise tracker
            # from the audit-time table the engine is still bound to.
            frontier.tracker = self._engine.incremental(frontier.partitions)
        tracker = frontier.tracker
        stale = frontier.stale
        if not stale:
            for index in sorted(frontier.dirty):
                rows = table.rows_for_constraints(frontier.constraints[index])
                if rows.shape[0] == 0:
                    # A mutation batch emptied this group entirely.
                    stale = True
                    frontier.stale = True
                    break
                counts = table.histogram(rows)
                size = int(table.sizes[rows].sum())
                pmf = counts / size
                frontier.sizes[index] = size
                tracker.update_pmf(
                    index,
                    pmf,
                    weight=float(size) if self.weighting == "size" else None,
                )
        frontier.dirty.clear()
        value = float(tracker.unfairness())
        sizes = list(frontier.sizes)
        duration = time.perf_counter() - start
        return StreamingAuditReport(
            kind="delta",
            version=self.store.version,
            population_size=self.store.size,
            unfairness=value,
            n_partitions=len(frontier.constraints),
            attributes=tuple(
                sorted({name for c in frontier.constraints for name, _ in c})
            ),
            group_sizes=tuple(sizes),
            groups=tuple(frontier.constraints),
            algorithm=self.algorithm,
            metric=self.metric,
            duration_seconds=duration,
            stale=stale,
        )

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the persistent engine's backend (pool, shared memory)."""
        if self._engine is not None:
            self._engine.shutdown()
