"""Incremental maintenance of the average-pairwise objective.

Every greedy step in the paper's algorithms perturbs the current frontier
locally — one partition splits into its children, or a few partitions merge
back — yet the seed code re-evaluated the whole objective from scratch
(O(k²) pairwise distances) for every candidate.  This module maintains the
frontier's dense pairwise-distance matrix and, for a split/merge candidate,
recomputes only the rows/columns of the partitions that changed:
``Δ · k + Δ²`` new distances instead of ``(k + Δ)²`` — O(k·Δ).

Two implementations share one interface so they can be replayed against
each other (the engine's property tests drive random split sequences
through both and require agreement to 1e-12):

* :class:`IncrementalObjective` — the real thing, matrix-maintaining.
* :class:`FullRecomputeObjective` — the reference, re-evaluating the whole
  frontier through the engine's full path on every query (what the engine's
  ``mode="full"`` baseline uses).

The ``unbalanced`` algorithm is the main in-tree consumer: scoring one
partition's candidate children against its siblings reuses the cached
sibling-sibling pair sum for every candidate attribute, and
:class:`SiblingFamily` computes one pairwise matrix per split and slices
every child's tracker from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.partition import Partition
from repro.engine.kernels import has_vectorized_kernel
from repro.exceptions import PartitioningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EvaluationEngine

__all__ = ["IncrementalObjective", "FullRecomputeObjective", "SiblingFamily"]


class IncrementalObjective:
    """Average pairwise distance of a frontier, updated in O(k·Δ) per change.

    The frontier is an ordered list of partitions.  ``score_*`` methods
    answer what-if queries without mutating state; ``apply_*`` methods
    commit a change, splicing the cached matrix instead of recomputing it.
    """

    def __init__(self, engine: "EvaluationEngine", partitions: Sequence[Partition]) -> None:
        self.engine = engine
        self.partitions = list(partitions)
        self._pmfs = engine.pmf_matrix(self.partitions)
        self._weights = engine.partition_weights(self.partitions)
        self._matrix = engine.materialize_pairwise(self._pmfs)
        self._frontier_sum: "float | None" = None

    @classmethod
    def from_matrix(
        cls,
        engine: "EvaluationEngine",
        partitions: Sequence[Partition],
        pmfs: np.ndarray,
        weights: "np.ndarray | None",
        matrix: np.ndarray,
    ) -> "IncrementalObjective":
        """A tracker over ``partitions`` whose pmf stack, weights and
        pairwise matrix were already computed (see :class:`SiblingFamily`);
        they must equal what the constructor would compute, bit for bit."""
        tracker = cls.__new__(cls)
        tracker.engine = engine
        tracker.partitions = list(partitions)
        tracker._pmfs = pmfs
        tracker._weights = weights
        tracker._matrix = matrix
        tracker._frontier_sum = None
        return tracker

    # ------------------------------------------------------------ inspection

    @property
    def k(self) -> int:
        """Number of partitions on the current frontier."""
        return len(self.partitions)

    def unfairness(self) -> float:
        """Objective value of the current frontier (from the cached matrix)."""
        if self.engine.trace_enabled:
            with self.engine.tracer.span(
                "engine.incremental.unfairness", k=self.k
            ) as span:
                self.engine.record_incremental_evaluation(self.k, new_pairs=0)
                value = self._value(self._pair_sum(), self.k, self._weights)
                span.set(value=value)
            return value
        self.engine.record_incremental_evaluation(self.k, new_pairs=0)
        return self._value(self._pair_sum(), self.k, self._weights)

    def pairwise_matrix(self) -> np.ndarray:
        """Copy of the maintained dense pairwise-distance matrix."""
        return self._matrix.copy()

    # -------------------------------------------------------------- what-ifs

    def score_split(self, index: int, children: Sequence[Partition]) -> float:
        """Objective if ``partitions[index]`` were replaced by ``children``."""
        return self.score_replace((index,), children)

    def score_merge(self, indices: Sequence[int], merged: Partition) -> float:
        """Objective if the partitions at ``indices`` were merged into one."""
        return self.score_replace(indices, (merged,))

    def score_add(self, added: Sequence[Partition]) -> float:
        """Objective of ``frontier ∪ added`` (the union-average query)."""
        return self.score_replace((), added)

    def score_add_pmfs(
        self, candidates: "Sequence[tuple[np.ndarray, np.ndarray | None]]"
    ) -> list[float]:
        """Objective of ``frontier ∪ added`` for every candidate, from
        precomputed ``(pmfs, weights)`` stacks.

        The atom path (``EvaluationEngine.split_pmfs``) produces candidate
        children as histogram stacks without ever materialising Partition
        objects; this scores them through the exact arithmetic of
        ``score_replace((), added)`` — same cross/within blocks, same pair
        accounting — so the two entry points agree bit for bit.  Each
        ``weights`` must be the added sizes under size weighting and None
        under uniform weighting, mirroring ``partition_weights``.  With a
        vectorized kernel, all candidates share one cross call and one
        pairwise call over their stacked children.
        """
        engine = self.engine
        if not engine.trace_enabled:
            return self._score_add_pmfs_inner(candidates)
        with engine.tracer.span(
            "engine.incremental.replace",
            k=self.k,
            removed=0,
            added=sum(int(pmfs.shape[0]) for pmfs, _ in candidates),
            candidates=len(candidates),
        ) as span:
            values = self._score_add_pmfs_inner(candidates)
            span.set(value=max(values, default=0.0))
        engine.metrics.observe("engine.incremental_seconds", span.duration_seconds)
        return values

    def _score_add_pmfs_inner(
        self, candidates: "Sequence[tuple[np.ndarray, np.ndarray | None]]"
    ) -> list[float]:
        engine = self.engine
        kept_sum = self._frontier_pair_sum()
        kept_w = None if self._weights is None else self._weights.copy()
        if len(candidates) < 2 or not has_vectorized_kernel(engine.metric):
            # Per-candidate blocks: a loop-fallback metric (an LP per pair
            # for emd-t) would pay for every cross-candidate pair, and can
            # differ in the last bit when a pair is taken in the other
            # direction.
            return [
                self._added_value(
                    kept_sum,
                    kept_w,
                    engine.materialize_cross(pmfs, self._pmfs),
                    engine.materialize_pairwise(pmfs),
                    weights,
                )
                for pmfs, weights in candidates
            ]
        stacked = np.vstack([pmfs for pmfs, _ in candidates])
        cross_all = engine.materialize_cross(stacked, self._pmfs)
        within_all = engine.materialize_pairwise(stacked)
        values = []
        start = 0
        for pmfs, weights in candidates:
            stop = start + int(pmfs.shape[0])
            # The fused kernels are exactly symmetric, so the stacked blocks
            # hold the per-candidate distances; taking each block as a
            # contiguous array of its old shape keeps every sum bit-identical.
            cross = cross_all[start:stop]
            if weights is not None:
                cross = cross.copy()
            within = within_all[start:stop, start:stop].copy()
            values.append(self._added_value(kept_sum, kept_w, cross, within, weights))
            start = stop
        return values

    def score_replace(
        self, removed: Sequence[int], added: Sequence[Partition]
    ) -> float:
        """Objective after removing positions ``removed`` and adding
        ``added``, computing only the added-vs-kept and added-vs-added
        distances."""
        value, _ = self._replace_blocks(removed, added)
        return value

    # --------------------------------------------------------------- commits

    def apply_split(self, index: int, children: Sequence[Partition]) -> None:
        self.apply_replace((index,), children)

    def apply_merge(self, indices: Sequence[int], merged: Partition) -> None:
        self.apply_replace(indices, (merged,))

    def apply_replace(
        self, removed: Sequence[int], added: Sequence[Partition]
    ) -> None:
        """Commit a replacement, splicing cached rows/columns (no distance
        recomputation beyond the new blocks)."""
        _, blocks = self._replace_blocks(removed, added)
        kept_idx, added_pmfs, added_weights, cross, within = blocks
        kept_matrix = self._matrix[np.ix_(kept_idx, kept_idx)]
        n_kept, n_added = kept_idx.shape[0], len(added)
        matrix = np.zeros((n_kept + n_added, n_kept + n_added), dtype=np.float64)
        matrix[:n_kept, :n_kept] = kept_matrix
        matrix[n_kept:, :n_kept] = cross
        matrix[:n_kept, n_kept:] = cross.T
        matrix[n_kept:, n_kept:] = within
        self._matrix = matrix
        self._frontier_sum = None
        kept_partitions = [self.partitions[i] for i in kept_idx]
        self.partitions = kept_partitions + list(added)
        self._pmfs = (
            np.vstack([self._pmfs[kept_idx], added_pmfs])
            if self.partitions
            else np.zeros((0, self.engine.spec.bins), dtype=np.float64)
        )
        if self._weights is not None:
            self._weights = np.concatenate([self._weights[kept_idx], added_weights])

    def update_pmf(
        self, index: int, pmf: np.ndarray, weight: "float | None" = None
    ) -> None:
        """Patch one frontier entry's histogram in place.

        The streaming layer uses this when a mutation batch changes the
        member set of an already-chosen group: only the touched entry's row
        and column of the cached matrix are recomputed — ``k - 1`` new
        distances instead of a C(k, 2) rebuild.  ``weight`` is the entry's
        new size under size weighting (required there, rejected otherwise
        to catch callers passing sizes the objective would ignore).
        """
        if not 0 <= index < self.k:
            raise PartitioningError(
                f"update position {index} out of range for k={self.k}"
            )
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.shape != (self.engine.spec.bins,):
            raise PartitioningError(
                f"updated pmf has shape {pmf.shape}, expected ({self.engine.spec.bins},)"
            )
        if self._weights is not None and weight is None:
            raise PartitioningError("size weighting requires the updated weight")
        self._pmfs[index] = pmf
        self._frontier_sum = None
        cross = self.engine.materialize_cross(
            pmf[np.newaxis, :], self._pmfs
        ).ravel()
        cross[index] = 0.0
        self._matrix[index, :] = cross
        self._matrix[:, index] = cross
        if self._weights is not None:
            self._weights[index] = float(weight)
        self.engine.record_incremental_evaluation(self.k, new_pairs=self.k - 1)

    # -------------------------------------------------------------- internal

    def _replace_blocks(self, removed: Sequence[int], added: Sequence[Partition]):
        """Instrumentation shim: an ``engine.incremental.replace`` span (and
        ``engine.incremental_seconds`` timing) per split/merge what-if or
        commit when tracing is enabled; free otherwise."""
        engine = self.engine
        if not engine.trace_enabled:
            return self._replace_blocks_inner(removed, added)
        with engine.tracer.span(
            "engine.incremental.replace",
            k=self.k,
            removed=len(removed),
            added=len(added),
        ) as span:
            value, blocks = self._replace_blocks_inner(removed, added)
            span.set(value=value)
        engine.metrics.observe("engine.incremental_seconds", span.duration_seconds)
        return value, blocks

    def _replace_blocks_inner(
        self, removed: Sequence[int], added: Sequence[Partition]
    ):
        removed_set = set(int(i) for i in removed)
        if any(i < 0 or i >= self.k for i in removed_set):
            raise PartitioningError(
                f"replace positions {sorted(removed_set)} out of range for k={self.k}"
            )
        kept_idx = np.array(
            [i for i in range(self.k) if i not in removed_set], dtype=np.int64
        )
        added = list(added)
        added_pmfs = self.engine.pmf_matrix(added)
        added_weights = self.engine.partition_weights(added)

        cross = self.engine.materialize_cross(added_pmfs, self._pmfs[kept_idx])
        within = self.engine.materialize_pairwise(added_pmfs)
        if removed_set:
            kept_sum = self._pair_sum_over(kept_idx)
        else:
            kept_sum = self._frontier_pair_sum()
        kept_w = None if self._weights is None else self._weights[kept_idx]
        value = self._added_value(kept_sum, kept_w, cross, within, added_weights)
        return value, (kept_idx, added_pmfs, added_weights, cross, within)

    def _added_value(
        self,
        kept_sum: float,
        kept_w: "np.ndarray | None",
        cross: np.ndarray,
        within: np.ndarray,
        added_weights: "np.ndarray | None",
    ) -> float:
        """Objective of the kept partitions plus added ones, from the kept
        pair sum and the added-vs-kept / added-vs-added blocks; accounts
        one incremental evaluation."""
        n_added, n_kept = cross.shape
        k_new = n_kept + n_added
        self.engine.record_incremental_evaluation(
            k_new, new_pairs=n_added * n_kept + n_added * (n_added - 1) // 2
        )
        if kept_w is None:
            total = kept_sum + float(cross.sum()) + 0.5 * float(within.sum())
            return self._value(total, k_new, None)
        total = (
            kept_sum
            + float(added_weights @ cross @ kept_w)
            + 0.5 * float(added_weights @ within @ added_weights)
        )
        return self._value(total, k_new, np.concatenate([kept_w, added_weights]))

    def _frontier_pair_sum(self) -> float:
        """``_pair_sum_over`` the whole frontier, cached until the next
        commit — every add-only what-if starts from it."""
        if self._frontier_sum is None:
            self._frontier_sum = self._pair_sum_over(np.arange(self.k, dtype=np.int64))
        return self._frontier_sum

    def _pair_sum(self) -> float:
        if self._weights is None:
            return 0.5 * float(self._matrix.sum())
        return 0.5 * float(self._weights @ self._matrix @ self._weights)

    def _pair_sum_over(self, idx: np.ndarray) -> float:
        sub = self._matrix.take(idx, axis=0).take(idx, axis=1)
        if self._weights is None:
            return 0.5 * float(sub.sum())
        w = self._weights[idx]
        return 0.5 * float(w @ sub @ w)

    @staticmethod
    def _value(total: float, k: int, weights: "np.ndarray | None") -> float:
        if k < 2:
            return 0.0
        if weights is None:
            return total / (k * (k - 1) / 2)
        weight_pairs = (weights.sum() ** 2 - float(weights @ weights)) / 2.0
        return total / weight_pairs if weight_pairs > 0 else 0.0


class SiblingFamily:
    """The children of one split, sharing one pairwise matrix.

    Algorithm 2 scores every child against the other children, its
    siblings.  Instead of each child seeding its own tracker, the family
    computes the children's pairwise matrix once and slices each child's
    sibling tracker, and the child's keep score, from it.  The slices equal
    ``engine.incremental(siblings)`` and its ``score_add([child])`` bit for
    bit because the fused kernels give d(a, b) == d(b, a) exactly, so a row
    of the family matrix is the child-vs-siblings cross block.  Under
    ``mode="full"`` or a metric without a vectorized kernel (whose
    per-pair direction can change the last bit), :meth:`member` takes
    that per-child path instead.
    """

    def __init__(self, engine: "EvaluationEngine", partitions: Sequence[Partition]) -> None:
        self.engine = engine
        self.partitions = list(partitions)
        self._shared = engine.mode != "full" and has_vectorized_kernel(engine.metric)
        self._matrix: "np.ndarray | None" = None

    def member(
        self, index: int
    ) -> "tuple[IncrementalObjective | FullRecomputeObjective, float]":
        """A tracker seeded with every partition but ``index``, and the
        objective of adding partition ``index`` to it — one incremental
        evaluation, as ``tracker.score_add([partition])`` accounts it."""
        if not self._shared:
            siblings = [p for j, p in enumerate(self.partitions) if j != index]
            tracker = self.engine.incremental(siblings)
            return tracker, tracker.score_add([self.partitions[index]])
        if self._matrix is None:
            # Computed on first use: a family whose members are all emitted
            # unsplit (no attributes left, or the deadline passed) never
            # pays for it.
            self._pmfs = self.engine.pmf_matrix(self.partitions)
            self._weights = self.engine.partition_weights(self.partitions)
            self._matrix = self.engine.materialize_pairwise(self._pmfs)
        others = np.array(
            [j for j in range(len(self.partitions)) if j != index], dtype=np.int64
        )
        weights = None if self._weights is None else self._weights[others]
        tracker = IncrementalObjective.from_matrix(
            self.engine,
            [self.partitions[j] for j in others],
            self._pmfs[others],
            weights,
            self._matrix.take(others, axis=0).take(others, axis=1),
        )
        value = tracker._added_value(
            tracker._frontier_pair_sum(),
            None if weights is None else weights.copy(),
            self._matrix[index : index + 1].take(others, axis=1),
            np.zeros((1, 1), dtype=np.float64),
            None if self._weights is None else self._weights[[index]],
        )
        return tracker, value


class FullRecomputeObjective:
    """Reference implementation: every query re-evaluates from scratch.

    Interface-compatible with :class:`IncrementalObjective`; used as the
    engine's ``mode="full"`` baseline and by the property tests that pin
    the incremental arithmetic to full recomputation.
    """

    def __init__(self, engine: "EvaluationEngine", partitions: Sequence[Partition]) -> None:
        self.engine = engine
        self.partitions = list(partitions)

    @property
    def k(self) -> int:
        return len(self.partitions)

    def unfairness(self) -> float:
        return self.engine.unfairness(self.partitions)

    def pairwise_matrix(self) -> np.ndarray:
        return self.engine.materialize_pairwise(
            self.engine.pmf_matrix(self.partitions)
        )

    def score_split(self, index: int, children: Sequence[Partition]) -> float:
        return self.score_replace((index,), children)

    def score_merge(self, indices: Sequence[int], merged: Partition) -> float:
        return self.score_replace(indices, (merged,))

    def score_add(self, added: Sequence[Partition]) -> float:
        return self.score_replace((), added)

    def score_replace(
        self, removed: Sequence[int], added: Sequence[Partition]
    ) -> float:
        return self.engine.unfairness(self._after(removed, added))

    def apply_split(self, index: int, children: Sequence[Partition]) -> None:
        self.apply_replace((index,), children)

    def apply_merge(self, indices: Sequence[int], merged: Partition) -> None:
        self.apply_replace(indices, (merged,))

    def apply_replace(
        self, removed: Sequence[int], added: Sequence[Partition]
    ) -> None:
        self.partitions = self._after(removed, added)

    def _after(
        self, removed: Sequence[int], added: Sequence[Partition]
    ) -> list[Partition]:
        removed_set = set(int(i) for i in removed)
        if any(i < 0 or i >= self.k for i in removed_set):
            raise PartitioningError(
                f"replace positions {sorted(removed_set)} out of range for k={self.k}"
            )
        kept = [p for i, p in enumerate(self.partitions) if i not in removed_set]
        return kept + list(added)
