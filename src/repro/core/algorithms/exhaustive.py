"""Exact brute-force search over all attribute-split partitionings.

The paper: "we also implemented an exhaustive algorithm that solves our
optimization problem exactly by generating all possible partitionings in a
brute-force manner ... However, this algorithm failed to terminate after
running for two days with only 6 attributes ... even when each attribute had
only a maximum of 5 values."

The space enumerated here is the space both heuristics navigate: *unbalanced
split trees*, where every node independently either stays a leaf or splits on
one attribute not used on its root path.  Splits that produce a single
non-empty child are skipped (they change no member set).  Distinct trees can
induce the same partitioning (e.g. fully splitting on a then b, or b then a),
so candidates are deduplicated on their member sets before evaluation
(keyed on atom rows on the atom path, see
:func:`~repro.core.partition.content_key`).

Deduplicated candidates are scored in fixed-size batches through
``engine.score_many``, with the argmax taken in enumeration order (strict
improvement only), so the winner is identical across chunk sizes.

The search is budgeted: exceeding ``budget`` candidate partitionings raises
:class:`~repro.exceptions.BudgetExceededError` — the bounded-compute analogue
of the paper's two-day timeout.  :func:`count_split_trees` computes the size
of the space analytically, which the blow-up benchmark (experiment E5) uses
to show why the brute force is hopeless at the paper's scale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from repro.core.algorithms.base import PartitioningAlgorithm, register_algorithm
from repro.core.partition import Partition, content_key
from repro.core.population import Population
from repro.core.splitting import split_partition
from repro.engine.context import SearchContext
from repro.exceptions import BudgetExceededError

__all__ = ["ExhaustiveAlgorithm", "count_split_trees"]

#: Candidates per ``score_many`` batch; small enough to keep peak memory
#: flat on huge enumerations.
_BATCH_SIZE = 256


@register_algorithm
class ExhaustiveAlgorithm(PartitioningAlgorithm):
    """Budgeted exact optimum over all attribute-split partitionings.

    Parameters
    ----------
    budget:
        Maximum number of candidate partitionings to evaluate before raising
        :class:`~repro.exceptions.BudgetExceededError`.
    """

    name = "exhaustive"

    def __init__(self, budget: int = 200_000) -> None:
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget

    def _search(self, context: SearchContext) -> list[Partition]:
        population, engine = context.population, context.engine
        root = context.engine.root_partition()
        attributes = tuple(population.schema.protected_names)
        best: list[Partition] | None = None
        best_score = -np.inf
        seen: set[tuple] = set()
        count = 0
        pending: list[list[Partition]] = []
        splits: "dict[tuple[Partition, str], list[Partition]]" = {}
        for candidate in self._enumerate(population, root, attributes, splits):
            # Per-candidate deadline poll: a cutoff run scores exactly the
            # enumeration-order prefix an unbounded run scores first, so its
            # argmax is the prefix argmax (first-wins tie-breaks preserved).
            if context.should_stop():
                break
            key = content_key(candidate)
            if key in seen:
                continue
            seen.add(key)
            count += 1
            if count > self.budget:
                raise BudgetExceededError(self.budget)
            pending.append(candidate)
            if len(pending) >= _BATCH_SIZE:
                best, best_score = self._flush(context, pending, best, best_score)
                pending = []
        if pending:
            best, best_score = self._flush(context, pending, best, best_score)
        if best is None:
            # Deadline expired before the first candidate was even scored;
            # the root-only partitioning is the empty-prefix partial result.
            best = [root]
        context.metrics.set_gauge("exhaustive.candidates", count)
        return best

    @staticmethod
    def _flush(
        context: SearchContext,
        pending: list[list[Partition]],
        best: "list[Partition] | None",
        best_score: float,
    ) -> tuple["list[Partition] | None", float]:
        """Score one batch and fold it into the running argmax (first wins)."""
        with context.tracer.span(
            "exhaustive.batch", n_candidates=len(pending)
        ) as span:
            for candidate, score in zip(pending, context.engine.score_many(pending)):
                if score > best_score:
                    best, best_score = candidate, score
            span.set(best_objective=best_score)
        return best, best_score

    def _enumerate(
        self,
        population: Population,
        partition: Partition,
        attributes: tuple[str, ...],
        splits: "dict[tuple[Partition, str], list[Partition]]",
    ) -> Iterator[list[Partition]]:
        """All partitionings of one partition's members: keep it whole, or
        split on any unused attribute and recurse independently per child.

        ``splits`` memoises each (partition, attribute) split for the whole
        search: the Cartesian products re-enumerate the same partitions
        many times, and re-splitting them would create a new Partition —
        and a new cached histogram — on every visit.
        """
        yield [partition]
        for i, attribute in enumerate(attributes):
            children = splits.get((partition, attribute))
            if children is None:
                children = split_partition(population, partition, attribute)
                splits[(partition, attribute)] = children
            if len(children) < 2:
                continue
            rest = attributes[:i] + attributes[i + 1 :]
            yield from self._combine(population, children, rest, splits)

    def _combine(
        self,
        population: Population,
        children: Sequence[Partition],
        attributes: tuple[str, ...],
        splits: "dict[tuple[Partition, str], list[Partition]]",
    ) -> Iterator[list[Partition]]:
        """Cartesian product of the sub-partitionings of each child, lazily."""
        if not children:
            yield []
            return
        first, rest = children[0], children[1:]
        for head in self._enumerate(population, first, attributes, splits):
            for tail in self._combine(population, rest, attributes, splits):
                yield head + tail


def count_split_trees(cardinalities: Sequence[int]) -> int:
    """Number of unbalanced split trees for attributes of given cardinalities.

    Assumes every attribute-value cell is non-empty (the worst case), so the
    count only depends on the multiset of cardinalities:

        T({}) = 1
        T(C)  = 1 + sum_{c in C} T(C - {c}) ** c

    This over-counts partitionings slightly (different trees can coincide)
    but is the number of *candidates* a brute force must generate, which is
    the quantity that explodes.  For the paper's setting (six attributes with
    cardinalities 2, 3, 5, 3, 4, 5) the result has ~370 decimal digits —
    hence "failed to terminate after two days".
    """
    for c in cardinalities:
        if c < 2:
            raise ValueError(f"attribute cardinalities must be >= 2, got {c}")

    @lru_cache(maxsize=None)
    def count(cards: tuple[int, ...]) -> int:
        total = 1
        for i, c in enumerate(cards):
            rest = cards[:i] + cards[i + 1 :]
            total += count(rest) ** c
        return total

    return count(tuple(sorted(cardinalities)))
