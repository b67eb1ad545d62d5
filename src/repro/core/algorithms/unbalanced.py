"""Algorithm 2 of the paper: ``unbalanced``.

Grows an *unbalanced* partitioning tree: after an initial split of the whole
population on the worst attribute (as in ``balanced``), every resulting
partition independently decides whether to split further.  A partition is
replaced by its children only if doing so raises the average distance it
exhibits next to its siblings — a local what-if on the overall objective.

Pseudo-code (Algorithm 2, invoked once per child of the initial split)::

    unbalanced(current, siblings, f, A):
        if A == ∅: output current; return
        currentAvg  = averageEMD(current, siblings, f)
        a = worstAttribute(current, f, A);  A -= a
        children    = split(current, a)
        childrenAvg = averageEMD(children, siblings, f)
        if currentAvg >= childrenAvg: output current
        else:
            for p in children: unbalanced({p}, children - {p}, f, A)

The two-argument ``averageEMD(X, S, f)`` is read as the average pairwise
distance over the union X ∪ S (DESIGN.md §2.4); pass ``cross_only=True`` to
use only X-vs-S pairs instead (the stopping-condition ablation).

This recursion is the engine's incremental objective's natural habitat: the
siblings are fixed across the whole local decision, so one sibling tracker
scores the un-split partition *and* every candidate split by adding only
the new children-vs-siblings block — the sibling-sibling pair sum is
computed once and reused.  The trackers of one split's children are sliced
from a single pairwise matrix of those children
(:class:`~repro.engine.incremental.SiblingFamily`).  Scoring keep and
split through the same tracker also keeps degenerate comparisons (a split
that changes no member set) exact ties, as in the reference evaluator.

A partition that is one *atom* (all its workers share every protected
code, see :meth:`~repro.engine.engine.EvaluationEngine.single_atom`) is
kept without being scored: each of its splits gives back its own member
set, which ties the keep score exactly, and a tie keeps the partition.
The output is unchanged and the effort counters are lower.
``r-unbalanced`` still draws the attribute such a node would have split
on, so every later node draws the same one.
"""

from __future__ import annotations

from repro.core.algorithms.base import PartitioningAlgorithm, register_algorithm
from repro.core.partition import Partition
from repro.core.splitting import (
    split_partition,
    worst_attribute,
    worst_attribute_local,
)
from repro.engine.context import SearchContext
from repro.engine.incremental import SiblingFamily

__all__ = ["UnbalancedAlgorithm", "RandomUnbalancedAlgorithm"]


class _UnbalancedBase(PartitioningAlgorithm):
    """Shared recursion for ``unbalanced`` and ``r-unbalanced``."""

    def __init__(self, cross_only: bool = False) -> None:
        self.cross_only = cross_only

    def _choose_attribute(
        self,
        context: SearchContext,
        partition: Partition,
        siblings: list[Partition],
        candidates: list[str],
        tracker: "object | None",
    ) -> tuple[str, list[Partition], float]:
        """Return (attribute, children, children_avg) for one local step."""
        raise NotImplementedError

    def _initial_split(
        self,
        context: SearchContext,
        root: Partition,
        candidates: list[str],
    ) -> tuple[str, list[Partition]]:
        """First split of the whole population (worst attribute for the
        heuristic, random for the baseline)."""
        raise NotImplementedError

    def _keep_single_atom(self, context: SearchContext, candidates: list[str]) -> None:
        """Consume what the skipped attribute choice of a single-atom node
        would have consumed besides its scores (nothing, by default)."""

    def _search(self, context: SearchContext) -> list[Partition]:
        candidates = list(context.population.schema.protected_names)
        root = context.engine.root_partition()
        if context.should_stop():
            return [root]
        attribute, first_level = self._initial_split(context, root, candidates)
        remaining = [a for a in candidates if a != attribute]

        output: list[Partition] = []
        family = self._family(context, first_level)
        for index in range(len(first_level)):
            self._recurse(context, first_level, index, family, remaining, output)
        return output

    def _family(
        self, context: SearchContext, partitions: list[Partition]
    ) -> "SiblingFamily | None":
        """Shared sibling trackers for one split's children (none under
        ``cross_only``, which scores with cross averages instead)."""
        return None if self.cross_only else SiblingFamily(context.engine, partitions)

    def _recurse(
        self,
        context: SearchContext,
        family_members: list[Partition],
        index: int,
        family: "SiblingFamily | None",
        candidates: list[str],
        output: list[Partition],
    ) -> None:
        # Deadline poll per node: once expired, this node and every node
        # still pending in the deterministic DFS order are emitted unsplit,
        # so the cutoff result is the processed prefix plus the untouched
        # remainder of the frontier.
        current = family_members[index]
        if not candidates or context.should_stop():
            output.append(current)
            return
        if context.engine.single_atom(current):
            # Every split of one atom is itself: an exact tie, so it stays.
            self._keep_single_atom(context, candidates)
            output.append(current)
            return
        siblings = [p for j, p in enumerate(family_members) if j != index]
        with context.tracer.span(
            "unbalanced.node",
            depth=len(current.constraints),
            size=current.size,
            siblings=len(siblings),
            candidates=len(candidates),
        ) as span:
            if family is None:
                tracker = None
                current_avg = context.engine.cross_average([current], siblings)
            else:
                tracker, current_avg = family.member(index)
            attribute, children, children_avg = self._choose_attribute(
                context, current, siblings, candidates, tracker
            )
            split = children_avg > current_avg
            span.set(
                attribute=attribute,
                best_objective=max(current_avg, children_avg),
                split=split,
            )
        if not split:
            output.append(current)
            return
        remaining = [a for a in candidates if a != attribute]
        child_family = self._family(context, children)
        for child_index in range(len(children)):
            self._recurse(
                context, children, child_index, child_family, remaining, output
            )


@register_algorithm
class UnbalancedAlgorithm(_UnbalancedBase):
    """Locally greedy tree growth on the worst attribute (paper Algorithm 2)."""

    name = "unbalanced"

    def _initial_split(
        self,
        context: SearchContext,
        root: Partition,
        candidates: list[str],
    ) -> tuple[str, list[Partition]]:
        choice = worst_attribute(context.population, [root], candidates, context.engine)
        return choice.attribute, choice.children

    def _choose_attribute(
        self,
        context: SearchContext,
        partition: Partition,
        siblings: list[Partition],
        candidates: list[str],
        tracker: "object | None",
    ) -> tuple[str, list[Partition], float]:
        choice = worst_attribute_local(
            context.population,
            partition,
            siblings,
            candidates,
            context.engine,
            self.cross_only,
            tracker=tracker,
        )
        return choice.attribute, choice.children, choice.score


@register_algorithm
class RandomUnbalancedAlgorithm(_UnbalancedBase):
    """The ``r-unbalanced`` baseline: Algorithm 2 with random split attributes.

    Keeps the local replace-if-better stopping rule but draws the candidate
    attribute uniformly at every step.
    """

    name = "r-unbalanced"

    def _initial_split(
        self,
        context: SearchContext,
        root: Partition,
        candidates: list[str],
    ) -> tuple[str, list[Partition]]:
        attribute = self._draw(context, candidates)
        return attribute, split_partition(context.population, root, attribute)

    @staticmethod
    def _draw(context: SearchContext, candidates: list[str]) -> str:
        return str(context.rng.choice(candidates))

    def _keep_single_atom(self, context: SearchContext, candidates: list[str]) -> None:
        self._draw(context, candidates)

    def _choose_attribute(
        self,
        context: SearchContext,
        partition: Partition,
        siblings: list[Partition],
        candidates: list[str],
        tracker: "object | None",
    ) -> tuple[str, list[Partition], float]:
        attribute = self._draw(context, candidates)
        children = split_partition(context.population, partition, attribute)
        if tracker is not None:
            score = tracker.score_add(children)
        elif self.cross_only:
            score = context.engine.cross_average(children, siblings)
        else:
            score = context.engine.union_average(children, siblings)
        return attribute, children, score
