"""Splitting machinery: ``split`` and ``worstAttribute`` from the paper.

``split(W, a)`` partitions a group of workers by the partition codes of
protected attribute ``a`` (one child per non-empty code).

``worstAttribute(W, f, A)`` tries every remaining attribute, splits on it,
and returns the attribute whose induced partitioning exhibits the *highest*
average pairwise distance — "worst" in the sense of most unfair.  The paper
likens this local choice to the gain functions used to grow decision trees.

Two variants exist because the two algorithms ask the question at different
scopes: :func:`worst_attribute` splits *every* current partition on the
candidate (Algorithm 1, ``balanced``); :func:`worst_attribute_local` splits a
single partition and scores its children against the partition's siblings
(Algorithm 2, ``unbalanced``).

Both accept any evaluator implementing the query protocol —
``unfairness`` / ``union_average`` / ``cross_average`` — i.e. either the
reference :class:`~repro.core.unfairness.UnfairnessEvaluator` or the
:class:`~repro.engine.engine.EvaluationEngine`.  When the evaluator exposes
the engine's batch/incremental extensions (``score_many``, ``incremental``),
the candidate scoring runs as one batch and reuses the sibling-sibling
pair sums across candidates; otherwise it falls back to one query per
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.core.partition import Partition, common_atom_table
from repro.core.population import Population
from repro.exceptions import PartitioningError

__all__ = [
    "split_partition",
    "split_partitions",
    "worst_attribute",
    "worst_attribute_local",
    "AttributeChoice",
    "ObjectiveEvaluator",
]


class ObjectiveEvaluator(Protocol):
    """Query protocol shared by ``UnfairnessEvaluator`` and the engine."""

    def unfairness(self, partitioning: Sequence[Partition]) -> float: ...

    def union_average(
        self, group: Sequence[Partition], siblings: Sequence[Partition]
    ) -> float: ...

    def cross_average(
        self, group: Sequence[Partition], siblings: Sequence[Partition]
    ) -> float: ...


def split_partition(
    population: Population, partition: Partition, attribute: str
) -> list[Partition]:
    """Split one partition on one protected attribute.

    Returns the non-empty children, ordered by partition code.  Each child
    extends the parent's constraint path with ``(attribute, code)``.  A
    partition whose members all share one code yields a single child with
    the same member set.  A partition carrying atom rows is split by
    grouping those rows, and its children carry theirs.
    """
    if attribute in partition.constrained_attributes():
        raise PartitioningError(
            f"partition is already constrained on attribute {attribute!r}"
        )
    table = partition.atom_table
    if table is not None and attribute in table.attribute_names:
        return _atom_children(table, [partition], attribute)
    codes = population.partition_codes(attribute)[partition.indices]
    children = []
    for code in np.unique(codes):
        members = partition.indices[codes == code]
        children.append(
            Partition(members, partition.constraints + ((attribute, int(code)),))
        )
    return children


def split_partitions(
    population: Population, partitions: Sequence[Partition], attribute: str
) -> list[Partition]:
    """Split every partition in a set on the same attribute (balanced step).

    When every partition carries rows of one atom table, the whole set is
    grouped in one sort; the children are the same either way.
    """
    table = common_atom_table(partitions)
    if (
        table is not None
        and attribute in table.attribute_names
        and not any(attribute in p.constrained_attributes() for p in partitions)
    ):
        return _atom_children(table, partitions, attribute)
    out: list[Partition] = []
    for partition in partitions:
        out.extend(split_partition(population, partition, attribute))
    return out


def _atom_children(
    table, partitions: Sequence[Partition], attribute: str
) -> list[Partition]:
    """Children of atom-carrying partitions, carrying their own rows."""
    grouped = table.group_rows([p.atom_rows for p in partitions], attribute)
    return grouped.children(
        partitions,
        attribute,
        lambda rows, constraints, size: Partition.from_atoms(
            table, rows, constraints, size
        ),
    )


def _first_max(scores: Sequence[float]) -> int:
    """Index of the first highest score (ties go to the earlier candidate)."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


@dataclass(frozen=True)
class AttributeChoice:
    """Outcome of a ``worstAttribute`` evaluation.

    Attributes
    ----------
    attribute:
        The chosen (worst) attribute.
    children:
        The partitioning obtained by splitting on it (already computed, so
        callers never re-split).
    score:
        The average pairwise distance that partitioning exhibits.
    """

    attribute: str
    children: list[Partition]
    score: float


def worst_attribute(
    population: Population,
    partitions: Sequence[Partition],
    candidates: Sequence[str],
    evaluator: ObjectiveEvaluator,
) -> AttributeChoice:
    """The globally worst attribute: splitting all partitions on it maximises
    the average pairwise distance of the resulting partitioning.

    Ties are broken in candidate order, making runs deterministic.
    """
    if not candidates:
        raise PartitioningError("worst_attribute called with no candidate attributes")
    atom_scores = getattr(evaluator, "score_attribute_splits", None)
    if atom_scores is not None:
        scored = atom_scores(partitions, candidates)
        if scored is not None:
            # Atom path: every candidate was scored as a grouped aggregation
            # over the atom table; the winner's children are built from the
            # groups that scoring formed.
            scores, groups = scored
            best_i = _first_max(scores)
            children = evaluator.children_from_groups(
                partitions, candidates[best_i], groups[best_i]
            )
            return AttributeChoice(candidates[best_i], children, scores[best_i])
    children_per_candidate = [
        split_partitions(population, partitions, attribute) for attribute in candidates
    ]
    score_many = getattr(evaluator, "score_many", None)
    if score_many is not None:
        scores = score_many(children_per_candidate)
    else:
        scores = [evaluator.unfairness(children) for children in children_per_candidate]
    best: AttributeChoice | None = None
    for attribute, children, score in zip(candidates, children_per_candidate, scores):
        if best is None or score > best.score:
            best = AttributeChoice(attribute, children, score)
    assert best is not None
    return best


def worst_attribute_local(
    population: Population,
    partition: Partition,
    siblings: Sequence[Partition],
    candidates: Sequence[str],
    evaluator: ObjectiveEvaluator,
    cross_only: bool = False,
    tracker: "object | None" = None,
) -> AttributeChoice:
    """The locally worst attribute for a single partition.

    Each candidate is scored by the average distance the partition's children
    would exhibit next to the partition's ``siblings`` — by default over the
    union ``children ∪ siblings`` (see DESIGN.md §2.4), or children-vs-siblings
    pairs only when ``cross_only`` is set.

    ``tracker`` is an incremental objective already seeded with ``siblings``
    (from ``evaluator.incremental(siblings)``); passing the one that scored
    the un-split partition keeps keep-vs-split comparisons in a single
    arithmetic path.
    """
    if not candidates:
        raise PartitioningError("worst_attribute_local called with no candidates")
    incremental = tracker
    if incremental is None and not cross_only:
        factory = getattr(evaluator, "incremental", None)
        if factory is not None:
            # Seed the tracker with the fixed siblings once: every candidate
            # then only pays for its children-vs-siblings block.
            incremental = factory(siblings)
    if (
        incremental is not None
        and not cross_only
        and hasattr(incremental, "score_add_pmfs")
    ):
        split_pmfs = getattr(evaluator, "split_pmfs", None)
        if split_pmfs is not None:
            splits = split_pmfs(partition, candidates)
            if splits is not None:
                # Atom path: candidate children are scored straight from
                # their histogram stacks, all in one tracker query; only the
                # winner becomes partitions, with its histograms seeded.
                scores = incremental.score_add_pmfs(
                    [(pmfs, weights) for pmfs, weights, _ in splits]
                )
                best_i = _first_max(scores)
                pmfs, _, grouped = splits[best_i]
                children = evaluator.children_from_groups(
                    [partition], candidates[best_i], grouped, pmfs
                )
                return AttributeChoice(candidates[best_i], children, scores[best_i])
    best: AttributeChoice | None = None
    for attribute in candidates:
        children = split_partition(population, partition, attribute)
        if cross_only:
            score = evaluator.cross_average(children, siblings)
        elif incremental is not None:
            score = incremental.score_add(children)
        else:
            score = evaluator.union_average(children, siblings)
        if best is None or score > best.score:
            best = AttributeChoice(attribute, children, score)
    assert best is not None
    return best
