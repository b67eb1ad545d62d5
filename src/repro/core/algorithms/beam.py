"""Beam search over balanced split trees — an extension beyond the paper.

The paper's ``balanced`` commits greedily to the single worst attribute at
every level and stops at the first level that fails to improve, which can
miss attribute *orders* whose value only shows up later (the classic
decision-tree greediness trap; the toy example of Figure 1 exhibits a
gender-first optimum that a language-first greedy never revisits).

:class:`BeamSearchAlgorithm` keeps the ``beam_width`` best partitionings at
every level instead of one, expanding each by every remaining attribute and
returning the best partitioning *seen at any level* (so it can still return
a shallow tree when deeper ones only dilute the average).  With
``beam_width=1`` it degenerates to a variant of ``balanced`` whose stopping
rule is "best seen" rather than "first non-improvement"; with unbounded
width it is exhaustive over attribute orders of balanced trees.

The search space is balanced trees (every leaf constrained on the same
attribute sequence), so its cost per level is ``beam_width x remaining
attributes`` evaluations — polynomial, unlike the full unbalanced space.
All of one level's expansions are scored as a single batch through
``engine.score_many``, which fans out across cores under the process
backend.
"""

from __future__ import annotations

from repro.core.algorithms.base import PartitioningAlgorithm, register_algorithm
from repro.core.partition import Partition, content_key
from repro.core.splitting import split_partitions
from repro.engine.context import SearchContext

__all__ = ["BeamSearchAlgorithm"]


@register_algorithm
class BeamSearchAlgorithm(PartitioningAlgorithm):
    """Beam search over balanced attribute-split sequences.

    Parameters
    ----------
    beam_width:
        Number of candidate partitionings kept per level (default 3).
    """

    name = "beam"

    def __init__(self, beam_width: int = 3) -> None:
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        self.beam_width = beam_width

    def _search(self, context: SearchContext) -> list[Partition]:
        population, engine = context.population, context.engine
        root = context.engine.root_partition()
        all_attributes = tuple(population.schema.protected_names)

        # Beam entries: (score, partitions, remaining attributes).
        beam: list[tuple[float, list[Partition], tuple[str, ...]]] = [
            (0.0, [root], all_attributes)
        ]
        best_score, best_partitions = 0.0, [root]

        level = 0
        while True:
            if context.should_stop():
                break
            level += 1
            with context.tracer.span(
                "beam.level", level=level, beam=len(beam)
            ) as span:
                expansions: list[tuple[list[Partition], tuple[str, ...]]] = []
                seen: set[tuple] = set()
                for __, partitions, remaining in beam:
                    for attribute in remaining:
                        children = split_partitions(population, partitions, attribute)
                        key = content_key(children)
                        if key in seen:
                            continue
                        seen.add(key)
                        rest = tuple(a for a in remaining if a != attribute)
                        expansions.append((children, rest))
                if not expansions:
                    break
                scores = engine.score_many([children for children, __ in expansions])
                candidates = [
                    (score, children, rest)
                    for score, (children, rest) in zip(scores, expansions)
                ]
                candidates.sort(key=lambda entry: -entry[0])
                beam = candidates[: self.beam_width]
                if beam[0][0] > best_score:
                    best_score, best_partitions = beam[0][0], beam[0][1]
                span.set(
                    expansions=len(expansions),
                    frontier=len(best_partitions),
                    best_objective=best_score,
                )
                # Prune exhausted states; the loop ends when no state can grow.
                beam = [entry for entry in beam if entry[2]]
                if not beam:
                    break
        return best_partitions
