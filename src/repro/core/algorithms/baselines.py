"""Non-adaptive baselines: ``all-attributes`` and ``single-attribute``.

``all-attributes`` is the paper's third baseline: split the workers on
*every* protected attribute, producing the full cross-product partitioning
(empty cells dropped).  It is the deepest tree either heuristic could ever
reach, so comparing against it shows whether the stopping conditions give
anything up.

``single-attribute`` is an additional baseline representing prior work that
audits one pre-declared protected attribute at a time (e.g. Hannak et al.'s
TaskRabbit study, reference [4] of the paper): it evaluates each attribute
in isolation and returns the best single split.  The gap between it and the
subgroup-searching algorithms measures the value of combining attributes.
"""

from __future__ import annotations

from repro.core.algorithms.base import PartitioningAlgorithm, register_algorithm
from repro.core.partition import Partition
from repro.core.splitting import split_partitions, worst_attribute
from repro.engine.context import SearchContext

__all__ = ["AllAttributesAlgorithm", "SingleAttributeAlgorithm"]


@register_algorithm
class AllAttributesAlgorithm(PartitioningAlgorithm):
    """Split on every protected attribute: the full partitioning baseline."""

    name = "all-attributes"

    def _search(self, context: SearchContext) -> list[Partition]:
        population = context.population
        current = [context.engine.root_partition()]
        for level, attribute in enumerate(population.schema.protected_names):
            if context.should_stop():
                break
            with context.tracer.span(
                "all-attributes.split",
                level=level,
                attribute=attribute,
                frontier=len(current),
            ):
                current = split_partitions(population, current, attribute)
        return current


@register_algorithm
class SingleAttributeAlgorithm(PartitioningAlgorithm):
    """Best split on exactly one protected attribute (prior-work setting)."""

    name = "single-attribute"

    def _search(self, context: SearchContext) -> list[Partition]:
        population = context.population
        root = context.engine.root_partition()
        if context.should_stop():
            return [root]
        with context.tracer.span("single-attribute.scan") as span:
            choice = worst_attribute(
                population,
                [root],
                list(population.schema.protected_names),
                context.engine,
            )
            span.set(attribute=choice.attribute, best_objective=choice.score)
        return choice.children
