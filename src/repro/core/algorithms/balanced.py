"""Algorithm 1 of the paper: ``balanced``.

Grows a *balanced* partitioning tree: at every step, one attribute is chosen
and **all** current partitions are split on it, so every leaf is constrained
on the same attribute set.  The attribute is the "worst" one — the candidate
whose induced partitioning exhibits the highest average pairwise distance —
and the search stops as soon as even the worst remaining attribute fails to
increase the objective (or no attributes remain).

Pseudo-code (Algorithm 1)::

    a = worstAttribute(W, f, A);  A -= a
    current  = split(W, a); currentAvg = averageEMD(current, f)
    while A != ∅:
        a = worstAttribute(current, f, A);  A -= a
        children = split(current, a); childrenAvg = averageEMD(children, f)
        if currentAvg >= childrenAvg: break
        current, currentAvg = children, childrenAvg
    output current

All objective queries go through the run's
:class:`~repro.engine.engine.EvaluationEngine` (via ``worst_attribute``,
which batches the per-attribute candidates through the engine).
"""

from __future__ import annotations

from repro.core.algorithms.base import PartitioningAlgorithm, register_algorithm
from repro.core.partition import Partition
from repro.core.splitting import split_partitions, worst_attribute
from repro.engine.context import SearchContext

__all__ = ["BalancedAlgorithm", "RandomBalancedAlgorithm"]


@register_algorithm
class BalancedAlgorithm(PartitioningAlgorithm):
    """Greedy level-wise tree growth on the worst attribute (paper Algorithm 1)."""

    name = "balanced"

    def _search(self, context: SearchContext) -> list[Partition]:
        population, engine = context.population, context.engine
        tracer = context.tracer
        remaining = list(population.schema.protected_names)
        root = context.engine.root_partition()
        if context.should_stop():
            return [root]

        with tracer.span("balanced.level", level=0, frontier=1) as span:
            choice = worst_attribute(population, [root], remaining, engine)
            span.set(attribute=choice.attribute, best_objective=choice.score)
        remaining.remove(choice.attribute)
        current, current_avg = choice.children, choice.score

        level = 0
        while remaining:
            if context.should_stop():
                break
            level += 1
            with tracer.span(
                "balanced.level", level=level, frontier=len(current)
            ) as span:
                choice = worst_attribute(population, current, remaining, engine)
                span.set(attribute=choice.attribute, best_objective=choice.score)
            remaining.remove(choice.attribute)
            if current_avg >= choice.score:
                break
            current, current_avg = choice.children, choice.score
        context.metrics.set_gauge("balanced.levels", level + 1)
        context.metrics.set_gauge("balanced.frontier", len(current))
        return current


@register_algorithm
class RandomBalancedAlgorithm(PartitioningAlgorithm):
    """The ``r-balanced`` baseline: Algorithm 1 with a random split attribute.

    Identical level-wise growth and stopping rule, but the attribute at every
    step is drawn uniformly from the remaining ones instead of being the
    worst.  The paper uses this to isolate the value of the worst-attribute
    heuristic.
    """

    name = "r-balanced"

    def _search(self, context: SearchContext) -> list[Partition]:
        population, engine, rng = context.population, context.engine, context.rng
        tracer = context.tracer
        remaining = list(population.schema.protected_names)
        root = context.engine.root_partition()
        if context.should_stop():
            return [root]

        attribute = str(rng.choice(remaining))
        remaining.remove(attribute)
        current = split_partitions(population, [root], attribute)
        current_avg = engine.unfairness(current)

        level = 0
        while remaining:
            # Poll before the rng draw so a cutoff run's draw sequence stays
            # a prefix of the unbounded run's (bit-identical tie-breaks).
            if context.should_stop():
                break
            level += 1
            attribute = str(rng.choice(remaining))
            remaining.remove(attribute)
            with tracer.span(
                "r-balanced.level",
                level=level,
                frontier=len(current),
                attribute=attribute,
            ) as span:
                children = split_partitions(population, current, attribute)
                children_avg = engine.unfairness(children)
                span.set(best_objective=max(current_avg, children_avg))
            if current_avg >= children_avg:
                break
            current, current_avg = children, children_avg
        return current
