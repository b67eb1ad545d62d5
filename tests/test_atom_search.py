"""Atom-native search, pinned bit for bit to the member path.

* Partitions the search forms carry their atom rows; their children (from
  ``split_partition`` or from the groups scoring already formed) have the
  member path's order, constraints, sizes and — once built — indices.
* ``IncrementalObjective.score_add_pmfs`` scores every candidate with one
  cross and one pairwise kernel call, and returns exactly the per-candidate
  values.
* A :class:`SiblingFamily` tracker, sliced from one pairwise matrix of a
  split's children, equals ``engine.incremental(siblings)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import get_algorithm
from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition, Partitioning, content_key
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.core.splitting import split_partition, split_partitions
from repro.engine.engine import EvaluationEngine
from repro.engine.incremental import SiblingFamily
from repro.exceptions import PartitioningError

SPEC = HistogramSpec(bins=6)
VECTORIZED_METRICS = ("emd", "ks", "tv", "hellinger", "js")


def _population(rng: np.random.Generator, n: int) -> Population:
    schema = WorkerSchema(
        protected=(
            CategoricalAttribute("a", ("x", "y")),
            CategoricalAttribute("b", ("u", "v", "w")),
            IntegerAttribute("c", 0, 9, buckets=3),
            CategoricalAttribute("d", ("p", "q")),
        ),
        observed=(ObservedAttribute("skill", 0.0, 1.0),),
    )
    return Population(
        schema,
        protected={
            "a": rng.integers(0, 2, size=n),
            "b": rng.integers(0, 3, size=n),
            "c": rng.integers(0, 10, size=n),
            "d": rng.integers(0, 2, size=n),
        },
        observed={"skill": rng.random(n)},
    )


def _unconstrained(population: Population, partition: Partition) -> list[str]:
    used = partition.constrained_attributes()
    return [a for a in population.schema.protected_names if a not in used]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_atom_children_equal_member_children(seed: int) -> None:
    """Random split sequences: every way the atom path builds children
    gives the member path's children, in the same order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 150))
    population = _population(rng, n)
    engine = EvaluationEngine(population, rng.random(n), hist_spec=SPEC)
    atom_root = engine.root_partition()
    member_root = Partition(population.all_indices())
    assert atom_root.atom_table is engine.atom_table
    assert atom_root.size == member_root.size
    assert np.array_equal(atom_root.indices, member_root.indices)
    pairs = [(atom_root, member_root)]
    for _ in range(int(rng.integers(1, 7))):
        atom_parent, member_parent = pairs[int(rng.integers(len(pairs)))]
        remaining = _unconstrained(population, atom_parent)
        if not remaining:
            continue
        attribute = remaining[int(rng.integers(len(remaining)))]
        member_children = split_partition(population, member_parent, attribute)
        split_children = split_partition(population, atom_parent, attribute)
        pmfs, _, grouped = engine.split_pmfs(atom_parent, [attribute])[0]
        local_children = engine.children_from_groups(
            [atom_parent], attribute, grouped, pmfs
        )
        _, balanced_groups = engine.score_attribute_splits([atom_parent], [attribute])
        balanced_children = engine.children_from_groups(
            [atom_parent], attribute, balanced_groups[0]
        )
        frontier = [atom for atom, _ in pairs]
        candidates = [
            p for p in frontier if attribute not in p.constrained_attributes()
        ]
        frontier_children = split_partitions(population, candidates, attribute)
        expected_frontier = [
            child
            for p in candidates
            for child in split_partition(
                population, Partition(p.indices, p.constraints), attribute
            )
        ]
        assert len(frontier_children) == len(expected_frontier)
        for child, expected in zip(frontier_children, expected_frontier):
            assert child.constraints == expected.constraints
            assert child.size == expected.size
            assert np.array_equal(child.indices, expected.indices)
        for children in (split_children, local_children, balanced_children):
            assert len(children) == len(member_children)
            for child, expected in zip(children, member_children):
                assert child.constraints == expected.constraints
                assert child.size == expected.size
                assert child.atom_table is engine.atom_table
                assert np.all(np.diff(child.atom_rows) > 0)
                assert np.array_equal(child.indices, expected.indices)
                assert not child.indices.flags.writeable
                assert engine.pmf(child).tobytes() == engine.pmf(expected).tobytes()
        pairs.extend(zip(split_children, member_children))


def test_content_key_identifies_member_sets(small_population) -> None:
    engine = EvaluationEngine(small_population, np.linspace(0, 1, 12, endpoint=False))
    root = engine.root_partition()
    gender_first = split_partitions(
        small_population, split_partition(small_population, root, "gender"), "country"
    )
    country_first = split_partitions(
        small_population, split_partition(small_population, root, "country"), "gender"
    )
    # Same groups reached in another order: equal atom keys, like member keys.
    assert content_key(gender_first) == content_key(country_first)
    assert content_key(gender_first)[0] == "atoms"
    assert content_key(gender_first) != content_key(
        split_partition(small_population, root, "gender")
    )
    members = [Partition(p.indices, p.constraints) for p in gender_first]
    assert content_key(members)[0] == "members"
    assert content_key(members) != content_key(gender_first)
    assert content_key(members) == content_key(
        [Partition(p.indices) for p in country_first]
    )


def _frontier(rng: np.random.Generator, population: Population, engine) -> list:
    """A random frontier of atom-carrying partitions (several splits deep)."""
    frontier = [engine.root_partition()]
    for _ in range(int(rng.integers(2, 6))):
        splittable = [p for p in frontier if _unconstrained(population, p)]
        if not splittable:
            break
        parent = splittable[int(rng.integers(len(splittable)))]
        remaining = _unconstrained(population, parent)
        attribute = remaining[int(rng.integers(len(remaining)))]
        index = frontier.index(parent)
        frontier[index : index + 1] = split_partition(population, parent, attribute)
    return frontier


def _engine(population, scores, metric, weighting, kernel) -> EvaluationEngine:
    return EvaluationEngine(
        population,
        scores,
        hist_spec=SPEC,
        metric=metric,
        weighting=weighting,
        kernel=kernel,
    )


@pytest.mark.parametrize("kernel", ("numpy", "scalar"))
@pytest.mark.parametrize("weighting", ("uniform", "size"))
@pytest.mark.parametrize("metric", VECTORIZED_METRICS)
def test_batched_score_add_pmfs_equals_per_candidate(metric, weighting, kernel) -> None:
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 200))
        population = _population(rng, n)
        scores = rng.random(n)
        engine = _engine(population, scores, metric, weighting, kernel)
        frontier = _frontier(rng, population, engine)
        node = next((p for p in frontier if _unconstrained(population, p)), None)
        if node is None:
            continue
        siblings = [p for p in frontier if p is not node]
        candidates = _unconstrained(population, node)
        tracker = engine.incremental(siblings)
        splits = engine.split_pmfs(node, candidates)
        batched = tracker.score_add_pmfs([(pmfs, w) for pmfs, w, _ in splits])
        one_at_a_time = [
            tracker.score_add_pmfs([(pmfs, w)])[0] for pmfs, w, _ in splits
        ]
        member_node = Partition(node.indices, node.constraints)
        member_path = [
            tracker.score_add(split_partition(population, member_node, attribute))
            for attribute in candidates
        ]
        assert batched == one_at_a_time == member_path


@pytest.mark.parametrize("kernel", ("numpy", "scalar"))
@pytest.mark.parametrize("weighting", ("uniform", "size"))
@pytest.mark.parametrize("metric", VECTORIZED_METRICS)
def test_family_trackers_equal_fresh_trackers(metric, weighting, kernel) -> None:
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(40, 200))
        population = _population(rng, n)
        scores = rng.random(n)
        sliced = _engine(population, scores, metric, weighting, kernel)
        fresh = _engine(population, scores, metric, weighting, kernel)
        children = _frontier(rng, population, sliced)
        family = SiblingFamily(sliced, children)
        extra = split_partition(population, sliced.root_partition(), "d")
        for index, child in enumerate(children):
            tracker, keep = family.member(index)
            siblings = [p for p in children if p is not child]
            reference = fresh.incremental(siblings)
            assert np.array_equal(tracker.pairwise_matrix(), reference.pairwise_matrix())
            assert tracker.unfairness() == reference.unfairness()
            assert keep == reference.score_add([child])
            assert tracker.score_add(extra) == reference.score_add(extra)
        assert sliced.stats.as_dict() == fresh.stats.as_dict()


def test_family_falls_back_per_child_without_a_vectorized_kernel() -> None:
    rng = np.random.default_rng(7)
    population = _population(rng, 30)
    scores = rng.random(30)
    engine = EvaluationEngine(population, scores, hist_spec=SPEC, metric="emd-t")
    children = split_partition(population, engine.root_partition(), "b")
    tracker, keep = SiblingFamily(engine, children).member(0)
    reference = engine.incremental(children[1:])
    assert keep == reference.score_add([children[0]])
    assert np.array_equal(tracker.pairwise_matrix(), reference.pairwise_matrix())


@pytest.mark.parametrize(
    "algorithm", ("unbalanced", "r-unbalanced", "balanced", "r-balanced", "all-attributes")
)
def test_search_reads_no_member_arrays(algorithm, monkeypatch) -> None:
    """Neither the search nor validating and scoring its result builds a
    member index array."""
    rng = np.random.default_rng(3)
    population = _population(rng, 300)
    scores = rng.random(300)
    built = []
    real = Partition.indices.fget

    def counting(partition):
        if partition._indices is None:
            built.append(partition)
        return real(partition)

    monkeypatch.setattr(Partition, "indices", property(counting))
    result = get_algorithm(algorithm).run(population, scores, hist_spec=SPEC, rng=1)
    assert built == []
    assert result.partitioning.k > 1


def test_partitioning_validates_atom_rows() -> None:
    schema = WorkerSchema(
        protected=(
            CategoricalAttribute("a", ("x", "y")),
            CategoricalAttribute("b", ("u", "v")),
        ),
        observed=(ObservedAttribute("skill", 0.0, 1.0),),
    )
    population = Population(
        schema,
        protected={"a": np.array([0, 0, 1, 1]), "b": np.array([0, 1, 0, 1])},
        observed={"skill": np.zeros(4)},
    )
    engine = EvaluationEngine(population, np.linspace(0, 1, 4, endpoint=False))
    root = engine.root_partition()
    by_a = split_partition(population, root, "a")
    by_b = split_partition(population, root, "b")
    assert Partitioning(by_a, 4).k == 2
    # Sizes add up to the population, but both groups hold worker 0.
    with pytest.raises(PartitioningError, match="disjoint cover"):
        Partitioning([by_a[0], by_b[0]], 4)
    assert all(p._indices is None for p in by_a + by_b)
    assert by_a[0].nbytes() == by_a[0].atom_rows.nbytes
    by_a[0].indices
    assert by_a[0].nbytes() == by_a[0].atom_rows.nbytes + by_a[0].indices.nbytes
