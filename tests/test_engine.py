"""Tests for the shared evaluation engine (kernels, incremental, batches).

The load-bearing guarantees:

* vectorized kernels match the scalar ``metric.distance`` loops to float
  round-off for every metric that has one;
* the incremental objective replayed over random split/merge sequences
  matches full recomputation to 1e-12 for **every** registered metric;
* batched scoring returns exactly what one query per candidate does;
* no algorithm constructs its own ``UnfairnessEvaluator`` — evaluation is
  the engine's job.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.algorithms import get_algorithm
from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.core.splitting import split_partition
from repro.core.unfairness import UnfairnessEvaluator
from repro.engine import (
    EvaluationEngine,
    cross_matrix,
    full_objective,
    has_vectorized_kernel,
    pairwise_matrix,
)
from repro.exceptions import PartitioningError
from repro.metrics.base import available_metrics, get_metric

SPEC = HistogramSpec(bins=8)

#: Metrics with a batched NumPy kernel (everything but the LP-based emd-t).
KERNEL_METRICS = tuple(m for m in available_metrics() if has_vectorized_kernel(get_metric(m)))


def _random_pmfs(rng: np.random.Generator, k: int, bins: int = 8) -> np.ndarray:
    pmfs = rng.dirichlet(np.ones(bins), size=k)
    # Exercise exact-zero bins, the special case for the divergence logs.
    pmfs[0, : bins // 2] = 0.0
    pmfs[0] /= pmfs[0].sum()
    return pmfs


def _random_population(rng: np.random.Generator, n: int) -> Population:
    schema = WorkerSchema(
        protected=(
            CategoricalAttribute("a", ("x", "y")),
            CategoricalAttribute("b", ("u", "v", "w")),
            IntegerAttribute("c", 0, 9, buckets=2),
        ),
        observed=(ObservedAttribute("skill", 0.0, 1.0),),
    )
    return Population(
        schema,
        protected={
            "a": rng.integers(0, 2, size=n),
            "b": rng.integers(0, 3, size=n),
            "c": rng.integers(0, 10, size=n),
        },
        observed={"skill": rng.random(n)},
    )


# ------------------------------------------------------------------- kernels


@pytest.mark.parametrize("metric_name", KERNEL_METRICS)
def test_cross_matrix_matches_scalar_distances(metric_name: str) -> None:
    metric = get_metric(metric_name)
    rng = np.random.default_rng(3)
    left = _random_pmfs(rng, 5)
    right = _random_pmfs(rng, 7)
    fast = cross_matrix(metric, left, right, SPEC)
    for i in range(5):
        for j in range(7):
            assert fast[i, j] == pytest.approx(
                metric.distance(left[i], right[j], SPEC), abs=1e-12
            )


@pytest.mark.parametrize("metric_name", KERNEL_METRICS)
def test_pairwise_matrix_matches_scalar_distances(metric_name: str) -> None:
    metric = get_metric(metric_name)
    pmfs = _random_pmfs(np.random.default_rng(4), 6)
    fast = pairwise_matrix(metric, pmfs, SPEC)
    assert np.allclose(fast, fast.T)
    assert np.all(np.diag(fast) == 0.0)
    for i in range(6):
        for j in range(i + 1, 6):
            assert fast[i, j] == pytest.approx(
                metric.distance(pmfs[i], pmfs[j], SPEC), abs=1e-12
            )


@pytest.mark.parametrize("metric_name", sorted(available_metrics()))
@pytest.mark.parametrize("weighted", [False, True])
def test_full_objective_matches_reference_average(metric_name: str, weighted: bool) -> None:
    metric = get_metric(metric_name)
    small_spec = HistogramSpec(bins=4)
    k = 4 if metric_name == "emd-t" else 8
    pmfs = np.random.default_rng(5).dirichlet(np.ones(small_spec.bins), size=k)
    weights = np.arange(1.0, k + 1.0) if weighted else None
    value, pairs = full_objective(metric, pmfs, small_spec, weights)
    assert value == pytest.approx(
        metric.average_pairwise(pmfs, small_spec, weights), abs=1e-12
    )
    assert pairs == 0 or pairs == k * (k - 1) // 2


# -------------------------------------------------- incremental == full (1e-12)


def _replay_random_sequence(metric_name: str, seed: int, weighting: str) -> None:
    rng = np.random.default_rng(seed)
    # The LP-based metric costs one linprog per pair; keep its runs tiny.
    n = 12 if metric_name == "emd-t" else int(rng.integers(20, 60))
    n_steps = 3 if metric_name == "emd-t" else 6
    spec = HistogramSpec(bins=4 if metric_name == "emd-t" else 8)
    population = _random_population(rng, n)
    scores = rng.random(n)

    engine = EvaluationEngine(
        population, scores, spec, metric=metric_name, weighting=weighting
    )
    reference = EvaluationEngine(
        population, scores, spec, metric=metric_name, weighting=weighting, mode="full"
    )
    tracker = engine.incremental([Partition(population.all_indices())])

    for _ in range(n_steps):
        k = tracker.k
        if k >= 3 and rng.random() < 0.3:
            i, j = rng.choice(k, size=2, replace=False)
            merged = Partition(
                np.concatenate(
                    [tracker.partitions[int(i)].indices, tracker.partitions[int(j)].indices]
                )
            )
            predicted = tracker.score_merge((int(i), int(j)), merged)
            tracker.apply_merge((int(i), int(j)), merged)
        else:
            splittable = [
                (idx, attr)
                for idx, p in enumerate(tracker.partitions)
                for attr in population.schema.protected_names
                if attr not in p.constrained_attributes()
            ]
            if not splittable:
                break
            idx, attr = splittable[int(rng.integers(len(splittable)))]
            children = split_partition(population, tracker.partitions[idx], attr)
            predicted = tracker.score_split(idx, children)
            tracker.apply_split(idx, children)
        actual = reference.unfairness(tracker.partitions)
        assert math.isclose(predicted, actual, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(tracker.unfairness(), actual, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("metric_name", sorted(available_metrics()))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_incremental_matches_full_recomputation(metric_name: str, seed: int) -> None:
    _replay_random_sequence(metric_name, seed, "uniform")


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_incremental_matches_full_size_weighted(seed: int) -> None:
    _replay_random_sequence("emd", seed, "size")


def test_incremental_rejects_out_of_range_positions(small_population) -> None:
    engine = EvaluationEngine(small_population, np.linspace(0, 1, 12))
    tracker = engine.incremental([Partition(small_population.all_indices())])
    with pytest.raises(PartitioningError):
        tracker.score_replace((5,), [])


# ------------------------------------------------------------------ caching


def test_value_cache_hits_and_counts(small_population) -> None:
    scores = np.linspace(0, 1, 12)
    engine = EvaluationEngine(small_population, scores)
    root = Partition(small_population.all_indices())
    children = split_partition(small_population, root, "gender")
    first = engine.unfairness(children)
    assert engine.stats.cache_hits == 0
    assert engine.stats.n_full_evaluations == 1
    # Re-splitting produces *new* Partition objects with the same members;
    # the multiset-of-histograms cache key still matches.
    second = engine.unfairness(split_partition(small_population, root, "gender"))
    assert second == first
    assert engine.stats.cache_hits == 1
    assert engine.stats.n_evaluations == 2
    assert engine.stats.n_full_evaluations == 1


def test_full_mode_never_caches(small_population) -> None:
    engine = EvaluationEngine(small_population, np.linspace(0, 1, 12), mode="full")
    root = Partition(small_population.all_indices())
    children = split_partition(small_population, root, "gender")
    engine.unfairness(children)
    engine.unfairness(children)
    assert engine.stats.cache_hits == 0
    assert engine.stats.n_full_evaluations == 2
    assert engine.stats.pair_distances_computed == engine.stats.pair_distances_full


def test_engine_matches_reference_evaluator(paper_population_small) -> None:
    rng = np.random.default_rng(11)
    scores = rng.random(paper_population_small.size)
    root = Partition(paper_population_small.all_indices())
    children = split_partition(paper_population_small, root, "gender")
    engine = EvaluationEngine(paper_population_small, scores)
    evaluator = UnfairnessEvaluator(paper_population_small, scores)
    assert engine.unfairness(children) == pytest.approx(
        evaluator.unfairness(children), abs=1e-12
    )
    assert engine.cross_average([children[0]], children[1:]) == pytest.approx(
        evaluator.cross_average([children[0]], children[1:]), abs=1e-12
    )
    assert engine.union_average([children[0]], children[1:]) == pytest.approx(
        evaluator.union_average([children[0]], children[1:]), abs=1e-12
    )


# ------------------------------------------------------------------ batches


def test_score_many_matches_individual_queries(small_population) -> None:
    scores = np.linspace(0, 1, 12)
    engine = EvaluationEngine(small_population, scores)
    root = Partition(small_population.all_indices())
    candidates = [
        split_partition(small_population, root, "gender"),
        split_partition(small_population, root, "country"),
        [root],
    ]
    batched = engine.score_many(candidates)
    assert batched == [engine.unfairness(c) for c in candidates]


# ------------------------------------------------------- engine integration


def test_algorithm_result_carries_engine_counters(paper_population_small) -> None:
    rng = np.random.default_rng(31)
    scores = rng.random(paper_population_small.size)
    result = get_algorithm("balanced").run(paper_population_small, scores)
    assert result.n_evaluations > 0
    assert result.n_full_evaluations + result.n_incremental_evaluations + result.cache_hits == result.n_evaluations
    assert result.pair_distances_full > 0
    # EMD's closed-form average never materialises individual pairs.
    assert result.pair_distances_computed == 0


def test_full_mode_materialises_every_pair(paper_population_small) -> None:
    rng = np.random.default_rng(31)
    scores = rng.random(paper_population_small.size)
    incremental = get_algorithm("balanced").run(paper_population_small, scores)
    full = get_algorithm("balanced").run(
        paper_population_small, scores, engine_mode="full"
    )
    assert full.unfairness == pytest.approx(incremental.unfairness, abs=1e-12)
    assert full.pair_distances_computed == full.pair_distances_full
    assert full.pair_distances_computed >= 3 * max(incremental.pair_distances_computed, 1)


def test_unbalanced_uses_incremental_evaluations(paper_population_small) -> None:
    rng = np.random.default_rng(37)
    scores = rng.random(paper_population_small.size)
    result = get_algorithm("unbalanced").run(paper_population_small, scores)
    assert result.n_incremental_evaluations > 0
    assert result.pair_distances_computed < result.pair_distances_full


def test_no_algorithm_constructs_an_evaluator() -> None:
    """Acceptance criterion: evaluation goes through the engine only."""
    algorithms_dir = (
        Path(__file__).resolve().parent.parent / "src" / "repro" / "core" / "algorithms"
    )
    for source_file in sorted(algorithms_dir.glob("*.py")):
        source = source_file.read_text()
        # Docstring cross-references are fine; imports and construction are not.
        assert "UnfairnessEvaluator(" not in source, source_file.name
        assert "import UnfairnessEvaluator" not in source, source_file.name
        assert "from repro.core.unfairness" not in source, source_file.name
