"""Unit tests for permutation significance testing."""

from __future__ import annotations

import pytest

from repro.analysis.significance import (
    PermutationTestResult,
    noise_floor,
    permutation_test,
)
from repro.core.algorithms import get_algorithm
from repro.core.histogram import HistogramSpec
from repro.core.population import Population
from repro.core.unfairness import UnfairnessEvaluator
from repro.exceptions import PartitioningError
from repro.marketplace.biased import paper_biased_functions
from repro.marketplace.scoring import paper_functions


class TestPermutationTest:
    def test_planted_bias_is_significant(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_biased_functions()["f6"](paper_population_small)
        result = get_algorithm("balanced").run(paper_population_small, scores)
        test = permutation_test(
            scores, result.partitioning, n_permutations=99, rng=0
        )
        assert test.significant
        assert test.p_value == pytest.approx(1 / 100)
        assert test.excess > 0.5  # 0.8 observed vs tiny noise floor

    def test_random_scores_not_significant_for_fixed_grouping(
        self, paper_population_small: Population
    ) -> None:
        # A *pre-declared* grouping (gender) on random scores: the observed
        # EMD must sit inside its own permutation null.
        scores = paper_functions()["f1"](paper_population_small)
        result = get_algorithm("single-attribute").run(paper_population_small, scores)
        test = permutation_test(scores, result.partitioning, n_permutations=199, rng=1)
        assert test.p_value > 0.01
        assert abs(test.excess) < 3 * max(test.null_std, 1e-6) + 0.05

    def test_observed_matches_evaluator(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_biased_functions()["f7"](paper_population_small)
        result = get_algorithm("balanced").run(paper_population_small, scores)
        test = permutation_test(scores, result.partitioning, n_permutations=10, rng=2)
        evaluator = UnfairnessEvaluator(paper_population_small, scores)
        assert test.observed == pytest.approx(
            evaluator.unfairness(result.partitioning)
        )

    def test_reproducible_given_seed(self, paper_population_small: Population) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        result = get_algorithm("single-attribute").run(paper_population_small, scores)
        first = permutation_test(scores, result.partitioning, n_permutations=50, rng=3)
        second = permutation_test(scores, result.partitioning, n_permutations=50, rng=3)
        assert first == second

    def test_custom_histogram_spec(self, paper_population_small: Population) -> None:
        scores = paper_biased_functions()["f6"](paper_population_small)
        result = get_algorithm("balanced").run(
            paper_population_small, scores, hist_spec=HistogramSpec(bins=20)
        )
        test = permutation_test(
            scores,
            result.partitioning,
            hist_spec=HistogramSpec(bins=20),
            n_permutations=20,
            rng=4,
        )
        assert test.observed == pytest.approx(result.unfairness)

    def test_shape_mismatch_rejected(self, paper_population_small: Population) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        result = get_algorithm("single-attribute").run(paper_population_small, scores)
        with pytest.raises(PartitioningError, match="shape"):
            permutation_test(scores[:-1], result.partitioning)

    def test_zero_permutations_rejected(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        result = get_algorithm("single-attribute").run(paper_population_small, scores)
        with pytest.raises(PartitioningError, match="at least one"):
            permutation_test(scores, result.partitioning, n_permutations=0)

    def test_str_mentions_p_value(self, paper_population_small: Population) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        result = get_algorithm("single-attribute").run(paper_population_small, scores)
        test = permutation_test(scores, result.partitioning, n_permutations=10, rng=5)
        assert "p=" in str(test)

    def test_result_dataclass_fields(self) -> None:
        result = PermutationTestResult(
            observed=0.5, null_mean=0.1, null_std=0.02, p_value=0.01, n_permutations=99
        )
        assert result.excess == pytest.approx(0.4)
        assert result.significant


class TestNoiseFloor:
    def test_smaller_groups_have_higher_floor(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_functions()["f4"](paper_population_small)
        small_mean, __ = noise_floor([5, 5], scores, n_draws=100, rng=0)
        large_mean, __ = noise_floor([100, 100], scores, n_draws=100, rng=0)
        assert small_mean > large_mean

    def test_floor_matches_permutation_null(
        self, paper_population_small: Population
    ) -> None:
        # The noise floor for the audit's group sizes should agree with the
        # permutation test's null mean for the same partitioning.
        scores = paper_functions()["f1"](paper_population_small)
        result = get_algorithm("single-attribute").run(paper_population_small, scores)
        sizes = [p.size for p in result.partitioning]
        floor_mean, floor_std = noise_floor(sizes, scores, n_draws=200, rng=1)
        test = permutation_test(scores, result.partitioning, n_permutations=200, rng=2)
        assert floor_mean == pytest.approx(test.null_mean, abs=3 * floor_std + 0.01)

    def test_oversized_groups_rejected(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        with pytest.raises(PartitioningError, match="sum to"):
            noise_floor([1000, 1000], scores)

    def test_zero_size_group_rejected(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        with pytest.raises(PartitioningError, match=">= 1"):
            noise_floor([0, 10], scores)

    def test_deterministic_given_seed(self, paper_population_small: Population) -> None:
        scores = paper_functions()["f1"](paper_population_small)
        assert noise_floor([10, 10], scores, n_draws=50, rng=7) == noise_floor(
            [10, 10], scores, n_draws=50, rng=7
        )
