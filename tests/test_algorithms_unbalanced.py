"""Unit tests for the ``unbalanced`` algorithm (paper Algorithm 2) and its
random-attribute baseline ``r-unbalanced``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import get_algorithm
from repro.core.algorithms.unbalanced import UnbalancedAlgorithm
from repro.core.population import Population
from repro.core.splitting import split_partition
from repro.engine.engine import EvaluationEngine
from repro.marketplace.biased import paper_biased_functions
from repro.simulation.generator import TOY_OPTIMAL_GROUPS, generate_paper_population


class TestUnbalanced:
    def test_returns_full_disjoint_partitioning(
        self, paper_population_small: Population
    ) -> None:
        scores = np.random.default_rng(0).uniform(size=paper_population_small.size)
        result = get_algorithm("unbalanced").run(paper_population_small, scores)
        assert result.partitioning.population_size == paper_population_small.size

    def test_recovers_figure1_optimum_on_toy(self, toy: Population) -> None:
        # The toy data is constructed so that the Figure 1 structure
        # {Male-English, Male-Indian, Male-Other, Female} is optimal and
        # reachable by local greedy decisions.
        scores = toy.observed_column("qualification")
        result = get_algorithm("unbalanced").run(toy, scores)
        labels = sorted(p.label(toy.schema) for p in result.partitioning)
        assert labels == sorted(TOY_OPTIMAL_GROUPS)

    def test_produces_unbalanced_tree_on_toy(self, toy: Population) -> None:
        scores = toy.observed_column("qualification")
        result = get_algorithm("unbalanced").run(toy, scores)
        depths = {len(p.constraints) for p in result.partitioning}
        assert depths == {1, 2}  # female leaf at depth 1, male leaves at 2

    def test_balanced_cannot_express_toy_optimum(self, toy: Population) -> None:
        # Structural contrast motivating Algorithm 2: balanced must split
        # every partition on the same attributes, so it cannot keep Female
        # whole while splitting Male by language.
        scores = toy.observed_column("qualification")
        unbalanced = get_algorithm("unbalanced").run(toy, scores)
        balanced = get_algorithm("balanced").run(toy, scores)
        assert unbalanced.unfairness > balanced.unfairness

    def test_constant_scores_stop_immediately(
        self, small_population: Population
    ) -> None:
        scores = np.full(small_population.size, 0.25)
        result = get_algorithm("unbalanced").run(small_population, scores)
        assert result.unfairness == 0.0

    def test_cross_only_stopping_variant_runs(
        self, paper_population_small: Population
    ) -> None:
        scores = paper_biased_functions()["f7"](paper_population_small)
        union = UnbalancedAlgorithm(cross_only=False).run(paper_population_small, scores)
        cross = UnbalancedAlgorithm(cross_only=True).run(paper_population_small, scores)
        for result in (union, cross):
            assert result.partitioning.population_size == paper_population_small.size
        # Both must still identify the planted attributes.
        assert set(union.partitioning.attributes_used()) <= {"gender", "country"}

    def test_deterministic_across_runs(self, paper_population_small: Population) -> None:
        scores = np.random.default_rng(5).uniform(size=paper_population_small.size)
        first = get_algorithm("unbalanced").run(paper_population_small, scores)
        second = get_algorithm("unbalanced").run(paper_population_small, scores)
        assert first.partitioning.canonical_key() == second.partitioning.canonical_key()

    def test_attributes_never_repeat_on_a_path(
        self, paper_population_small: Population
    ) -> None:
        scores = np.random.default_rng(6).uniform(size=paper_population_small.size)
        result = get_algorithm("unbalanced").run(paper_population_small, scores)
        for partition in result.partitioning:
            attrs = partition.constrained_attributes()
            assert len(attrs) == len(set(attrs))


class TestRandomUnbalanced:
    def test_full_disjoint_partitioning(
        self, paper_population_small: Population
    ) -> None:
        scores = np.random.default_rng(7).uniform(size=paper_population_small.size)
        result = get_algorithm("r-unbalanced").run(paper_population_small, scores, rng=1)
        assert result.partitioning.population_size == paper_population_small.size

    def test_same_seed_same_result(self, paper_population_small: Population) -> None:
        scores = np.random.default_rng(8).uniform(size=paper_population_small.size)
        algorithm = get_algorithm("r-unbalanced")
        first = algorithm.run(paper_population_small, scores, rng=3)
        second = algorithm.run(paper_population_small, scores, rng=3)
        assert first.partitioning.canonical_key() == second.partitioning.canonical_key()

    def test_local_stopping_rule_still_applies(
        self, small_population: Population
    ) -> None:
        scores = np.full(small_population.size, 0.75)
        result = get_algorithm("r-unbalanced").run(small_population, scores, rng=0)
        assert result.unfairness == 0.0


class TestSingleAtomNodes:
    """A single-atom node is kept unscored: every split of it is itself."""

    @pytest.fixture(scope="class")
    def population(self) -> Population:
        return generate_paper_population(300, seed=7)

    @pytest.fixture(scope="class")
    def scores(self, population: Population) -> np.ndarray:
        return np.random.default_rng(13).random(population.size)

    @pytest.mark.parametrize("algorithm", ["unbalanced", "r-unbalanced"])
    @pytest.mark.parametrize("cross_only", [False, True])
    @pytest.mark.parametrize("weighting", ["uniform", "size"])
    def test_same_result_as_scoring_every_node(
        self,
        population: Population,
        scores: np.ndarray,
        monkeypatch: pytest.MonkeyPatch,
        algorithm: str,
        cross_only: bool,
        weighting: str,
    ) -> None:
        def run():
            return get_algorithm(algorithm, cross_only=cross_only).run(
                population, scores, rng=4, weighting=weighting
            )

        skipped = run()
        monkeypatch.setattr(EvaluationEngine, "single_atom", lambda self, p: False)
        scored = run()
        assert skipped.unfairness == scored.unfairness
        assert (
            skipped.partitioning.canonical_key()
            == scored.partitioning.canonical_key()
        )
        assert (
            skipped.partitioning.attributes_used()
            == scored.partitioning.attributes_used()
        )
        assert skipped.n_evaluations < scored.n_evaluations

    def test_atom_and_member_paths_agree(
        self, population: Population, scores: np.ndarray
    ) -> None:
        engines = [
            EvaluationEngine(population, scores, use_atoms=use_atoms)
            for use_atoms in (True, False)
        ]
        leaves = get_algorithm("all-attributes").run(population, scores).partitioning
        for leaf in leaves:
            assert [engine.single_atom(leaf) for engine in engines] == [True, True]
        root = engines[0].root_partition()
        for attribute in population.schema.protected_names:
            for child in split_partition(population, root, attribute):
                assert [engine.single_atom(child) for engine in engines] == [
                    False,
                    False,
                ]
