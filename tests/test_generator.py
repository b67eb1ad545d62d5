"""Unit tests for population generators and the Figure 1 toy data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import Population
from repro.exceptions import PopulationError
from repro.simulation.config import paper_schema
from repro.simulation.generator import (
    TOY_OPTIMAL_GROUPS,
    generate_paper_population,
    generate_population,
)


class TestGeneratePopulation:
    def test_size_and_schema(self) -> None:
        population = generate_population(paper_schema(), 123, rng=0)
        assert population.size == 123
        assert population.schema.protected_names == (
            "gender",
            "country",
            "year_of_birth",
            "language",
            "ethnicity",
            "years_experience",
        )

    def test_same_seed_same_population(self) -> None:
        schema = paper_schema()
        first = generate_population(schema, 50, rng=9)
        second = generate_population(schema, 50, rng=9)
        for name in schema.protected_names:
            np.testing.assert_array_equal(
                first.protected_column(name), second.protected_column(name)
            )
        for name in schema.observed_names:
            np.testing.assert_array_equal(
                first.observed_column(name), second.observed_column(name)
            )

    def test_different_seeds_differ(self) -> None:
        schema = paper_schema()
        first = generate_population(schema, 50, rng=1)
        second = generate_population(schema, 50, rng=2)
        assert not np.array_equal(
            first.observed_column("language_test"),
            second.observed_column("language_test"),
        )

    def test_values_respect_domains(self) -> None:
        population = generate_population(paper_schema(), 500, rng=3)
        years = population.protected_column("year_of_birth")
        assert years.min() >= 1950 and years.max() <= 2009
        experience = population.protected_column("years_experience")
        assert experience.min() >= 0 and experience.max() <= 30
        for name in ("language_test", "approval_rate"):
            column = population.observed_column(name)
            assert column.min() >= 25.0 and column.max() <= 100.0

    def test_distribution_is_roughly_uniform(self) -> None:
        # "populated randomly so as to avoid injecting any bias ourselves"
        population = generate_population(paper_schema(), 5000, rng=4)
        genders = population.protected_column("gender")
        assert abs(genders.mean() - 0.5) < 0.03
        countries = np.bincount(population.protected_column("country"), minlength=3)
        assert countries.min() > 1400  # each of 3 values near 5000/3

    def test_zero_size_rejected(self) -> None:
        with pytest.raises(PopulationError, match=">= 1"):
            generate_population(paper_schema(), 0)

    def test_paper_population_bucket_override(self) -> None:
        population = generate_paper_population(30, seed=0, year_of_birth_buckets=3)
        attr = population.schema.protected_attribute("year_of_birth")
        assert attr.cardinality == 3


class TestToyPopulation:
    def test_twelve_workers_two_attributes(self, toy: Population) -> None:
        assert toy.size == 12
        assert toy.schema.protected_names == ("gender", "language")
        assert toy.schema.observed_names == ("qualification",)

    def test_male_scores_separate_by_language(self, toy: Population) -> None:
        genders = toy.protected_column("gender")
        languages = toy.protected_column("language")
        scores = toy.observed_column("qualification")
        english = scores[(genders == 0) & (languages == 0)]
        indian = scores[(genders == 0) & (languages == 1)]
        other = scores[(genders == 0) & (languages == 2)]
        assert english.min() > indian.max() > other.max()

    def test_female_distribution_identical_across_languages(
        self, toy: Population
    ) -> None:
        genders = toy.protected_column("gender")
        languages = toy.protected_column("language")
        scores = toy.observed_column("qualification")
        female_sets = [
            sorted(scores[(genders == 1) & (languages == code)]) for code in range(3)
        ]
        assert female_sets[0] == female_sets[1] == female_sets[2]

    def test_optimal_groups_constant_names_exist(self, toy: Population) -> None:
        assert len(TOY_OPTIMAL_GROUPS) == 4
        assert any("Female" in label for label in TOY_OPTIMAL_GROUPS)
