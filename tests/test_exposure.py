"""Unit tests for ranking-exposure metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import Population
from repro.exceptions import ScoringError
from repro.marketplace.biased import paper_biased_functions
from repro.marketplace.exposure import (
    exposure_disparity,
    group_exposure,
    position_exposure,
    top_k_representation,
)
from repro.marketplace.ranking import rank_workers
from repro.marketplace.scoring import paper_functions


class TestPositionExposure:
    def test_dcg_discount_values(self) -> None:
        exposure = position_exposure(3)
        np.testing.assert_allclose(
            exposure, [1.0, 1.0 / np.log2(3), 0.5], rtol=1e-12
        )

    def test_monotone_decreasing(self) -> None:
        exposure = position_exposure(50)
        assert all(a > b for a, b in zip(exposure, exposure[1:]))

    def test_zero_length(self) -> None:
        assert position_exposure(0).size == 0

    def test_negative_length_rejected(self) -> None:
        with pytest.raises(ScoringError, match="non-negative"):
            position_exposure(-1)


class TestGroupExposure:
    def test_biased_function_skews_exposure(
        self, paper_population_small: Population
    ) -> None:
        ranking = rank_workers(paper_population_small, paper_biased_functions()["f6"])
        exposure = group_exposure(ranking, paper_population_small, "gender")
        assert exposure["Male"] > exposure["Female"]

    def test_unbiased_function_near_parity(
        self, paper_population_small: Population
    ) -> None:
        ranking = rank_workers(paper_population_small, paper_functions()["f1"])
        disparity = exposure_disparity(ranking, paper_population_small, "gender")
        assert disparity > 0.8  # random scores: roughly equal exposure

    def test_biased_disparity_below_unbiased(
        self, paper_population_small: Population
    ) -> None:
        biased_rank = rank_workers(paper_population_small, paper_biased_functions()["f6"])
        fair_rank = rank_workers(paper_population_small, paper_functions()["f1"])
        assert exposure_disparity(
            biased_rank, paper_population_small, "gender"
        ) < exposure_disparity(fair_rank, paper_population_small, "gender")

    def test_integer_attribute_grouped_by_bucket(
        self, paper_population_small: Population
    ) -> None:
        ranking = rank_workers(paper_population_small, paper_functions()["f1"])
        exposure = group_exposure(ranking, paper_population_small, "year_of_birth")
        assert len(exposure) == 5
        assert all(label.startswith("[") for label in exposure)


class TestTopKRepresentation:
    def test_biased_function_shuts_group_out(
        self, paper_population_small: Population
    ) -> None:
        # f6 scores every male above every female, so the top 20 are all male.
        ranking = rank_workers(paper_population_small, paper_biased_functions()["f6"])
        representation = top_k_representation(
            ranking, paper_population_small, "gender", k=20
        )
        assert representation["Female"] == 0.0
        assert representation["Male"] > 1.0

    def test_k_must_be_positive(self, paper_population_small: Population) -> None:
        ranking = rank_workers(paper_population_small, paper_functions()["f1"])
        with pytest.raises(ScoringError, match=">= 1"):
            top_k_representation(ranking, paper_population_small, "gender", k=0)

    def test_proportional_for_full_list(
        self, paper_population_small: Population
    ) -> None:
        ranking = rank_workers(paper_population_small, paper_functions()["f1"])
        representation = top_k_representation(
            ranking, paper_population_small, "gender", k=paper_population_small.size
        )
        for ratio in representation.values():
            assert ratio == pytest.approx(1.0)
