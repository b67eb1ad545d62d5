"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.histogram import HistogramSpec
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.simulation.generator import generate_paper_population, toy_population

# Tier-1 is deterministic: every property test draws the same examples on
# every run and no failure database carries examples between runs.  The
# kernel-parity CI job explores with ``--hypothesis-profile=explore``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture()
def small_schema() -> WorkerSchema:
    """Two categorical protected attributes, one integer, one observed."""
    return WorkerSchema(
        protected=(
            CategoricalAttribute("gender", ("Male", "Female")),
            CategoricalAttribute("country", ("America", "India", "Other")),
            IntegerAttribute("age", 18, 67, buckets=5),
        ),
        observed=(ObservedAttribute("skill", 0.0, 1.0),),
    )


@pytest.fixture()
def small_population(small_schema: WorkerSchema) -> Population:
    """A fixed 12-worker population for deterministic assertions."""
    return Population(
        small_schema,
        protected={
            "gender": np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]),
            "country": np.array([0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]),
            "age": np.array([20, 30, 40, 50, 60, 25, 35, 45, 55, 65, 22, 33]),
        },
        observed={
            "skill": np.array(
                [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.95, 0.45]
            )
        },
    )


@pytest.fixture(scope="session")
def paper_population_small() -> Population:
    """A 300-worker population under the paper's schema (session-cached)."""
    return generate_paper_population(300, seed=7)


@pytest.fixture()
def toy() -> Population:
    """The Figure 1 toy population."""
    return toy_population()


@pytest.fixture()
def hist_spec() -> HistogramSpec:
    return HistogramSpec(bins=10)
