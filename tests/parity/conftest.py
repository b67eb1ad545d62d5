"""Shared fixtures for the differential parity harness.

This is the single source of truth for "bit-identical" assertions across
the suite: the scenario matrix (seeded populations + score vectors), the
digest helpers that reduce an audit result to a comparable byte string,
and the streaming-store builders that used to live inline in
``tests/test_streaming.py``.

The parity contract (see ``docs/robustness.md``): every kernel backend ×
atom/member path produces the **same IEEE floats, the same partitioning,
the same effort counters and the same tie-breaks** as the reference scalar
path.  All comparisons here are exact (``==`` /
``np.array_equal``) — approximate assertions would hide the very drift
this harness exists to catch.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.algorithms.base import get_algorithm
from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.marketplace.streaming import MutablePopulation, random_mutation_mix
from repro.simulation.config import PaperConfig
from repro.simulation.generator import generate_paper_population, toy_population
from repro.simulation.scenarios import table1_scenario

# ------------------------------------------------------------ scenario matrix

#: Names of the seeded populations the parity matrix runs over.
PARITY_POPULATIONS = ("toy", "small", "paper300")

#: (population name, score seed) cells of the matrix.
PARITY_CASES = (("toy", 3), ("small", 11), ("paper300", 23))


def _small_population() -> Population:
    """Fixed 12-worker population (duplicated codes on purpose, so the
    dedup'd kernel entry points are exercised)."""
    schema = WorkerSchema(
        protected=(
            CategoricalAttribute("gender", ("Male", "Female")),
            CategoricalAttribute("country", ("America", "India", "Other")),
            IntegerAttribute("age", 18, 67, buckets=5),
        ),
        observed=(ObservedAttribute("skill", 0.0, 1.0),),
    )
    return Population(
        schema,
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


def build_population(name: str) -> Population:
    if name == "toy":
        return toy_population()
    if name == "small":
        return _small_population()
    if name == "paper300":
        return generate_paper_population(300, seed=7)
    raise KeyError(f"unknown parity population {name!r}")


def build_scores(population: Population, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random(population.size)


@pytest.fixture(scope="session")
def parity_populations() -> dict:
    """All matrix populations, built once per session."""
    return {name: build_population(name) for name in PARITY_POPULATIONS}


# -------------------------------------------------------------- digest helpers


def result_digest(result) -> str:
    """SHA-256 over everything a run promises to reproduce bit-identically.

    ``float.hex`` keeps the full IEEE value (no decimal rounding), the
    canonical partitioning key pins group membership *and* tie-breaks, and
    the effort counters pin the search trajectory — two runs with equal
    digests did the same work and found the same answer.
    """
    payload = {
        "unfairness": float(result.unfairness).hex(),
        "partitioning": result.partitioning.canonical_key(),
        "n_evaluations": result.n_evaluations,
        "cache_hits": result.cache_hits,
        "n_full_evaluations": result.n_full_evaluations,
        "n_incremental_evaluations": result.n_incremental_evaluations,
        "pair_distances_computed": result.pair_distances_computed,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def value_digest(result) -> str:
    """SHA-256 over the *answer* alone (full-precision unfairness +
    canonical partitioning incl. tie-breaks).  Use this where effort may
    legitimately differ — e.g. a warm cross-job-cache run skips work a cold
    run paid for, but must land on the identical answer."""
    payload = {
        "unfairness": float(result.unfairness).hex(),
        "partitioning": result.partitioning.canonical_key(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def assert_results_identical(actual, reference) -> None:
    """Exact equality on value, partitioning and effort counters."""
    assert actual.unfairness == reference.unfairness
    assert (
        actual.partitioning.canonical_key()
        == reference.partitioning.canonical_key()
    )
    assert actual.n_evaluations == reference.n_evaluations
    assert actual.cache_hits == reference.cache_hits
    assert actual.n_full_evaluations == reference.n_full_evaluations
    assert actual.n_incremental_evaluations == reference.n_incremental_evaluations
    assert result_digest(actual) == result_digest(reference)


def run_audit(population, scores, algorithm="balanced", **kwargs):
    """One audit run with a pinned rng; kwargs select the path under test."""
    return get_algorithm(algorithm).run(
        population, scores, metric=kwargs.pop("metric", "emd"), rng=5, **kwargs
    )


# ---------------------------------------------------- streaming store helpers
# (Moved from tests/test_streaming.py so both the legacy streaming suite and
# the parity harness share one definition.)


def small_store(seed: int = 0, n_workers: int = 120) -> MutablePopulation:
    scenario = table1_scenario(PaperConfig(n_workers=n_workers, seed=seed))
    population = scenario.population
    scores = next(iter(scenario.functions.values()))(population)
    return MutablePopulation.from_population(
        population, scores, hist_spec=scenario.hist_spec
    )


def mutate(store: MutablePopulation, seed: int, count: int, weights=None):
    kwargs = {} if weights is None else {"weights": weights}
    for mutation in random_mutation_mix(
        store, np.random.default_rng(seed), count, **kwargs
    ):
        store.apply(mutation)


def batch_audit(store: MutablePopulation, algorithm="balanced", metric="emd", **kw):
    population, scores = store.to_population()
    return get_algorithm(algorithm).run(
        population, scores, hist_spec=store.hist_spec, metric=metric, rng=0, **kw
    )


def group_table(result) -> list:
    return sorted(
        (tuple(sorted(p.constraints)), p.size) for p in result.partitioning
    )


def report_table(report) -> list:
    return sorted(
        zip((tuple(sorted(g)) for g in report.groups), report.group_sizes)
    )
