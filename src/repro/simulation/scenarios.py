"""Named experiment scenarios: one per paper table/figure.

A :class:`Scenario` bundles a population with the scoring functions ranked
over it — everything an experiment run needs.  The four builders correspond
to the paper's artefacts (see DESIGN.md §5):

* :func:`figure1_scenario` — the 10-worker toy example (E1),
* :func:`table1_scenario` — 500 workers, random functions f1..f5 (E2),
* :func:`table2_scenario` — 7300 workers, random functions f1..f5 (E3),
* :func:`table3_scenario` — 7300 workers, biased functions f6..f9 (E4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.histogram import HistogramSpec
from repro.core.population import Population
from repro.marketplace.biased import paper_biased_functions
from repro.marketplace.scoring import LinearScoringFunction, ScoringFunction, paper_functions
from repro.simulation.config import (
    LARGE_WORKER_COUNT,
    SMALL_WORKER_COUNT,
    PaperConfig,
)
from repro.simulation.generator import generate_paper_population, toy_population

__all__ = [
    "Scenario",
    "figure1_scenario",
    "table1_scenario",
    "table2_scenario",
    "table3_scenario",
    "function_names",
]


@dataclass(frozen=True)
class Scenario:
    """A population plus the scoring functions to audit on it."""

    name: str
    population: Population
    functions: dict[str, ScoringFunction]
    hist_spec: HistogramSpec

    def __post_init__(self) -> None:
        assert self.functions, "a scenario needs at least one scoring function"


def figure1_scenario() -> Scenario:
    """The toy example of Figure 1: 10 workers, f = the qualification score."""
    return Scenario(
        name="figure1-toy",
        population=toy_population(),
        functions={"f": LinearScoringFunction("f", {"qualification": 1.0})},
        hist_spec=HistogramSpec(bins=10),
    )


def table1_scenario(config: PaperConfig | None = None) -> Scenario:
    """Table 1: 500 workers, random qualification functions f1..f5."""
    config = config or PaperConfig(n_workers=SMALL_WORKER_COUNT)
    return _random_function_scenario("table1-500-workers", config)


def table2_scenario(config: PaperConfig | None = None) -> Scenario:
    """Table 2: 7300 workers (active-AMT estimate), functions f1..f5."""
    config = config or PaperConfig(n_workers=LARGE_WORKER_COUNT)
    return _random_function_scenario("table2-7300-workers", config)


def table3_scenario(config: PaperConfig | None = None, bias_seed: int = 7) -> Scenario:
    """Table 3: 7300 workers, biased-by-design functions f6..f9."""
    config = config or PaperConfig(n_workers=LARGE_WORKER_COUNT)
    population = generate_paper_population(
        config.n_workers,
        seed=config.seed,
        year_of_birth_buckets=config.year_of_birth_buckets,
        experience_buckets=config.experience_buckets,
    )
    return Scenario(
        name="table3-biased",
        population=population,
        functions=dict(paper_biased_functions(seed=bias_seed)),
        hist_spec=HistogramSpec(bins=config.histogram_bins),
    )


def function_names(scenario: str) -> "tuple[str, ...]":
    """The scoring-function names a scenario defines, by its short name
    (``figure1`` / ``table1`` / ``table2`` / ``table3``), without
    generating its population."""
    if scenario == "figure1":
        return ("f",)
    if scenario == "table3":
        return tuple(paper_biased_functions())
    return tuple(paper_functions())


def _random_function_scenario(name: str, config: PaperConfig) -> Scenario:
    population = generate_paper_population(
        config.n_workers,
        seed=config.seed,
        year_of_birth_buckets=config.year_of_birth_buckets,
        experience_buckets=config.experience_buckets,
    )
    return Scenario(
        name=name,
        population=population,
        functions=dict(paper_functions()),
        hist_spec=HistogramSpec(bins=config.histogram_bins),
    )
