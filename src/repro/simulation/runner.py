"""Experiment runner: execute every (algorithm, scoring function) pair of a
scenario and collect the quantities the paper's tables report.

Randomised algorithms (``r-balanced``, ``r-unbalanced``) get a deterministic
per-cell seed derived from the run seed, the algorithm name and the function
name, so whole tables are reproducible while cells stay independent.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.algorithms import PAPER_ALGORITHMS, AlgorithmResult, get_algorithm
from repro.metrics.base import HistogramDistance
from repro.obs.tracer import NULL_TRACER
from repro.simulation.scenarios import Scenario

__all__ = [
    "ExperimentRow",
    "ExperimentResult",
    "experiment_fingerprint",
    "run_scenario",
]


@dataclass(frozen=True)
class ExperimentRow:
    """One cell of a paper table: one algorithm on one scoring function.

    The engine counters (cache hits, incremental vs full evaluations, pair
    distances materialised vs naive dense cost) travel with the cell so
    benchmark harnesses can attribute search effort.
    """

    scenario: str
    algorithm: str
    function: str
    unfairness: float
    runtime_seconds: float
    n_partitions: int
    n_evaluations: int
    attributes_used: tuple[str, ...]
    cache_hits: int = 0
    n_full_evaluations: int = 0
    n_incremental_evaluations: int = 0
    pair_distances_computed: int = 0
    pair_distances_full: int = 0
    deadline_hit: bool = False

    @classmethod
    def from_result(
        cls, scenario: str, function: str, result: AlgorithmResult
    ) -> "ExperimentRow":
        return cls(
            scenario=scenario,
            algorithm=result.algorithm,
            function=function,
            unfairness=result.unfairness,
            runtime_seconds=result.runtime_seconds,
            n_partitions=result.partitioning.k,
            n_evaluations=result.n_evaluations,
            attributes_used=result.partitioning.attributes_used(),
            cache_hits=result.cache_hits,
            n_full_evaluations=result.n_full_evaluations,
            n_incremental_evaluations=result.n_incremental_evaluations,
            pair_distances_computed=result.pair_distances_computed,
            pair_distances_full=result.pair_distances_full,
            deadline_hit=result.deadline_hit,
        )


@dataclass(frozen=True)
class ExperimentResult:
    """All rows of one scenario run, with lookup helpers."""

    scenario: str
    rows: tuple[ExperimentRow, ...]

    def cell(self, algorithm: str, function: str) -> ExperimentRow:
        """The row for one (algorithm, function) pair."""
        for row in self.rows:
            if row.algorithm == algorithm and row.function == function:
                return row
        raise KeyError(f"no row for algorithm={algorithm!r}, function={function!r}")

    def algorithms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.algorithm not in seen:
                seen.append(row.algorithm)
        return tuple(seen)

    def functions(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.function not in seen:
                seen.append(row.function)
        return tuple(seen)


def _cell_seed(run_seed: int, algorithm: str, function: str) -> int:
    """Deterministic, well-spread seed for one table cell."""
    key = f"{run_seed}:{algorithm}:{function}".encode()
    return zlib.crc32(key)


def experiment_fingerprint(
    scenario: Scenario,
    algorithms: "tuple[str, ...] | list[str]",
    metric: "str | HistogramDistance",
    seed: int,
) -> dict:
    """Identity of one experiment run, stored in its checkpoint.

    Two runs with equal fingerprints produce bit-identical rows (per-cell
    seeds depend only on the run seed and cell names), so a checkpoint is
    safe to resume exactly when fingerprints match.
    """
    metric_name = metric if isinstance(metric, str) else metric.name
    return {
        "scenario": scenario.name,
        "seed": int(seed),
        "metric": metric_name,
        "algorithms": list(algorithms),
        "functions": list(scenario.functions),
    }


def run_scenario(
    scenario: Scenario,
    algorithms: "tuple[str, ...] | list[str]" = PAPER_ALGORITHMS,
    metric: "str | HistogramDistance" = "emd",
    seed: int = 0,
    algorithm_options: "dict[str, dict[str, object]] | None" = None,
    tracer=None,
    metrics=None,
    checkpoint=None,
    resume: bool = False,
    deadline=None,
    kernel: "str | None" = None,
    engine_factory=None,
) -> ExperimentResult:
    """Run every algorithm on every scoring function of a scenario.

    Parameters
    ----------
    scenario:
        Population + scoring functions (see :mod:`repro.simulation.scenarios`).
    algorithms:
        Registry names to run; defaults to the paper's five.
    metric:
        Histogram distance to optimise (paper: EMD).
    seed:
        Run seed for the randomised baselines.
    algorithm_options:
        Optional per-algorithm constructor options, e.g.
        ``{"exhaustive": {"budget": 10_000}}``.
    tracer, metrics:
        Observability hooks (see :mod:`repro.obs`): every (function,
        algorithm) cell runs inside a ``scenario.cell`` span and all engines
        mirror their counters into the shared ``metrics`` registry.
    checkpoint:
        A :class:`~repro.simulation.checkpoint.CheckpointStore` (or a
        directory path) where every completed cell is persisted atomically.
    resume:
        With ``checkpoint``, skip cells already recorded there; because
        cells are seeded independently, a resumed run's rows are
        bit-identical to an uninterrupted run with the same fingerprint.
    deadline:
        Optional cooperative budget shared by every cell (see
        :mod:`repro.engine.deadline`); cells past it return flagged partial
        rows (``deadline_hit=True``) instead of running on.
    kernel:
        Kernel backend for the distance computations (``"numpy"`` /
        ``"scalar"``; ``None`` = default).  Bit-identical
        across backends, so rows are unchanged whichever is selected.
    engine_factory:
        Optional engine factory forwarded to every cell's
        :meth:`~repro.core.algorithms.base.PartitioningAlgorithm.run` —
        the audit service passes its cross-job cache wrapper here so
        repeated audits of the same tenant reuse atom tables and pair
        scores.
    """
    options = algorithm_options or {}
    run_tracer = tracer if tracer is not None else NULL_TRACER
    store = None
    completed: dict[str, dict] = {}
    if checkpoint is not None:
        from repro.simulation.checkpoint import CheckpointStore, cell_key

        store = (
            checkpoint
            if isinstance(checkpoint, CheckpointStore)
            else CheckpointStore(checkpoint)
        )
        fingerprint = experiment_fingerprint(scenario, algorithms, metric, seed)
        completed = store.begin(fingerprint, resume=resume)
    rows: list[ExperimentRow] = []
    with run_tracer.span(
        "scenario.run", scenario=scenario.name, seed=seed, resumed=bool(completed)
    ):
        for function_name, function in scenario.functions.items():
            scores = function(scenario.population)
            for algorithm_name in algorithms:
                if store is not None:
                    key = cell_key(function_name, algorithm_name)
                    if key in completed:
                        rows.append(store.row_from_cell(completed[key]))
                        if metrics is not None:
                            metrics.inc("checkpoint.cells_skipped")
                        continue
                algorithm = get_algorithm(
                    algorithm_name, **options.get(algorithm_name, {})
                )
                seed_value = _cell_seed(seed, algorithm_name, function_name)
                with run_tracer.span(
                    "scenario.cell",
                    scenario=scenario.name,
                    algorithm=algorithm_name,
                    function=function_name,
                ) as cell_span:
                    result = algorithm.run(
                        scenario.population,
                        scores,
                        hist_spec=scenario.hist_spec,
                        metric=metric,
                        rng=np.random.default_rng(seed_value),
                        tracer=tracer,
                        metrics=metrics,
                        deadline=deadline,
                        kernel=kernel,
                        engine_factory=engine_factory,
                    )
                    cell_span.set(
                        unfairness=result.unfairness,
                        runtime_seconds=result.runtime_seconds,
                    )
                row = ExperimentRow.from_result(scenario.name, function_name, result)
                rows.append(row)
                if store is not None:
                    # State of a fresh generator for this cell seed — enough
                    # to restart the cell's RNG stream from scratch on audit.
                    rng_state = np.random.default_rng(seed_value).bit_generator.state
                    store.record(key, row, seed_value, rng_state)
                    if metrics is not None:
                        metrics.inc("checkpoint.cells_written")
    return ExperimentResult(scenario=scenario.name, rows=tuple(rows))
