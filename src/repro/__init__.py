"""repro — a from-scratch reproduction of
*Exploring Fairness of Ranking in Online Job Marketplaces* (EDBT 2019).

The library answers one question about an online job marketplace: **which
demographic subgroup does a given ranking function treat worst?**  It
searches all partitionings of the workers on their protected attributes for
the one whose score distributions differ the most (average pairwise Earth
Mover's Distance), using the paper's ``balanced`` and ``unbalanced`` greedy
algorithms plus all the baselines its evaluation compares against.

Quickstart::

    from repro import FairnessAuditor, generate_paper_population, paper_functions

    population = generate_paper_population(500, seed=42)
    auditor = FairnessAuditor(population)
    report = auditor.audit(paper_functions()["f4"])
    print(report.render())

See README.md for the full tour and DESIGN.md for the architecture.
"""

from repro.analysis.importance import AttributeImportance, attribute_importance
from repro.analysis.significance import (
    PermutationTestResult,
    noise_floor,
    permutation_test,
)
from repro.analysis.workload import WorkloadAuditSummary, audit_workload
from repro.core.algorithms import (
    PAPER_ALGORITHMS,
    AlgorithmResult,
    available_algorithms,
    count_split_trees,
    get_algorithm,
)
from repro.core.attributes import (
    CategoricalAttribute,
    IntegerAttribute,
    ObservedAttribute,
)
from repro.core.audit import AuditReport, FairnessAuditor, GroupSummary
from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition, Partitioning
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.core.tree import build_split_tree, render_split_tree
from repro.core.unfairness import UnfairnessEvaluator, unfairness
from repro.engine import (
    Deadline,
    EvaluationEngine,
    RetryPolicy,
    SearchContext,
    StepDeadline,
    available_backends,
)
from repro.exceptions import (
    BackendError,
    BackendExhaustedError,
    BackendTimeoutError,
    BudgetExceededError,
    CheckpointError,
    CorruptResultError,
    DeadlineExceededError,
    JobRejectedError,
    JobStateError,
    JournalError,
    MetricError,
    PartitioningError,
    PopulationError,
    ReproError,
    SchemaError,
    ScoringError,
    ServiceError,
    WorkerCrashError,
)
from repro.service import (
    AuditJob,
    AuditService,
    JobJournal,
    JobRecord,
    JobState,
    ServiceConfig,
)
from repro.marketplace.biased import (
    AttributeCondition,
    RuleBasedScoringFunction,
    ScoreRule,
    paper_biased_functions,
)
from repro.marketplace.exposure import exposure_disparity, group_exposure
from repro.marketplace.platform import Marketplace
from repro.marketplace.ranking import Ranking, rank_workers
from repro.marketplace.scoring import (
    LinearScoringFunction,
    ScoringFunction,
    paper_functions,
)
from repro.marketplace.tasks import Task, task_from_weights
from repro.metrics.base import available_metrics, get_metric
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    setup_logging,
    write_trace,
)
from repro.repair import (
    RepairResult,
    RepairStrategy,
    available_strategies,
    get_strategy,
    repair_ranking,
    repair_scores,
)
from repro.simulation.config import (
    LARGE_WORKER_COUNT,
    SMALL_WORKER_COUNT,
    PaperConfig,
    paper_schema,
)
from repro.simulation.generator import (
    generate_paper_population,
    generate_population,
    toy_population,
)
from repro.simulation.checkpoint import CheckpointStore
from repro.simulation.realistic import generate_realistic_population
from repro.simulation.runner import ExperimentResult, ExperimentRow, run_scenario
from repro.simulation.scenarios import (
    Scenario,
    figure1_scenario,
    table1_scenario,
    table2_scenario,
    table3_scenario,
)

__version__ = "1.0.0"

__all__ = [
    # core model
    "CategoricalAttribute",
    "IntegerAttribute",
    "ObservedAttribute",
    "WorkerSchema",
    "Population",
    "HistogramSpec",
    "Partition",
    "Partitioning",
    "UnfairnessEvaluator",
    "unfairness",
    "build_split_tree",
    "render_split_tree",
    # algorithms
    "AlgorithmResult",
    "PAPER_ALGORITHMS",
    "available_algorithms",
    "get_algorithm",
    "count_split_trees",
    # audit API
    "FairnessAuditor",
    "AuditReport",
    "GroupSummary",
    # evaluation engine
    "EvaluationEngine",
    "SearchContext",
    "available_backends",
    # resilience
    "RetryPolicy",
    "CheckpointStore",
    # deadlines
    "Deadline",
    "StepDeadline",
    # audit service
    "AuditJob",
    "AuditService",
    "JobJournal",
    "JobRecord",
    "JobState",
    "ServiceConfig",
    # observability
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "write_trace",
    "setup_logging",
    # marketplace
    "ScoringFunction",
    "LinearScoringFunction",
    "RuleBasedScoringFunction",
    "ScoreRule",
    "AttributeCondition",
    "paper_functions",
    "paper_biased_functions",
    "Task",
    "task_from_weights",
    "Ranking",
    "rank_workers",
    "Marketplace",
    "group_exposure",
    "exposure_disparity",
    # metrics
    "available_metrics",
    "get_metric",
    # repair
    "RepairResult",
    "RepairStrategy",
    "available_strategies",
    "get_strategy",
    "repair_ranking",
    "repair_scores",
    # analysis
    "PermutationTestResult",
    "permutation_test",
    "noise_floor",
    "WorkloadAuditSummary",
    "audit_workload",
    "AttributeImportance",
    "attribute_importance",
    # simulation
    "PaperConfig",
    "paper_schema",
    "SMALL_WORKER_COUNT",
    "LARGE_WORKER_COUNT",
    "generate_population",
    "generate_paper_population",
    "generate_realistic_population",
    "toy_population",
    "Scenario",
    "figure1_scenario",
    "table1_scenario",
    "table2_scenario",
    "table3_scenario",
    "run_scenario",
    "ExperimentResult",
    "ExperimentRow",
    # exceptions
    "ReproError",
    "SchemaError",
    "PopulationError",
    "ScoringError",
    "PartitioningError",
    "MetricError",
    "BudgetExceededError",
    "BackendError",
    "WorkerCrashError",
    "BackendTimeoutError",
    "CorruptResultError",
    "BackendExhaustedError",
    "CheckpointError",
    "DeadlineExceededError",
    "ServiceError",
    "JobRejectedError",
    "JobStateError",
    "JournalError",
]
