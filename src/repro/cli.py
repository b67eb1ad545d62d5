"""Command-line interface.

The subcommands::

    repro-audit generate --workers 500 --seed 42 --out workers.csv
    repro-audit audit workers.csv --function f4 --algorithm balanced
    repro-audit compare workers.csv --function f7
    repro-audit significance workers.csv --function f6 --permutations 199
    repro-audit repair workers.csv --function f6 --amount 1.0
    repro-audit mitigate workers.csv --function f6 --strategy fair_topk
    repro-audit workload workers.csv tasks.json
    repro-audit experiment table1 --out table1.json
    repro-audit serve --workdir state/
    repro-audit submit --url http://127.0.0.1:8765 --id j1 --scenario figure1
    repro-audit jobs --workdir state/

``generate`` writes a synthetic population under the paper's schema;
``audit`` runs one algorithm on one scoring function and prints the report;
``compare`` runs every algorithm on one function side by side;
``significance`` permutation-tests the audited partitioning against its
sampling-noise null; ``repair`` quantile-aligns the scores across the
audited groups and reports the unfairness before/after; ``mitigate`` runs
the full detect→repair loop with any registered strategy (``fair_topk``,
``det_rerank``, ``quantile``) and reports unfairness before/after, NDCG@k
and per-group exposure deltas (see ``docs/mitigation.md``); ``experiment``
regenerates one of the paper's tables (table1, table2, table3) or the
Figure 1 toy example; ``serve`` runs the long-running audit daemon
(crash-safe job journal, bounded queue with backpressure, per-job
deadlines, graceful drain — see ``docs/service.md``); ``submit`` posts one
job (``--kind audit`` or ``--kind mitigate``) to a running daemon via
``POST /v1/jobs``; ``jobs`` lists job states from a daemon or straight
from a journal file.

The repair-using subcommands (``mitigate``, ``workload``, ``experiment``,
``submit``) share one strategy flag surface via ``_add_repair_arguments``:
``--strategy`` / ``--k`` / ``--min-proportion`` / ``--alpha`` /
``--amount`` / ``--variant`` — mirroring how ``_add_engine_arguments``
unifies the engine flags.

The four engine-using subcommands (``audit``, ``compare``, ``workload``,
``experiment``) share one flag surface; every one of them scores in-process
(``--workers`` means *workers in the marketplace*, i.e. population size,
on ``generate`` and ``experiment``):

* ``--engine-kernel {numpy,scalar}`` selects the (bit-identical) distance
  kernels;
* ``--trace-out FILE`` writes the run's span tree and metrics snapshot as
  JSON (see ``docs/observability.md``);
* ``--log-level LEVEL`` configures structured logging.

``serve`` takes only ``--engine-kernel`` and ``--log-level`` of these.
Its ``--chaos`` takes the :mod:`repro.chaos` grammar with ``disk-*``,
``net-*`` and ``worker-*`` keys.

``experiment`` additionally supports ``--checkpoint-dir DIR`` (persist
every completed cell atomically) and ``--resume DIR`` (skip cells already
checkpointed there; results are bit-identical to an uninterrupted run).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.chaos import ChaosConfig
from repro.core.algorithms import PAPER_ALGORITHMS, available_algorithms
from repro.core.audit import FairnessAuditor
from repro.core.histogram import HistogramSpec
from repro.engine import KERNEL_BACKENDS
from repro.exceptions import PartitioningError
from repro.io.serialization import (
    load_population,
    save_experiment_result,
    save_population,
)
from repro.marketplace.biased import paper_biased_functions
from repro.marketplace.scoring import paper_functions
from repro.metrics.base import available_metrics
from repro.obs import MetricsRegistry, Tracer, setup_logging, write_trace
from repro.obs.tracer import NULL_TRACER
from repro.reporting.paper_reference import TABLE1_EMD, TABLE2_EMD, TABLE3_EMD
from repro.reporting.tables import format_comparison_table, format_table
from repro.simulation.config import PaperConfig
from repro.simulation.generator import generate_paper_population
from repro.simulation.runner import run_scenario
from repro.simulation.scenarios import (
    figure1_scenario,
    table1_scenario,
    table2_scenario,
    table3_scenario,
)

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _nonnegative_float(value: str) -> float:
    parsed = float(value)
    if not parsed >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _tenant_weight(value: str) -> "tuple[str, float]":
    """argparse type of ``serve --tenant-weight``: ``TENANT=WEIGHT`` with a
    weight above 0."""
    tenant, sep, weight = value.partition("=")
    if not sep or not tenant:
        raise argparse.ArgumentTypeError(f"expects TENANT=WEIGHT, got {value!r}")
    try:
        parsed = float(weight)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weight must be a number, got {weight!r}"
        ) from None
    if not parsed > 0:
        raise argparse.ArgumentTypeError(
            f"weight for {tenant!r} must be > 0, got {weight}"
        )
    return tenant, parsed


def _chaos_spec(value: str) -> ChaosConfig:
    """argparse type of ``serve --chaos``: :meth:`ChaosConfig.parse`, its
    errors (which name the entry) turned into a usage error."""
    try:
        return ChaosConfig.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_engine_arguments(
    parser: argparse.ArgumentParser, daemon: bool = False
) -> None:
    """The shared engine/observability flag surface of the four engine-using
    subcommands: ``--engine-kernel`` / ``--trace-out`` / ``--log-level``.
    ``daemon=True`` (``serve``) adds only the flags the daemon reads:
    ``--engine-kernel`` and ``--log-level``."""
    group = parser.add_argument_group("evaluation engine")
    group.add_argument(
        "--engine-kernel",
        dest="engine_kernel",
        default=None,
        choices=list(KERNEL_BACKENDS),
        help="distance-kernel backend: numpy (default, fused vectorised) or "
        "scalar (per-pair reference).  Both produce bit-identical results",
    )
    if not daemon:
        group.add_argument(
            "--trace-out",
            dest="trace_out",
            default=None,
            metavar="FILE",
            help="write the run's span tree + metrics snapshot as JSON to FILE",
        )
    group.add_argument(
        "--log-level",
        dest="log_level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable structured logging at this level",
    )


def _unit_interval(value: str) -> float:
    parsed = float(value)
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {parsed}")
    return parsed


def _add_repair_arguments(
    parser: argparse.ArgumentParser, default_strategy: "str | None" = None
) -> None:
    """The shared repair-strategy flag surface (``mitigate``, ``workload``,
    ``experiment``, ``submit``): ``--strategy`` / ``--k`` /
    ``--min-proportion`` / ``--alpha`` / ``--amount`` / ``--variant``,
    mirroring :func:`_add_engine_arguments`.  With ``default_strategy=None``
    the strategy is opt-in: no mitigation runs unless ``--strategy`` is
    given."""
    from repro.repair import available_strategies

    group = parser.add_argument_group("repair strategy")
    group.add_argument(
        "--strategy",
        default=default_strategy,
        choices=sorted(available_strategies()),
        help="repair strategy"
        + (
            f" (default: {default_strategy})"
            if default_strategy
            else " (omit to skip mitigation)"
        ),
    )
    group.add_argument(
        "--k",
        dest="top_k",
        type=_positive_int,
        default=None,
        metavar="N",
        help="re-rank/evaluation depth (default: the full population)",
    )
    group.add_argument(
        "--min-proportion",
        dest="min_proportion",
        type=_unit_interval,
        default=0.8,
        metavar="P",
        help="constraint tightness in (0, 1]: each group's target share is "
        "P times its population share (default 0.8)",
    )
    group.add_argument(
        "--alpha",
        dest="alpha",
        type=_unit_interval,
        default=0.1,
        metavar="A",
        help="significance level of fair_topk's binomial quota test "
        "(default 0.1; larger = stricter quotas)",
    )
    group.add_argument(
        "--amount",
        dest="amount",
        type=_unit_interval,
        default=1.0,
        metavar="X",
        help="quantile-repair interpolation strength in [0, 1] (default 1.0)",
    )
    group.add_argument(
        "--variant",
        default="greedy",
        choices=["greedy", "cons"],
        help="det_rerank variant: greedy (DetGreedy) or cons (DetCons)",
    )


def _repair_options(args: argparse.Namespace) -> dict:
    """Keyword arguments for :func:`repro.repair.repair_ranking` from the
    shared flag surface (strategy itself excluded)."""
    options = {
        "k": args.top_k,
        "min_proportion": args.min_proportion,
        "alpha": args.alpha,
        "amount": args.amount,
    }
    if args.strategy == "det_rerank":
        options["strategy_options"] = {"variant": args.variant}
    return options


def _observability(args: argparse.Namespace) -> "tuple[object, MetricsRegistry | None]":
    """(tracer, metrics) for one command: real instances only when the run
    is being traced, so untraced runs keep the no-op fast path."""
    if getattr(args, "log_level", None):
        setup_logging(args.log_level)
    if getattr(args, "trace_out", None):
        return Tracer(), MetricsRegistry()
    return NULL_TRACER, None


def _finish_trace(args: argparse.Namespace, tracer, metrics) -> None:
    """Write the span tree + metrics snapshot collected by a traced run."""
    if getattr(args, "trace_out", None):
        payload = write_trace(args.trace_out, tracer, metrics)
        print(f"wrote trace ({len(payload['spans'])} root spans) to {args.trace_out}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Audit ranking fairness in online job marketplaces (EDBT 2019 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic worker population (paper schema)"
    )
    generate.add_argument("--workers", type=int, default=500, help="population size")
    generate.add_argument("--seed", type=int, default=42, help="generation seed")
    generate.add_argument("--out", required=True, help="output CSV path")

    audit = subparsers.add_parser(
        "audit", help="find the most unfair partitioning for one scoring function"
    )
    audit.add_argument("population", help="population CSV written by 'generate'")
    audit.add_argument(
        "--function",
        default="f1",
        help="scoring function: f1..f5 (random weights) or f6..f9 (biased)",
    )
    audit.add_argument(
        "--algorithm",
        default="balanced",
        choices=sorted(available_algorithms()),
        help="search algorithm",
    )
    audit.add_argument(
        "--metric",
        default="emd",
        choices=sorted(available_metrics()),
        help="histogram distance to maximise",
    )
    audit.add_argument("--bins", type=int, default=10, help="histogram bins")
    audit.add_argument("--seed", type=int, default=0, help="seed for randomised algorithms")
    audit.add_argument(
        "--histograms",
        action="store_true",
        help="append per-group ASCII score histograms to the report",
    )
    _add_engine_arguments(audit)

    compare = subparsers.add_parser(
        "compare", help="run every algorithm on one scoring function"
    )
    compare.add_argument("population", help="population CSV written by 'generate'")
    compare.add_argument("--function", default="f1", help="scoring function f1..f9")
    compare.add_argument("--seed", type=int, default=0, help="seed for randomised algorithms")
    _add_engine_arguments(compare)

    significance = subparsers.add_parser(
        "significance",
        help="permutation-test an audited partitioning against sampling noise",
    )
    significance.add_argument("population", help="population CSV written by 'generate'")
    significance.add_argument("--function", default="f1", help="scoring function f1..f9")
    significance.add_argument(
        "--algorithm",
        default="balanced",
        choices=sorted(available_algorithms()),
        help="search algorithm whose result is tested",
    )
    significance.add_argument(
        "--permutations", type=int, default=199, help="permutations for the null"
    )
    significance.add_argument("--seed", type=int, default=0, help="permutation seed")

    repair = subparsers.add_parser(
        "repair", help="quantile-align scores across the audited groups"
    )
    repair.add_argument("population", help="population CSV written by 'generate'")
    repair.add_argument("--function", default="f6", help="scoring function f1..f9")
    repair.add_argument(
        "--algorithm",
        default="balanced",
        choices=sorted(available_algorithms()),
        help="search algorithm used for the audit",
    )
    repair.add_argument(
        "--amount", type=float, default=1.0, help="repair strength in [0, 1]"
    )
    repair.add_argument(
        "--out", default=None, help="optional CSV path for the repaired scores"
    )

    mitigate = subparsers.add_parser(
        "mitigate",
        help="detect the most unfair partitioning, then repair the ranking",
    )
    mitigate.add_argument("population", help="population CSV written by 'generate'")
    mitigate.add_argument("--function", default="f6", help="scoring function f1..f9")
    mitigate.add_argument(
        "--algorithm",
        default="balanced",
        choices=sorted(available_algorithms()),
        help="search algorithm used for the audit",
    )
    mitigate.add_argument(
        "--metric",
        default="emd",
        choices=sorted(available_metrics()),
        help="histogram distance the repair is priced with",
    )
    mitigate.add_argument("--seed", type=int, default=0, help="audit seed")
    mitigate.add_argument(
        "--out", default=None, help="optional CSV path for the repaired ranking"
    )
    _add_repair_arguments(mitigate, default_strategy="fair_topk")

    workload = subparsers.add_parser(
        "workload", help="audit a JSON workload of tasks over a population"
    )
    workload.add_argument("population", help="population CSV written by 'generate'")
    workload.add_argument(
        "tasks",
        help=(
            "JSON file: list of task specs with keys id, title, weights "
            "(observed attribute -> weight), and optional positions / "
            "requirements (observed attribute -> minimum value)"
        ),
    )
    workload.add_argument(
        "--algorithm",
        default="balanced",
        choices=sorted(available_algorithms()),
        help="search algorithm used per task",
    )
    workload.add_argument("--seed", type=int, default=0, help="seed for randomised algorithms")
    _add_engine_arguments(workload)
    _add_repair_arguments(workload)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper table or the Figure 1 toy example"
    )
    experiment.add_argument(
        "name", choices=["table1", "table2", "table3", "figure1"], help="paper artefact"
    )
    experiment.add_argument("--workers", type=int, default=None, help="override worker count")
    experiment.add_argument("--seed", type=int, default=42, help="population seed")
    experiment.add_argument("--out", default=None, help="optional JSON output path")
    experiment.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        default=None,
        metavar="DIR",
        help="persist each completed (function, algorithm) cell to "
        "DIR/checkpoint.json (atomic, schema-versioned)",
    )
    experiment.add_argument(
        "--resume",
        dest="resume",
        default=None,
        metavar="DIR",
        help="resume from a checkpoint directory, skipping completed cells "
        "(implies --checkpoint-dir DIR); bit-identical to an uninterrupted run",
    )
    _add_engine_arguments(experiment)
    _add_repair_arguments(experiment)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-running audit daemon (see docs/service.md)",
    )
    serve.add_argument(
        "--workdir",
        required=True,
        metavar="DIR",
        help="daemon state directory (journal.jsonl + per-job checkpoints); "
        "restarting on the same directory resumes every unfinished job",
    )
    serve.add_argument(
        "--queue-limit",
        dest="queue_limit",
        type=_positive_int,
        default=8,
        help="max queued jobs before submissions are rejected (queue_full)",
    )
    serve.add_argument(
        "--queue-workers",
        dest="queue_workers",
        type=_positive_int,
        default=2,
        help="worker threads draining the job queue (jobs in flight: their "
        "journal I/O and memo hits overlap, but their searches run one at a "
        "time; waiting for that does not count against a job's "
        "deadline_seconds)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="HTTP bind port (0 picks a free port; printed at startup)",
    )
    serve.add_argument(
        "--snapshot-out",
        dest="snapshot_out",
        default=None,
        metavar="DIR",
        help="directory for monitored-population snapshots "
        "(default: WORKDIR/snapshots; 'none' disables snapshotting)",
    )
    serve.add_argument(
        "--snapshot-in",
        dest="snapshot_in",
        default=None,
        metavar="DIR",
        help="directory snapshots are restored from at startup "
        "(default: the --snapshot-out directory)",
    )
    serve.add_argument(
        "--journal-max-bytes",
        dest="journal_max_bytes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="compact the journal in place once it exceeds N bytes "
        "(default: never compact)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        dest="cache_max_bytes",
        type=_nonnegative_int,
        default=256 * 1024 * 1024,
        metavar="N",
        help="byte budget of the content-addressed cross-job cache "
        "(reuses populations, atom tables and pair scores across jobs; "
        "0 disables it; default 256 MiB)",
    )
    serve.add_argument(
        "--tenant-weight",
        dest="tenant_weights",
        type=_tenant_weight,
        action="append",
        default=None,
        metavar="TENANT=WEIGHT",
        help="dispatch weight for one tenant in the weighted fair "
        "scheduler (repeatable; unlisted tenants weigh 1.0)",
    )
    serve.add_argument(
        "--rate-limit",
        dest="rate_limit",
        type=_positive_float,
        default=None,
        metavar="JOBS_PER_SECOND",
        help="per-tenant sustained submission rate; excess submissions "
        "are rejected with the typed rate_limited reason (HTTP 429)",
    )
    serve.add_argument(
        "--rate-limit-burst",
        dest="rate_limit_burst",
        type=_positive_int,
        default=None,
        metavar="N",
        help="token-bucket burst size (default: ceil of --rate-limit)",
    )
    serve.add_argument(
        "--batch-max",
        dest="batch_max",
        type=_positive_int,
        default=1,
        metavar="N",
        help="coalesce up to N queued jobs with identical specs (up to "
        "id/priority/tenant) into one engine dispatch; 1 disables batching",
    )
    serve.add_argument(
        "--chaos",
        type=_chaos_spec,
        default=None,
        metavar="SPEC",
        help="seeded service-wide fault injection, e.g. "
        "'disk-fsync=0.1,net-reset=0.05,worker-stall=0.02,seed=7' "
        "(see docs/robustness.md for the full fault taxonomy)",
    )
    serve.add_argument(
        "--request-timeout",
        dest="request_timeout",
        type=_nonnegative_float,
        default=30.0,
        metavar="SECONDS",
        help="total HTTP header+body read deadline per request; slow-loris "
        "peers get 408 and the socket back (0 disables; default 30)",
    )
    serve.add_argument(
        "--watchdog-seconds",
        dest="watchdog_seconds",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="re-queue jobs stuck RUNNING longer than this (stalled-worker "
        "watchdog; default: disabled)",
    )
    _add_engine_arguments(serve, daemon=True)

    submit = subparsers.add_parser(
        "submit", help="submit one audit or mitigate job to a running daemon"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="daemon base URL (see the 'serve' startup banner)",
    )
    submit.add_argument("--id", required=True, help="unique job id (path-safe token)")
    submit.add_argument(
        "--kind",
        default="audit",
        choices=["audit", "mitigate"],
        help="job kind: audit (detect only) or mitigate (detect + repair)",
    )
    submit.add_argument(
        "--scenario",
        required=True,
        choices=["figure1", "table1", "table2", "table3"],
        help="paper artefact to audit",
    )
    submit.add_argument(
        "--algorithm",
        default="balanced",
        choices=sorted(available_algorithms()),
        help="search algorithm",
    )
    submit.add_argument(
        "--function",
        dest="functions",
        action="append",
        default=None,
        metavar="NAME",
        help="scoring function to include (repeatable; default: all)",
    )
    submit.add_argument("--seed", type=int, default=0, help="job seed")
    submit.add_argument(
        "--priority", type=int, default=0, help="smaller runs first among queued jobs"
    )
    submit.add_argument(
        "--tenant",
        default=None,
        help="fair-share scheduling bucket (default: 'default')",
    )
    submit.add_argument(
        "--deadline",
        dest="deadline",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-job compute budget; an over-budget job is CANCELLED with "
        "a flagged partial result",
    )
    submit.add_argument(
        "--max-attempts",
        dest="max_attempts",
        type=_positive_int,
        default=3,
        help="tries before a repeatedly failing job is QUARANTINED",
    )
    submit.add_argument(
        "--n-workers",
        dest="n_workers",
        type=_positive_int,
        default=None,
        help="population-size override for the scenario",
    )
    submit.add_argument(
        "--metric",
        default="emd",
        choices=sorted(available_metrics()),
        help="histogram distance to maximise",
    )
    submit.add_argument(
        "--engine-kernel",
        dest="engine_kernel",
        default=None,
        choices=list(KERNEL_BACKENDS),
        help="kernel backend for the job's distance computations "
        "(bit-identical across backends; default: the daemon's)",
    )
    _add_repair_arguments(submit, default_strategy="fair_topk")

    jobs = subparsers.add_parser(
        "jobs", help="list jobs from a daemon or a journal file"
    )
    jobs_source = jobs.add_mutually_exclusive_group(required=True)
    jobs_source.add_argument(
        "--url", default=None, help="query a running daemon's /v1/jobs endpoint"
    )
    jobs_source.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="read DIR/journal.jsonl directly (works while the daemon is down)",
    )
    jobs.add_argument(
        "--kind",
        default=None,
        choices=["audit", "mitigate"],
        help="only list jobs of this kind",
    )
    jobs.add_argument(
        "--state",
        default=None,
        choices=["PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED", "QUARANTINED"],
        help="only list jobs in this state",
    )
    jobs.add_argument(
        "--tenant",
        default=None,
        help="only list jobs of this tenant",
    )
    jobs.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="keep only the N most recently submitted matches "
        "(server-side when querying a daemon)",
    )

    verify_snapshot = subparsers.add_parser(
        "verify-snapshot",
        help="check a monitored-population snapshot restores exactly",
    )
    verify_snapshot.add_argument(
        "snapshot", metavar="PATH", help="snapshot file to verify"
    )

    compact_snapshot = subparsers.add_parser(
        "compact-snapshot",
        help="trim a snapshot's unfairness series (state is untouched)",
    )
    compact_snapshot.add_argument(
        "snapshot", metavar="PATH", help="snapshot file to compact"
    )
    compact_snapshot.add_argument(
        "--keep",
        type=int,
        default=100,
        metavar="N",
        help="series points to keep (newest first; default 100)",
    )
    return parser


def _command_generate(args: argparse.Namespace) -> int:
    population = generate_paper_population(args.workers, seed=args.seed)
    save_population(population, args.out)
    print(f"wrote {population.size} workers to {args.out} (+ schema sidecar)")
    return 0


def _command_audit(args: argparse.Namespace) -> int:
    tracer, metrics = _observability(args)
    with tracer.span(
        "cli.audit", function=args.function, algorithm=args.algorithm
    ) as root:
        with tracer.span("cli.load_population", path=args.population):
            population = load_population(args.population)
        function = _resolve_function(args.function)
        if function is None:
            return 2
        auditor = FairnessAuditor(
            population, hist_spec=HistogramSpec(bins=args.bins), metric=args.metric
        )
        report = auditor.audit(
            function,
            algorithm=args.algorithm,
            rng=args.seed,
            kernel=args.engine_kernel,
            tracer=tracer,
            metrics=metrics,
        )
        with tracer.span("cli.render"):
            rendered = report.render(histograms=args.histograms)
        root.set(unfairness=report.unfairness, n_groups=len(report.groups))
    print(rendered)
    _finish_trace(args, tracer, metrics)
    return 0


def _resolve_function(name: str):
    functions = {**paper_functions(), **paper_biased_functions()}
    if name not in functions:
        print(
            f"unknown function {name!r}; choose from {sorted(functions)}",
            file=sys.stderr,
        )
        return None
    return functions[name]


def _command_compare(args: argparse.Namespace) -> int:
    tracer, metrics = _observability(args)
    population = load_population(args.population)
    function = _resolve_function(args.function)
    if function is None:
        return 2
    scores = function(population)
    from repro.core.algorithms import get_algorithm

    print(f"algorithm comparison on {args.function} ({population.size} workers)")
    header = f"{'algorithm':>16}  {'unfairness':>10}  {'groups':>7}  {'time (s)':>9}  attributes"
    print(header)
    print("-" * len(header))
    with tracer.span("cli.compare", function=args.function):
        for name in list(PAPER_ALGORITHMS) + ["single-attribute", "beam"]:
            result = get_algorithm(name).run(
                population,
                scores,
                rng=args.seed,
                kernel=args.engine_kernel,
                tracer=tracer,
                metrics=metrics,
            )
            attributes = ",".join(result.partitioning.attributes_used()) or "(none)"
            print(
                f"{name:>16}  {result.unfairness:>10.3f}  {result.partitioning.k:>7d}"
                f"  {result.runtime_seconds:>9.3f}  {attributes}"
            )
    _finish_trace(args, tracer, metrics)
    return 0


def _command_significance(args: argparse.Namespace) -> int:
    from repro.analysis.significance import permutation_test
    from repro.core.algorithms import get_algorithm

    population = load_population(args.population)
    function = _resolve_function(args.function)
    if function is None:
        return 2
    scores = function(population)
    result = get_algorithm(args.algorithm).run(population, scores, rng=args.seed)
    test = permutation_test(
        scores,
        result.partitioning,
        n_permutations=args.permutations,
        rng=args.seed,
    )
    print(
        f"{args.algorithm} on {args.function}: found {result.partitioning.k} groups "
        f"on {result.partitioning.attributes_used()}"
    )
    print(f"permutation test: {test}")
    verdict = "SIGNIFICANT" if test.significant else "consistent with sampling noise"
    print(f"verdict at 0.05: {verdict}")
    return 0


def _command_repair(args: argparse.Namespace) -> int:
    import csv as csv_module

    from repro.core.algorithms import get_algorithm
    from repro.core.unfairness import UnfairnessEvaluator
    from repro.repair.quantile import repair_scores

    population = load_population(args.population)
    function = _resolve_function(args.function)
    if function is None:
        return 2
    scores = function(population)
    result = get_algorithm(args.algorithm).run(population, scores)
    repaired = repair_scores(scores, result.partitioning, amount=args.amount)
    after = UnfairnessEvaluator(population, repaired).unfairness(result.partitioning)
    print(
        f"audited groups: {result.partitioning.k} on "
        f"{result.partitioning.attributes_used()}"
    )
    print(f"unfairness before repair: {result.unfairness:.4f}")
    print(f"unfairness after repair (amount={args.amount}): {after:.4f}")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv_module.writer(handle)
            writer.writerow(["worker", "original_score", "repaired_score"])
            for index, (original, new) in enumerate(zip(scores, repaired)):
                writer.writerow([index, repr(float(original)), repr(float(new))])
        print(f"wrote repaired scores to {args.out}")
    return 0


def _command_mitigate(args: argparse.Namespace) -> int:
    import csv as csv_module

    from repro.core.algorithms import get_algorithm
    from repro.repair import repair_ranking

    population = load_population(args.population)
    function = _resolve_function(args.function)
    if function is None:
        return 2
    scores = function(population)
    audit = get_algorithm(args.algorithm).run(
        population, scores, metric=args.metric, rng=args.seed
    )
    result = repair_ranking(
        population,
        scores,
        audit.partitioning,
        args.strategy,
        metric=args.metric,
        **_repair_options(args),
    )
    print(
        f"audited groups: {audit.partitioning.k} on "
        f"{audit.partitioning.attributes_used()}"
    )
    print(f"strategy: {args.strategy} (params {result.params})")
    print(f"unfairness before: {result.unfairness_before:.4f}")
    print(f"unfairness after : {result.unfairness_after:.4f}")
    print(f"ndcg@{result.k}: {result.ndcg_at_k:.4f}")
    print(f"retained score mass@{result.k}: {result.retained_score_mass:.4f}")
    print("per-group exposure deltas:")
    for label, delta in sorted(
        result.exposure_delta.items(), key=lambda kv: kv[1], reverse=True
    ):
        print(f"  {label}: {delta:+.4f}")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv_module.writer(handle)
            writer.writerow(["rank", "worker", "original_score", "repaired_score"])
            for rank, worker in enumerate(result.order_after):
                writer.writerow(
                    [
                        rank,
                        int(worker),
                        repr(float(scores[worker])),
                        repr(float(result.repaired_scores[worker])),
                    ]
                )
        print(f"wrote repaired ranking to {args.out}")
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.workload import audit_workload
    from repro.marketplace.tasks import task_from_weights

    population = load_population(args.population)
    try:
        specs = json.loads(open(args.tasks).read())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read workload file {args.tasks!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(specs, list) or not specs:
        print("workload file must contain a non-empty JSON list", file=sys.stderr)
        return 2
    try:
        tasks = [
            task_from_weights(
                spec["id"],
                spec.get("title", spec["id"]),
                {k: float(v) for k, v in spec["weights"].items()},
                positions=int(spec.get("positions", 1)),
                requirements={
                    k: float(v) for k, v in spec.get("requirements", {}).items()
                },
            )
            for spec in specs
        ]
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed task spec: {exc!r}", file=sys.stderr)
        return 2
    tracer, metrics = _observability(args)
    with tracer.span("cli.workload", n_tasks=len(tasks)):
        summary = audit_workload(
            population,
            tasks,
            algorithm=args.algorithm,
            rng=args.seed,
            kernel=args.engine_kernel,
            tracer=tracer,
            metrics=metrics,
            repair_strategy=args.strategy,
            repair_options=_repair_options(args) if args.strategy else None,
        )
    print(summary.render())
    _finish_trace(args, tracer, metrics)
    recurring = summary.recurring_attributes(min_fraction=0.5)
    if recurring:
        print(f"\nsystematic channels (>=50% of tasks): {', '.join(recurring)}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    tracer, metrics = _observability(args)
    checkpoint_dir = args.resume or args.checkpoint_dir
    resume = args.resume is not None
    if args.name == "figure1":
        scenario = figure1_scenario()
        result = run_scenario(
            scenario,
            algorithms=("exhaustive", "balanced", "unbalanced"),
            seed=args.seed,
            kernel=args.engine_kernel,
            tracer=tracer,
            metrics=metrics,
            checkpoint=checkpoint_dir,
            resume=resume,
        )
        print(format_table(result, "unfairness", title="Figure 1 toy — average EMD"))
        reference = None
    else:
        builders = {
            "table1": (table1_scenario, TABLE1_EMD, 500),
            "table2": (table2_scenario, TABLE2_EMD, 7300),
            "table3": (table3_scenario, TABLE3_EMD, 7300),
        }
        builder, reference, default_workers = builders[args.name]
        config = PaperConfig(n_workers=args.workers or default_workers, seed=args.seed)
        scenario = builder(config)
        result = run_scenario(
            scenario,
            algorithms=PAPER_ALGORITHMS,
            seed=args.seed,
            kernel=args.engine_kernel,
            tracer=tracer,
            metrics=metrics,
            checkpoint=checkpoint_dir,
            resume=resume,
        )
        print(
            format_comparison_table(
                result,
                reference,
                "unfairness",
                title=f"{args.name} — average EMD, measured (paper)",
            )
        )
        print()
        print(format_table(result, "runtime_seconds", title="runtime (seconds, ours)"))
    if args.strategy:
        _print_mitigation_table(scenario, args)
    if args.out:
        save_experiment_result(result, args.out)
        print(f"\nwrote rows to {args.out}")
    _finish_trace(args, tracer, metrics)
    return 0


def _print_mitigation_table(scenario, args: argparse.Namespace) -> None:
    """Detect→repair every scenario function with the shared repair flags
    (the ``experiment --strategy ...`` rider on the audit tables)."""
    import numpy as np

    from repro.core.algorithms import get_algorithm
    from repro.repair import repair_ranking
    from repro.simulation.runner import _cell_seed

    options = _repair_options(args)
    print()
    print(f"mitigation ({args.strategy}) — balanced audit per function")
    header = (
        f"{'function':>10}  {'before':>8}  {'after':>8}  {'ndcg@k':>7}  {'mass':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, function in scenario.functions.items():
        scores = function(scenario.population)
        audit = get_algorithm("balanced").run(
            scenario.population,
            scores,
            hist_spec=scenario.hist_spec,
            rng=np.random.default_rng(_cell_seed(args.seed, "balanced", name)),
        )
        repaired = repair_ranking(
            scenario.population,
            scores,
            audit.partitioning,
            args.strategy,
            hist_spec=scenario.hist_spec,
            **options,
        )
        print(
            f"{name:>10}  {repaired.unfairness_before:>8.4f}  "
            f"{repaired.unfairness_after:>8.4f}  {repaired.ndcg_at_k:>7.4f}  "
            f"{repaired.retained_score_mass:>6.3f}"
        )


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.exceptions import ReproError
    from repro.service import AuditService, ServiceConfig

    if args.log_level:
        setup_logging(args.log_level)
    if args.snapshot_out is None:
        snapshot_dir = ""  # ServiceConfig default: WORKDIR/snapshots
    elif args.snapshot_out.lower() == "none":
        snapshot_dir = None
    else:
        snapshot_dir = args.snapshot_out
    chaos = args.chaos
    service = AuditService(
        ServiceConfig(
            args.workdir,
            queue_limit=args.queue_limit,
            workers=args.queue_workers,
            host=args.host,
            port=args.port,
            snapshot_dir=snapshot_dir,
            snapshot_in=args.snapshot_in,
            journal_max_bytes=args.journal_max_bytes,
            cache_max_bytes=args.cache_max_bytes,
            engine_kernel=args.engine_kernel,
            tenant_weights=dict(args.tenant_weights or ()),
            rate_limit=args.rate_limit,
            rate_limit_burst=args.rate_limit_burst,
            batch_max=args.batch_max,
            chaos=chaos,
            request_timeout=(
                args.request_timeout if args.request_timeout > 0 else None
            ),
            watchdog_seconds=args.watchdog_seconds,
        ),
    )
    # The handlers only set an event; the drain happens on this thread, so
    # in-flight jobs always finish before the process exits.
    signal.signal(signal.SIGTERM, lambda *_: service.request_shutdown())
    signal.signal(signal.SIGINT, lambda *_: service.request_shutdown())
    try:
        service.start()
    except ReproError as exc:
        # Recovery refused the journal or a snapshot; nothing is running yet.
        print(f"repro-audit: error: {exc}", file=sys.stderr)
        return 1
    host, port = service.address
    print(
        f"audit service listening on http://{host}:{port} "
        f"(journal: {service.journal.path})",
        flush=True,
    )
    if chaos is not None and chaos.enabled:
        print(f"chaos enabled: {chaos.spec} (seed={chaos.seed})", flush=True)
    while not service.wait_for_shutdown(timeout=0.2):
        pass
    print("shutdown requested; draining in-flight jobs", flush=True)
    service.stop()
    print("drained cleanly", flush=True)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    import json
    import urllib.error
    import urllib.request

    from repro.service.jobs import JOB_SCHEMA

    payload = {
        "schema": JOB_SCHEMA,
        "id": args.id,
        "kind": args.kind,
        "scenario": args.scenario,
        "algorithm": args.algorithm,
        "seed": args.seed,
        "priority": args.priority,
        "max_attempts": args.max_attempts,
        "metric": args.metric,
    }
    if args.kind == "mitigate":
        payload["strategy"] = args.strategy
        payload["min_proportion"] = args.min_proportion
        payload["alpha"] = args.alpha
        payload["amount"] = args.amount
        if args.top_k is not None:
            payload["top_k"] = args.top_k
    if args.tenant is not None:
        payload["tenant"] = args.tenant
    if args.functions:
        payload["functions"] = args.functions
    if args.deadline is not None:
        payload["deadline_seconds"] = args.deadline
    if args.n_workers is not None:
        payload["n_workers"] = args.n_workers
    if args.engine_kernel is not None:
        payload["kernel"] = args.engine_kernel
    request = urllib.request.Request(
        args.url.rstrip("/") + "/v1/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.load(response)
    except urllib.error.HTTPError as exc:
        try:
            envelope = json.load(exc).get("error", {})
        except json.JSONDecodeError:
            envelope = {"code": exc.code, "message": exc.reason}
        print(
            f"rejected ({envelope.get('code', exc.code)}): "
            f"{envelope.get('message')}",
            file=sys.stderr,
        )
        return 1
    except urllib.error.URLError as exc:
        print(f"cannot reach daemon at {args.url}: {exc.reason}", file=sys.stderr)
        return 2
    job = body["job"]
    print(f"accepted {job['id']} (kind {job['kind']}, state {job['state']})")
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    import json
    import urllib.error
    import urllib.request
    from pathlib import Path

    if args.url:
        from urllib.parse import urlencode

        # Server-side filtering keeps the listing cheap on long-running
        # daemons with thousands of journaled jobs.
        params = {
            key: value
            for key, value in (
                ("state", args.state),
                ("kind", args.kind),
                ("tenant", args.tenant),
                ("limit", args.limit),
            )
            if value is not None
        }
        url = args.url.rstrip("/") + "/v1/jobs"
        if params:
            url += "?" + urlencode(params)
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                jobs = json.load(response)["jobs"]
        except urllib.error.HTTPError as exc:
            try:
                envelope = json.load(exc).get("error", {})
            except json.JSONDecodeError:
                envelope = {"message": exc.reason}
            print(f"listing rejected: {envelope.get('message')}", file=sys.stderr)
            return 2
        except urllib.error.URLError as exc:
            print(f"cannot reach daemon at {args.url}: {exc.reason}", file=sys.stderr)
            return 2
    else:
        from repro.exceptions import JournalError
        from repro.service import JobJournal

        journal = JobJournal(Path(args.workdir) / "journal.jsonl")
        try:
            jobs = [record.as_dict() for record in journal.replay().values()]
        except JournalError as exc:
            print(f"cannot read journal: {exc}", file=sys.stderr)
            return 2
    if args.kind:
        jobs = [job for job in jobs if job.get("kind", "audit") == args.kind]
    if args.state:
        jobs = [job for job in jobs if job["state"] == args.state]
    if args.tenant:
        jobs = [job for job in jobs if job.get("tenant", "default") == args.tenant]
    if args.limit is not None and len(jobs) > args.limit:
        jobs = jobs[-args.limit:]
    if not jobs:
        print("no jobs")
        return 0
    header = f"{'id':<20} {'kind':<9} {'state':<12} {'attempt':>7}  reason"
    print(header)
    print("-" * len(header))
    for job in jobs:
        print(
            f"{job['id']:<20} {job.get('kind', 'audit'):<9} {job['state']:<12} "
            f"{job['attempt']:>7}  {job['reason'] or ''}"
        )
    return 0


def _command_verify_snapshot(args: argparse.Namespace) -> int:
    from repro.exceptions import SnapshotError
    from repro.service import verify_snapshot

    try:
        info = verify_snapshot(args.snapshot)
    except SnapshotError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"OK {info['path']}")
    print(
        f"  monitor {info['id']}: {info['population_size']} workers at "
        f"version {info['version']}, {info['series_points']} series points"
    )
    print(f"  digest      {info['digest']}")
    print(f"  fingerprint {info['fingerprint']}")
    return 0


def _command_compact_snapshot(args: argparse.Namespace) -> int:
    from repro.exceptions import SnapshotError
    from repro.service import compact_snapshot

    try:
        before, after = compact_snapshot(args.snapshot, keep_series=args.keep)
    except SnapshotError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"compacted {args.snapshot}: {before} -> {after} bytes "
        f"({before - after} reclaimed, series capped at {args.keep})"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-audit`` console script."""
    args = build_parser().parse_args(argv)
    commands = {
        "generate": _command_generate,
        "audit": _command_audit,
        "compare": _command_compare,
        "significance": _command_significance,
        "repair": _command_repair,
        "mitigate": _command_mitigate,
        "workload": _command_workload,
        "experiment": _command_experiment,
        "serve": _command_serve,
        "submit": _command_submit,
        "jobs": _command_jobs,
        "verify-snapshot": _command_verify_snapshot,
        "compact-snapshot": _command_compact_snapshot,
    }
    try:
        return commands[args.command](args)
    except PartitioningError as exc:
        # An engine error the search cannot run past, e.g. an empty
        # population.
        print(f"repro-audit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
