#!/usr/bin/env python
"""Fixed benchmark suite emitting a machine-readable perf trajectory.

Runs the paper's algorithms over the table scenarios and writes ``benchmarks/results/BENCH_<timestamp>.json`` —
wall-clock per case, the engine's effort counters, the traced span
breakdown, and a no-op-tracer overhead measurement.  Future PRs compare
their own ``BENCH_*.json`` against the committed one to prove speedups.

Modes::

    python benchmarks/run_bench.py            # full: table1 (500) + table2 (7300)
    python benchmarks/run_bench.py --quick    # CI smoke: small table1 only
    python benchmarks/run_bench.py --scaling  # + atom-vs-member scaling sweep

``--scaling`` adds a ``"scaling"`` section timing one ``worstAttribute``
greedy step per population (10k / 100k / 1M workers; 2k / 20k with
``--quick``) under three cost models — atom table, member arrays, and
``mode="full"`` — and ``--assert-atom-speedup`` turns the atom-beats-member
expectation into an exit code for CI (see docs/performance.md).

Every run also records a ``"service"`` section: audit-daemon throughput
(jobs/sec with the queue filled to depth 8) and submit→result latency
through the crash-safe journal (see docs/service.md).

``--streaming`` adds a ``"streaming"`` section benchmarking mutable-
population audits (see docs/streaming.md): per population size it streams
batches of ``STREAMING_DELTA_BATCH`` random mutations into a
``MutablePopulation`` and times the O(Δ·k) delta re-price, the O(atoms)
streaming re-audit, and the full from-scratch rebuild the streaming path
replaces — asserting along the way that the streaming audit's result is
bit-identical to the rebuild's.  ``--assert-streaming-speedup`` turns the
rebuild/streaming speedup expectation into an exit code for CI.

``--kernels`` adds a ``"kernels"`` section (see docs/performance.md): per
population size it derives the real atom-table pmf stack from the table1
scenario and times ``pairwise_matrix`` under every registered kernel
backend (the per-pair ``scalar`` loop the fused kernels replace vs the
fused ``numpy`` blocks), asserting bit-identical matrices
along the way; it then times the same audit *job* cold vs warm through a
:class:`~repro.service.cache.CrossJobCache` + ``CachingEngineFactory`` —
the exact code path the audit daemon uses — so the warm figure includes
the scenario memo, the atom-table transplant and the seeded value cache.
``--assert-kernel-speedup`` turns both expectations (compiled beats
scalar; warm beats cold by >=2x full / >=1.2x quick) into an exit code
for CI.

``--mitigation`` adds a ``"mitigation"`` section benchmarking the repair
suite (see docs/mitigation.md): per scenario it audits the bench function
once (balanced search), then repairs the worst partitioning with every
registered strategy — FA*IR quotas, both deterministic re-ranker variants,
and the quantile score repair — recording unfairness before/after, NDCG@k,
retained score mass, runtime and the repaired ranking's digest.  Every
case runs twice and asserts the digests match (repairs are bit-stable);
``--assert-mitigation-improvement`` turns the unfairness-decreases and
NDCG-floor expectations into an exit code for CI.

The payload layout is versioned (``repro.bench/v1``) and checked by
:func:`validate_bench_payload` before anything is written, so a schema
drift fails the run instead of poisoning the trajectory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core.algorithms import PAPER_ALGORITHMS, get_algorithm  # noqa: E402
from repro.core.partition import Partition  # noqa: E402
from repro.core.splitting import split_partitions  # noqa: E402
from repro.engine.engine import EvaluationEngine  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402
from repro.obs.tracer import NULL_TRACER  # noqa: E402
from repro.simulation.config import PaperConfig  # noqa: E402
from repro.simulation.scenarios import table1_scenario, table2_scenario  # noqa: E402

BENCH_SCHEMA = "repro.bench/v1"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: Execution backends a case of a payload committed before the process
#: pool was removed may name.
BACKENDS = ("sequential", "process")
#: Arrival mixes of the ``--service-load`` SLO sweep (benchmarks/load_gen.py).
LOAD_MIXES = ("uniform", "skewed", "adversarial")
#: Offered jobs/sec grid of the service-load sweep (full / --quick).
LOAD_RATES = (500.0, 1500.0, 3000.0)
LOAD_RATES_QUICK = (100.0, 300.0, 600.0)
#: One fixed scoring function per scenario keeps the suite comparable
#: across PRs; f4 exercises every protected attribute's weight draw.
BENCH_FUNCTION = "f4"
#: Population sizes of the scaling suite (``--scaling``): the atom path's
#: per-query cost should stay ~flat across this sweep while the member and
#: mode="full" paths grow linearly with the population.
SCALING_POPULATIONS = (10_000, 100_000, 1_000_000)
SCALING_POPULATIONS_QUICK = (2_000, 20_000)
#: The three cost models the scaling suite compares on the same greedy step.
SCALING_PATHS = ("atom", "member", "full")
#: Mutations per streamed batch in the ``--streaming`` suite — "small delta"
#: relative to every population size in the sweep.
STREAMING_DELTA_BATCH = 64
#: The three re-audit strategies the streaming suite compares per batch.
STREAMING_PATHS = ("delta_rescore", "streaming_audit", "full_rebuild")
#: Row cap for the kernel-backend comparison: the scalar reference pays one
#: Python-level call per *unique* row pair, so an uncapped 1M-worker atom
#: stack would turn the bench into a scalar-loop endurance test.  The cap
#: keeps the comparison honest (same stack for every backend) and bounded.
KERNEL_STACK_CAP = 512
#: Warm/cold speedup the ``--assert-kernel-speedup`` gate requires at the
#: largest population (full mode; ``--quick`` uses the smaller bar).
KERNEL_CACHE_SPEEDUP_FULL = 2.0
KERNEL_CACHE_SPEEDUP_QUICK = 1.2
#: The repair sweep of the ``--mitigation`` suite: every registered
#: strategy, with both deterministic re-ranker variants spelled out.
#: FA*IR runs at alpha=0.5 / min_proportion=1.0 — on the audits' many-
#: tiny-group partitionings the canonical alpha=0.1 tail test leaves the
#: binomial quotas at zero (a no-op), so the bench uses parameters at
#: which the quotas demonstrably bind (see docs/mitigation.md).
MITIGATION_STRATEGIES = (
    ("fair_topk", {"alpha": 0.5, "min_proportion": 1.0}),
    ("det_rerank", {"min_proportion": 0.8, "strategy_options": {"variant": "greedy"}}),
    ("det_rerank", {"min_proportion": 0.8, "strategy_options": {"variant": "cons"}}),
    ("quantile", {}),
)
#: NDCG@k floor the ``--assert-mitigation-improvement`` gate holds the
#: re-ranking strategies to (the quantile score repair rewrites scores
#: wholesale, so only its improvement is gated, not its NDCG).
MITIGATION_NDCG_FLOOR = 0.9

_ENGINE_COUNTERS = (
    "n_evaluations",
    "n_full_evaluations",
    "n_incremental_evaluations",
    "cache_hits",
    "pair_distances_computed",
    "pair_distances_full",
)


def _suite(quick: bool) -> list[tuple[str, object]]:
    """(label, scenario) pairs of the fixed suite."""
    if quick:
        return [("table1-quick", table1_scenario(PaperConfig(n_workers=120, seed=42)))]
    return [
        ("table1-500", table1_scenario(PaperConfig(n_workers=500, seed=42))),
        ("table2-7300", table2_scenario(PaperConfig(n_workers=7300, seed=42))),
    ]


def _run_case(scenario, scores, algorithm: str) -> dict:
    """One audit: wall-clock + engine counters + traced span breakdown."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    start = time.perf_counter()
    result = get_algorithm(algorithm).run(
        scenario.population,
        scores,
        hist_spec=scenario.hist_spec,
        rng=0,
        tracer=tracer,
        metrics=metrics,
    )
    wall = time.perf_counter() - start
    return {
        "scenario": scenario.name,
        "algorithm": algorithm,
        "function": BENCH_FUNCTION,
        "wall_seconds": wall,
        "unfairness": result.unfairness,
        "n_partitions": result.partitioning.k,
        "engine": {name: getattr(result, name) for name in _ENGINE_COUNTERS},
        "breakdown": tracer.breakdown(),
        "metrics": metrics.as_dict(),
    }


def _measure_overhead(scenario, scores, repeats: int) -> dict:
    """Cost of the *disabled* tracer on the balanced audit.

    Two views, both recorded:

    * an interleaved A/B of the default run (``tracer=None``) against an
      explicit ``NULL_TRACER`` run — both exercise the disabled-tracer
      path, so their relative difference bounds measurement noise;
    * an analytic estimate: spans-per-audit (counted on a traced run)
      times the microbenchmarked cost of one ``NULL_TRACER.span()`` call,
      as a fraction of the audit's wall time.
    """

    def run_once(tracer) -> float:
        start = time.perf_counter()
        get_algorithm("balanced").run(
            scenario.population,
            scores,
            hist_spec=scenario.hist_spec,
            rng=0,
            tracer=tracer,
        )
        return time.perf_counter() - start

    baseline, noop = [], []
    run_once(None)  # warm caches before timing
    for _ in range(repeats):
        baseline.append(run_once(None))
        noop.append(run_once(NULL_TRACER))
    # Both arms execute identical disabled-tracer code, so min-of-N — the
    # low-noise timing estimator — is the honest comparator; the median
    # picks up scheduler jitter, which the fused kernels' faster audits no
    # longer amortise (the 2% budget check was flaking on pure noise).
    baseline_s = min(baseline)
    noop_s = min(noop)

    probe = Tracer()
    run_once(probe)
    n_spans = sum(1 for _ in probe.iter_spans())

    iterations = 100_000
    start = time.perf_counter()
    for _ in range(iterations):
        with NULL_TRACER.span("bench.noop"):
            pass
    span_ns = (time.perf_counter() - start) / iterations * 1e9

    return {
        "repeats": repeats,
        "baseline_seconds": baseline_s,
        "noop_seconds": noop_s,
        "relative": abs(noop_s - baseline_s) / baseline_s,
        # Worst intra-arm spread: the measurement's own noise floor.  An
        # inter-arm delta below it is indistinguishable from scheduler
        # jitter, so the budget check in main() only fails above both.
        "noise": max(
            (max(baseline) - min(baseline)) / baseline_s,
            (max(noop) - min(noop)) / noop_s,
        ),
        "spans_per_audit": n_spans,
        "noop_span_ns": span_ns,
        "estimated_fraction": n_spans * span_ns * 1e-9 / noop_s,
    }


def _time_scaling_population(n_workers: int, repeats: int) -> dict:
    """One scaling measurement: the cost of *scoring every candidate
    attribute* of a ``worstAttribute`` greedy step under each cost model.

    * ``atom`` — grouped aggregations over the atom table
      (``score_attribute_splits``; never touches member arrays);
    * ``member`` — the legacy route (``use_atoms=False``): materialise every
      candidate's children as member arrays and batch-score them;
    * ``full`` — the same member route under ``mode="full"``'s dense
      cache-less baseline.

    The winner's materialisation (one ``split_partitions`` call, identical
    O(n) work on every path) is excluded so the numbers isolate what the
    atom table changes.  Caches are reset between repeats so every repeat
    pays cold-query prices; the atom table itself is built once (that is
    its contract) and its build time is reported separately.
    """
    scenario = table1_scenario(PaperConfig(n_workers=n_workers, seed=42))
    population = scenario.population
    scores = scenario.functions[BENCH_FUNCTION](population)
    candidates = list(population.schema.protected_names)
    root = [Partition(population.all_indices())]
    entry: dict = {"population": population.size, "paths": {}}
    for path in SCALING_PATHS:
        kwargs = {
            "atom": {"use_atoms": True},
            "member": {"use_atoms": False},
            "full": {"mode": "full"},
        }[path]
        engine = EvaluationEngine(
            population, scores, hist_spec=scenario.hist_spec, **kwargs
        )
        if path == "atom":
            build_start = time.perf_counter()
            table = engine.atom_table
            entry["atom_table_build_seconds"] = time.perf_counter() - build_start
            entry["n_atoms"] = table.n_atoms
        times = []
        for _ in range(repeats):
            engine.reset_caches()
            start = time.perf_counter()
            if path == "atom":
                scored = engine.score_attribute_splits(root, candidates)
                assert scored is not None, "root must resolve to atom rows"
                scores_out = scored[0]
            else:
                children_per_candidate = [
                    split_partitions(population, root, attribute)
                    for attribute in candidates
                ]
                scores_out = engine.score_many(children_per_candidate)
            times.append(time.perf_counter() - start)
            assert len(scores_out) == len(candidates)
        engine.close()
        entry["paths"][path] = {
            "repeats": times,
            "median": statistics.median(times),
            "min": min(times),
        }
    return entry


def run_scaling(quick: bool, repeats: int) -> dict:
    """The atom-vs-member-vs-full scaling sweep (one dict per population)."""
    populations = SCALING_POPULATIONS_QUICK if quick else SCALING_POPULATIONS
    cases = []
    for n_workers in populations:
        print(f"[scaling] {n_workers} workers ...", flush=True)
        case = _time_scaling_population(n_workers, repeats)
        cases.append(case)
        paths = case["paths"]
        print(
            "    atom {:.4f}s  member {:.4f}s  full {:.4f}s  ({} atoms)".format(
                paths["atom"]["median"],
                paths["member"]["median"],
                paths["full"]["median"],
                case["n_atoms"],
            ),
            flush=True,
        )
    return {"function": BENCH_FUNCTION, "repeats": repeats, "cases": cases}


def scaling_speedup(scaling: dict) -> tuple[int, float]:
    """(largest population, member/atom median speedup) of a scaling dict."""
    largest = max(scaling["cases"], key=lambda case: case["population"])
    atom = largest["paths"]["atom"]["median"]
    member = largest["paths"]["member"]["median"]
    return largest["population"], member / atom if atom > 0 else float("inf")


def _time_streaming_population(n_workers: int, repeats: int) -> dict:
    """One streaming measurement: re-audit cost after a 64-mutation batch.

    Three strategies are timed on the *same* mutated state each repeat:

    * ``delta_rescore`` — re-price the previous audit's groups only
      (O(Δ·k); no search);
    * ``streaming_audit`` — full re-search through the persistent
      :class:`StreamingAuditor` (O(atoms); never touches member arrays);
    * ``full_rebuild`` — the route streaming replaces: freeze the store
      back into member arrays and run a from-scratch batch audit (O(n)).

    Each repeat asserts the streaming audit is bit-identical to the
    rebuild (same unfairness float, same groups) — the bench doubles as
    an equivalence check at populations the unit tests never reach.
    """
    import numpy as np

    from repro.engine.streaming import StreamingAuditor
    from repro.marketplace import MutablePopulation, random_mutation_mix

    scenario = table1_scenario(PaperConfig(n_workers=n_workers, seed=42))
    population = scenario.population
    scores = scenario.functions[BENCH_FUNCTION](population)
    store = MutablePopulation.from_population(
        population, scores, hist_spec=scenario.hist_spec
    )
    auditor = StreamingAuditor(store)
    entry: dict = {
        "population": population.size,
        "delta_batch": STREAMING_DELTA_BATCH,
    }
    rng = np.random.default_rng(42)
    intake: list[float] = []
    times: dict = {path: [] for path in STREAMING_PATHS}
    stale_deltas = 0

    def stream_batch() -> None:
        mutations = random_mutation_mix(store, rng, STREAMING_DELTA_BATCH)
        start = time.perf_counter()
        for mutation in mutations:
            store.apply(mutation)
        intake.append(time.perf_counter() - start)

    start = time.perf_counter()
    auditor.audit()
    entry["first_audit_seconds"] = time.perf_counter() - start
    entry["n_atoms"] = auditor.state.n_atoms

    # Steady-state delta loop: one untimed warm-up pays the one-off
    # O(k²) tracker seed, then each batch is re-priced without an
    # intervening audit — the monitor's between-audits regime.
    stream_batch()
    auditor.rescore_delta()
    for _ in range(repeats):
        stream_batch()
        start = time.perf_counter()
        delta_report = auditor.rescore_delta()
        times["delta_rescore"].append(time.perf_counter() - start)
        if delta_report is not None and delta_report.stale:
            stale_deltas += 1
            auditor.audit()  # restore a live frontier, untimed
            auditor.rescore_delta()

    # Audit-vs-rebuild loop: after each batch, the streaming re-audit
    # races the from-scratch rebuild it replaces on identical state.
    for _ in range(repeats):
        stream_batch()
        start = time.perf_counter()
        report = auditor.audit()
        times["streaming_audit"].append(time.perf_counter() - start)

        start = time.perf_counter()
        frozen, frozen_scores = store.to_population()
        result = get_algorithm(auditor.algorithm).run(
            frozen,
            frozen_scores,
            hist_spec=store.hist_spec,
            metric=auditor.metric,
            rng=auditor.seed,
        )
        times["full_rebuild"].append(time.perf_counter() - start)

        assert report.unfairness == result.unfairness, (
            "streaming audit diverged from the batch rebuild "
            f"({report.unfairness!r} != {result.unfairness!r})"
        )
        batch_groups = sorted(
            tuple(sorted(p.constraints)) for p in result.partitioning
        )
        stream_groups = sorted(tuple(sorted(g)) for g in report.groups)
        assert stream_groups == batch_groups, "streaming chose different groups"
    entry["mutations_per_second"] = (
        STREAMING_DELTA_BATCH * len(intake) / sum(intake)
    )
    entry["stale_deltas"] = stale_deltas
    entry["paths"] = {
        path: {
            "repeats": series,
            "median": statistics.median(series),
            "min": min(series),
        }
        for path, series in times.items()
    }
    # The headline number: the O(Δ·k) delta re-price against the O(n)
    # from-scratch rebuild it replaces between full audits.
    entry["speedup"] = (
        entry["paths"]["full_rebuild"]["median"]
        / entry["paths"]["delta_rescore"]["median"]
    )
    entry["audit_speedup"] = (
        entry["paths"]["full_rebuild"]["median"]
        / entry["paths"]["streaming_audit"]["median"]
    )
    return entry


def run_streaming(quick: bool, repeats: int) -> dict:
    """The streaming-vs-rebuild sweep (one dict per population)."""
    populations = SCALING_POPULATIONS_QUICK if quick else SCALING_POPULATIONS
    cases = []
    for n_workers in populations:
        print(f"[streaming] {n_workers} workers ...", flush=True)
        case = _time_streaming_population(n_workers, repeats)
        cases.append(case)
        paths = case["paths"]
        print(
            "    delta {:.5f}s  audit {:.4f}s  rebuild {:.4f}s  "
            "({:.1f}x, {:.0f} mutations/s)".format(
                paths["delta_rescore"]["median"],
                paths["streaming_audit"]["median"],
                paths["full_rebuild"]["median"],
                case["speedup"],
                case["mutations_per_second"],
            ),
            flush=True,
        )
    return {
        "function": BENCH_FUNCTION,
        "algorithm": "balanced",
        "delta_batch": STREAMING_DELTA_BATCH,
        "repeats": repeats,
        "cases": cases,
    }


def streaming_speedup(streaming: dict) -> tuple[int, float]:
    """(largest population, rebuild/streaming speedup) of a streaming dict."""
    largest = max(streaming["cases"], key=lambda case: case["population"])
    return largest["population"], largest["speedup"]


def _time_kernels_population(n_workers: int, repeats: int) -> dict:
    """One kernel measurement: compiled kernels vs the scalar loop on the
    scenario's real atom pmfs, and a cold-vs-warm cross-job cache A/B.

    * **kernel comparison** — build the table1 atom table, normalise its
      count rows into the pmf stack the engine feeds the kernels, and time
      ``pairwise_matrix`` under every available backend on the same
      (capped, see :data:`KERNEL_STACK_CAP`) stack.  Every backend's
      matrix is asserted ``np.array_equal`` to the first — the bench
      doubles as a parity check at stacks the unit tests never reach.
    * **cache A/B** — run the same audit job twice through one
      :class:`~repro.service.cache.CrossJobCache`: the cold pass pays for
      scenario generation, the atom-table build and every objective
      evaluation; the warm pass replays it against the scenario memo, the
      transplanted atom table and the seeded value cache — exactly what a
      repeat job on the audit daemon sees.  Warm results are asserted
      bit-identical to cold before any timing is trusted.
    """
    import numpy as np

    from repro.engine.atoms import AtomTable
    from repro.engine.kernels import KERNEL_BACKENDS, pairwise_matrix
    from repro.metrics import get_metric
    from repro.service.cache import CrossJobCache, cached_audit

    scenario = table1_scenario(PaperConfig(n_workers=n_workers, seed=42))
    population = scenario.population
    scores = scenario.functions[BENCH_FUNCTION](population)
    spec = scenario.hist_spec
    table = AtomTable.build(population, spec.bin_indices(scores), spec.bins)
    counts = table.counts.astype(np.float64)
    sums = counts.sum(axis=1, keepdims=True)
    pmfs = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
    stack = np.ascontiguousarray(pmfs[:KERNEL_STACK_CAP])
    metric = get_metric("emd")

    entry: dict = {
        "population": population.size,
        "n_atoms": table.n_atoms,
        "stack_rows": int(stack.shape[0]),
        "backends": {},
    }
    reference = None
    for name in KERNEL_BACKENDS:
        times = []
        matrix = None
        for _ in range(repeats):
            start = time.perf_counter()
            matrix = pairwise_matrix(metric, stack, spec, kernel=name)
            times.append(time.perf_counter() - start)
        if reference is None:
            reference = matrix
        else:
            assert np.array_equal(matrix, reference), f"kernel {name!r} diverged"
        entry["backends"][name] = {
            "repeats": times,
            "median": statistics.median(times),
            "min": min(times),
        }

    # ---- cold vs warm through the daemon's cross-job cache code path.
    cache = CrossJobCache(max_bytes=256 * 1024 * 1024)
    scenario_key = f"table1-{n_workers}"

    def run_job():
        memo = cache.scenario(
            scenario_key,
            n_workers,
            lambda: table1_scenario(PaperConfig(n_workers=n_workers, seed=42)),
        )
        job_scores = memo.functions[BENCH_FUNCTION](memo.population)
        return cached_audit(
            cache,
            "balanced",
            memo.population,
            job_scores,
            hist_spec=memo.hist_spec,
            rng=0,
            owner=f"scenario:{scenario_key}",
        )

    cold_times, warm_times = [], []
    cold_result = None
    for _ in range(min(repeats, 2)):  # each cold pass regenerates the scenario
        cache.clear()
        start = time.perf_counter()
        cold_result = run_job()
        cold_times.append(time.perf_counter() - start)
    for _ in range(repeats):
        start = time.perf_counter()
        warm_result = run_job()
        warm_times.append(time.perf_counter() - start)
        assert warm_result.unfairness == cold_result.unfairness, (
            "warm cache run diverged from the cold run "
            f"({warm_result.unfairness!r} != {cold_result.unfairness!r})"
        )
        assert (
            warm_result.partitioning.canonical_key()
            == cold_result.partitioning.canonical_key()
        ), "warm cache run chose different groups"
    assert cache.hits > 0, "warm passes never hit the cross-job cache"
    entry["cache"] = {
        "cold": {
            "repeats": cold_times,
            "median": statistics.median(cold_times),
            "min": min(cold_times),
        },
        "warm": {
            "repeats": warm_times,
            "median": statistics.median(warm_times),
            "min": min(warm_times),
        },
        "speedup": statistics.median(cold_times) / statistics.median(warm_times),
        "hits": cache.hits,
        "entries": cache.stats()["entries"],
    }
    return entry


def run_kernels(quick: bool, repeats: int) -> dict:
    """The fused-kernel + cross-job-cache sweep (one dict per population)."""
    from repro.engine.kernels import KERNEL_BACKENDS

    populations = SCALING_POPULATIONS_QUICK if quick else SCALING_POPULATIONS
    cases = []
    for n_workers in populations:
        print(f"[kernels] {n_workers} workers ...", flush=True)
        case = _time_kernels_population(n_workers, repeats)
        cases.append(case)
        backends = case["backends"]
        compiled = backends["numpy"]["median"]
        scalar = backends["scalar"]["median"]
        print(
            "    numpy {:.5f}s  scalar {:.5f}s  ({:.1f}x over {} rows)  "
            "cache cold {:.3f}s warm {:.3f}s ({:.1f}x)".format(
                compiled,
                scalar,
                scalar / compiled if compiled > 0 else float("inf"),
                case["stack_rows"],
                case["cache"]["cold"]["median"],
                case["cache"]["warm"]["median"],
                case["cache"]["speedup"],
            ),
            flush=True,
        )
    return {
        "function": BENCH_FUNCTION,
        "metric": "emd",
        "stack_cap": KERNEL_STACK_CAP,
        "repeats": repeats,
        "status": {"registered": list(KERNEL_BACKENDS)},
        "cases": cases,
    }


def kernel_speedups(kernels: dict) -> tuple[int, float, float]:
    """(largest population, scalar/compiled speedup, cold/warm speedup)."""
    largest = max(kernels["cases"], key=lambda case: case["population"])
    compiled = largest["backends"]["numpy"]["median"]
    scalar = largest["backends"]["scalar"]["median"]
    kernel = scalar / compiled if compiled > 0 else float("inf")
    return largest["population"], kernel, largest["cache"]["speedup"]


def run_service_bench(queue_depth: int = 8, workers: int = 2) -> dict:
    """Audit-daemon throughput: submit→result latency and jobs/sec.

    Spins an in-process :class:`~repro.service.server.AuditService` on a
    temp workdir, fills the queue to ``queue_depth`` toy jobs and drains
    it.  Latency is each job's journal timestamps (submit → terminal);
    throughput is jobs over the whole batch's wall time — the figure the
    backpressure limit trades against.
    """
    import shutil
    import tempfile

    from repro.service import AuditJob, AuditService, ServiceConfig

    workdir = tempfile.mkdtemp(prefix="bench-service-")
    service = AuditService(
        ServiceConfig(
            workdir,
            queue_limit=queue_depth,
            workers=workers,
            port=None,
        )
    ).start()
    try:
        start = time.perf_counter()
        job_ids = []
        for i in range(queue_depth):
            job_id = f"bench-{i}"
            service.submit(
                AuditJob(id=job_id, scenario="figure1", algorithm="balanced", seed=i)
            )
            job_ids.append(job_id)
        assert service.drain(timeout=300), "service bench never drained"
        wall = time.perf_counter() - start
        latencies = []
        for job_id in job_ids:
            record = service.record(job_id)
            assert record.state.value == "DONE", f"{job_id} ended {record.state}"
            latencies.append(record.updated_at - record.submitted_at)
    finally:
        service.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "queue_depth": queue_depth,
        "workers": workers,
        "jobs": len(job_ids),
        "wall_seconds": wall,
        "jobs_per_second": len(job_ids) / wall,
        "latency_seconds": {
            "median": statistics.median(latencies),
            "min": min(latencies),
            "max": max(latencies),
        },
    }


def run_service_load(quick: bool) -> dict:
    """The SLO-curve sweep: the **real daemon subprocess** under seeded
    offered load at several rates and arrival mixes.

    Delegates to :mod:`benchmarks.load_gen` (which forks ``repro.cli
    serve`` per load point and submits over HTTP through the asyncio
    front end) and returns its ``service_load`` section — latency
    percentiles and sustained jobs/sec vs offered load.
    """
    spec = importlib.util.spec_from_file_location(
        "load_gen", Path(__file__).resolve().parent / "load_gen.py"
    )
    load_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(load_gen)
    if quick:
        return load_gen.run_load_suite(
            mixes=LOAD_MIXES, rates=LOAD_RATES_QUICK, duration=3.0
        )
    return load_gen.run_load_suite(mixes=LOAD_MIXES, rates=LOAD_RATES)


def run_mitigation(quick: bool) -> dict:
    """The repair-strategy sweep: one audited ranking per scenario, every
    registered strategy applied to its worst partitioning.

    Each case runs the repair **twice** and asserts the repaired-ranking
    digests match — the bench doubles as a bit-stability check at
    population sizes the golden tables never reach.
    """
    from repro.repair import repair_ranking

    cases = []
    for label, scenario in _suite(quick):
        population = scenario.population
        scores = scenario.functions[BENCH_FUNCTION](population)
        print(f"[mitigation] {label} balanced audit ...", flush=True)
        audit = get_algorithm("balanced").run(
            population, scores, hist_spec=scenario.hist_spec, rng=0
        )
        for strategy, options in MITIGATION_STRATEGIES:
            variant = options.get("strategy_options", {}).get("variant")
            name = f"{strategy}/{variant}" if variant else strategy
            print(f"[mitigation] {label} {name} ...", flush=True)
            first, second = (
                repair_ranking(
                    population,
                    scores,
                    audit.partitioning,
                    strategy,
                    hist_spec=scenario.hist_spec,
                    **options,
                )
                for _ in range(2)
            )
            assert first.ranking_digest() == second.ranking_digest(), (
                f"{name} repair is not bit-stable on {label}"
            )
            summary = first.as_dict()
            # Per-group exposure maps scale with the partitioning (1.7k
            # groups at table2-7300) — too bulky for a committed payload.
            for key in ("exposure_before", "exposure_after", "exposure_delta"):
                summary.pop(key)
            cases.append(
                {
                    "scenario": label,
                    "function": BENCH_FUNCTION,
                    "algorithm": "balanced",
                    "n_partitions": audit.partitioning.k,
                    "audit_unfairness": audit.unfairness,
                    **summary,
                }
            )
            print(
                "    {:.4f} -> {:.4f}  ndcg@{} {:.4f}  ({:.3f}s)".format(
                    first.unfairness_before,
                    first.unfairness_after,
                    first.k,
                    first.ndcg_at_k,
                    first.runtime_seconds,
                ),
                flush=True,
            )
    return {"function": BENCH_FUNCTION, "algorithm": "balanced", "cases": cases}


def mitigation_failures(mitigation: dict) -> list[str]:
    """Gate messages for ``--assert-mitigation-improvement`` (empty = pass).

    Every case must strictly decrease unfairness; the re-ranking
    strategies (which permute rather than rewrite scores) must also keep
    NDCG@k at or above :data:`MITIGATION_NDCG_FLOOR`.
    """
    failures = []
    for case in mitigation["cases"]:
        variant = case["params"].get("variant")
        name = case["strategy"] + (f"/{variant}" if variant else "")
        where = f"{name} on {case['scenario']}"
        if not case["unfairness_after"] < case["unfairness_before"]:
            failures.append(
                f"{where}: unfairness did not decrease "
                f"({case['unfairness_before']:.4f} -> {case['unfairness_after']:.4f})"
            )
        if case["strategy"] != "quantile" and case["ndcg_at_k"] < MITIGATION_NDCG_FLOOR:
            failures.append(
                f"{where}: ndcg@{case['k']} {case['ndcg_at_k']:.4f} is below "
                f"the {MITIGATION_NDCG_FLOOR} floor"
            )
    return failures


def validate_service_load(section: dict) -> None:
    """Raise ``ValueError`` unless ``section`` is a well-formed
    ``service_load`` bench section (see ``benchmarks/load_gen.py``)."""

    def fail(message: str) -> None:
        raise ValueError(f"invalid service_load section: {message}")

    if not isinstance(section, dict):
        fail("must be a dict")
    daemon = section.get("daemon")
    if not isinstance(daemon, dict):
        fail("daemon must be a dict")
    for key in ("queue_workers", "batch_max", "bulk_size", "connections"):
        value = daemon.get(key)
        if not isinstance(value, int) or value < 1:
            fail(f"daemon.{key} must be a positive int")
    mixes = section.get("mixes")
    if not isinstance(mixes, list) or not mixes:
        fail("mixes must be a non-empty list")
    for m, entry in enumerate(mixes):
        if not isinstance(entry, dict):
            fail(f"mixes[{m}] must be a dict")
        if entry.get("mix") not in LOAD_MIXES:
            fail(f"mixes[{m}].mix {entry.get('mix')!r} not in {LOAD_MIXES}")
        points = entry.get("points")
        if not isinstance(points, list) or not points:
            fail(f"mixes[{m}].points must be a non-empty list")
        for p, point in enumerate(points):
            where = f"mixes[{m}].points[{p}]"
            for key, kind in (
                ("offered_jobs_per_second", float),
                ("duration_seconds", float),
                ("submitted", int),
                ("accepted", int),
                ("rejected", int),
                ("completed", int),
                ("jobs_per_second", float),
                ("latency_seconds", dict),
            ):
                if not isinstance(point.get(key), kind):
                    fail(f"{where}.{key} must be {kind.__name__}")
            if point["offered_jobs_per_second"] <= 0:
                fail(f"{where}.offered_jobs_per_second must be positive")
            if point["duration_seconds"] <= 0:
                fail(f"{where}.duration_seconds must be positive")
            if point["submitted"] < 1 or point["jobs_per_second"] <= 0:
                fail(f"{where} throughput fields must be positive")
            if not (
                0 <= point["completed"] <= point["accepted"] <= point["submitted"]
            ):
                fail(f"{where}: completed <= accepted <= submitted violated")
            latency = point["latency_seconds"]
            for key in ("p50", "p99", "max"):
                value = latency.get(key)
                if not isinstance(value, float) or value < 0:
                    fail(f"{where}.latency_seconds.{key} must be a "
                         "non-negative float")
            if not latency["p50"] <= latency["p99"] <= latency["max"]:
                fail(f"{where}: latency percentiles must be ordered "
                     "p50 <= p99 <= max")


#: Counters the ``"chaos"`` bench section must carry (see
#: ``benchmarks/load_gen.py::run_chaos_point``).
CHAOS_COUNTERS = (
    "chaos.faults_injected",
    "service.journal_write_failures",
    "service.degraded_entered",
    "service.degraded_recoveries",
    "service.watchdog_requeues",
)


def run_chaos(quick: bool) -> dict:
    """The chaos point: the real daemon subprocess under ``--chaos``
    seeded fault injection, measured externally (availability, degraded-
    episode recovery time, sustained jobs/sec at the injected fault rate).

    Delegates to :mod:`benchmarks.load_gen` and returns its ``"chaos"``
    section.  The point itself enforces the hard invariants (ends
    HEALTHY, no acknowledged job lost) by raising.
    """
    spec = importlib.util.spec_from_file_location(
        "load_gen", Path(__file__).resolve().parent / "load_gen.py"
    )
    load_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(load_gen)
    duration = load_gen.CHAOS_DURATION_SMOKE if quick else load_gen.CHAOS_DURATION
    return load_gen.run_chaos_point(duration=duration)


def validate_chaos(section: dict) -> None:
    """Raise ``ValueError`` unless ``section`` is a well-formed ``chaos``
    bench section (see ``benchmarks/load_gen.py``)."""

    def fail(message: str) -> None:
        raise ValueError(f"invalid chaos section: {message}")

    if not isinstance(section, dict):
        fail("must be a dict")
    if not isinstance(section.get("spec"), str) or not section["spec"]:
        fail("spec must be a non-empty string")
    if not isinstance(section.get("seed"), int):
        fail("seed must be an int")
    for key in ("offered_jobs_per_second", "duration_seconds", "jobs_per_second"):
        value = section.get(key)
        if not isinstance(value, float) or value <= 0:
            fail(f"{key} must be a positive float")
    for key in (
        "submitted",
        "attempts",
        "accepted",
        "rejected_degraded",
        "rejected_other",
        "connection_errors",
        "completed",
        "health_polls",
        "degraded_episodes",
    ):
        value = section.get(key)
        if not isinstance(value, int) or value < 0:
            fail(f"{key} must be a non-negative int")
    if section["submitted"] < 1:
        fail("submitted must be positive")
    if not section["completed"] <= section["accepted"] <= section["attempts"]:
        fail("completed <= accepted <= attempts violated")
    availability = section.get("availability")
    if not isinstance(availability, float) or not 0.0 <= availability <= 1.0:
        fail("availability must be a float in [0, 1]")
    recovery = section.get("recovery_seconds")
    if not isinstance(recovery, dict):
        fail("recovery_seconds must be a dict")
    for key in ("p50", "p99", "max"):
        value = recovery.get(key)
        if not isinstance(value, float) or value < 0:
            fail(f"recovery_seconds.{key} must be a non-negative float")
    if not recovery["p50"] <= recovery["p99"] <= recovery["max"]:
        fail("recovery percentiles must be ordered p50 <= p99 <= max")
    if section["degraded_episodes"] > 0 and recovery["max"] <= 0:
        fail("degraded episodes were observed but recovery max is zero")
    if section.get("final_state") != "HEALTHY":
        fail(f"final_state must be 'HEALTHY', got {section.get('final_state')!r}")
    counters = section.get("counters")
    if not isinstance(counters, dict):
        fail("counters must be a dict")
    for name in CHAOS_COUNTERS:
        value = counters.get(name)
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"counters[{name!r}] must be a non-negative number")


def validate_bench_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed v1 bench."""

    def fail(message: str) -> None:
        raise ValueError(f"invalid bench payload: {message}")

    if payload.get("schema") != BENCH_SCHEMA:
        fail(f"schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}")
    for key in ("generated_at", "mode", "host", "cases", "overhead"):
        if key not in payload:
            fail(f"missing key {key!r}")
    host = payload["host"]
    if not isinstance(host, dict):
        fail("host must be a dict")
    for key in ("python", "platform"):
        if not isinstance(host.get(key), str) or not host[key]:
            fail(f"host.{key} must be a non-empty string")
    # cpu_count is validated when present; payloads committed before it
    # existed stay valid.
    if "cpu_count" in host:
        if not isinstance(host["cpu_count"], int) or host["cpu_count"] < 1:
            fail("host.cpu_count must be a positive int")
    if not isinstance(payload["cases"], list) or not payload["cases"]:
        fail("cases must be a non-empty list")
    for index, case in enumerate(payload["cases"]):
        for key, kind in (
            ("scenario", str),
            ("algorithm", str),
            ("function", str),
            ("wall_seconds", float),
            ("unfairness", float),
            ("n_partitions", int),
            ("engine", dict),
            ("breakdown", dict),
            ("metrics", dict),
        ):
            if not isinstance(case.get(key), kind):
                fail(f"cases[{index}].{key} must be {kind.__name__}")
        # backend is validated when present; payloads committed before the
        # process pool was removed name one per case.
        if "backend" in case and case["backend"] not in BACKENDS:
            fail(f"cases[{index}].backend {case['backend']!r} not in {BACKENDS}")
        if case["wall_seconds"] < 0:
            fail(f"cases[{index}].wall_seconds is negative")
        for name in _ENGINE_COUNTERS:
            if not isinstance(case["engine"].get(name), int):
                fail(f"cases[{index}].engine.{name} must be an int")
    overhead = payload["overhead"]
    # "noise" (the intra-arm jitter floor) is validated when present;
    # payloads committed before it existed stay valid.
    if "noise" in overhead and not isinstance(overhead["noise"], float):
        fail("overhead.noise must be a float")
    for key in (
        "baseline_seconds",
        "noop_seconds",
        "relative",
        "noop_span_ns",
        "estimated_fraction",
    ):
        if not isinstance(overhead.get(key), float):
            fail(f"overhead.{key} must be a float")
    if overhead["baseline_seconds"] <= 0 or overhead["noop_seconds"] <= 0:
        fail("overhead timings must be positive")
    if "service" in payload:
        service = payload["service"]
        if not isinstance(service, dict):
            fail("service must be a dict")
        for key, kind in (
            ("queue_depth", int),
            ("workers", int),
            ("jobs", int),
            ("wall_seconds", float),
            ("jobs_per_second", float),
            ("latency_seconds", dict),
        ):
            if not isinstance(service.get(key), kind):
                fail(f"service.{key} must be {kind.__name__}")
        if service["queue_depth"] < 1 or service["jobs"] < 1:
            fail("service sizes must be positive")
        if service["wall_seconds"] <= 0 or service["jobs_per_second"] <= 0:
            fail("service timings must be positive")
        for key in ("median", "min", "max"):
            value = service["latency_seconds"].get(key)
            if not isinstance(value, float) or value < 0:
                fail(f"service.latency_seconds.{key} must be a non-negative float")
    if "service_load" in payload:
        try:
            validate_service_load(payload["service_load"])
        except ValueError as exc:
            fail(str(exc))
    if "chaos" in payload:
        try:
            validate_chaos(payload["chaos"])
        except ValueError as exc:
            fail(str(exc))
    if "streaming" in payload:
        streaming = payload["streaming"]
        if not isinstance(streaming, dict):
            fail("streaming must be a dict")
        for key, kind in (
            ("function", str),
            ("algorithm", str),
            ("delta_batch", int),
            ("repeats", int),
        ):
            if not isinstance(streaming.get(key), kind):
                fail(f"streaming.{key} must be {kind.__name__}")
        if streaming["delta_batch"] < 1 or streaming["repeats"] < 1:
            fail("streaming sizes must be positive")
        if not isinstance(streaming.get("cases"), list) or not streaming["cases"]:
            fail("streaming.cases must be a non-empty list")
        for index, case in enumerate(streaming["cases"]):
            for key, kind in (
                ("population", int),
                ("n_atoms", int),
                ("delta_batch", int),
                ("stale_deltas", int),
                ("first_audit_seconds", float),
                ("mutations_per_second", float),
                ("speedup", float),
                ("audit_speedup", float),
                ("paths", dict),
            ):
                if not isinstance(case.get(key), kind):
                    fail(f"streaming.cases[{index}].{key} must be {kind.__name__}")
            if case["population"] <= 0 or case["n_atoms"] <= 0:
                fail(f"streaming.cases[{index}] sizes must be positive")
            if case["mutations_per_second"] <= 0 or case["speedup"] <= 0:
                fail(f"streaming.cases[{index}] rates must be positive")
            for path in STREAMING_PATHS:
                timing = case["paths"].get(path)
                if not isinstance(timing, dict):
                    fail(f"streaming.cases[{index}].paths.{path} must be a dict")
                for key in ("median", "min"):
                    if not isinstance(timing.get(key), float) or timing[key] <= 0:
                        fail(
                            f"streaming.cases[{index}].paths.{path}.{key} "
                            "must be a positive float"
                        )
                if not isinstance(timing.get("repeats"), list) or not timing["repeats"]:
                    fail(
                        f"streaming.cases[{index}].paths.{path}.repeats "
                        "must be a non-empty list"
                    )
    if "kernels" in payload:
        kernels = payload["kernels"]
        if not isinstance(kernels, dict):
            fail("kernels must be a dict")
        for key, kind in (
            ("function", str),
            ("metric", str),
            ("stack_cap", int),
            ("repeats", int),
            ("status", dict),
        ):
            if not isinstance(kernels.get(key), kind):
                fail(f"kernels.{key} must be {kind.__name__}")
        if not isinstance(kernels.get("cases"), list) or not kernels["cases"]:
            fail("kernels.cases must be a non-empty list")
        for index, case in enumerate(kernels["cases"]):
            for key, kind in (
                ("population", int),
                ("n_atoms", int),
                ("stack_rows", int),
                ("backends", dict),
                ("cache", dict),
            ):
                if not isinstance(case.get(key), kind):
                    fail(f"kernels.cases[{index}].{key} must be {kind.__name__}")
            if case["population"] <= 0 or case["stack_rows"] <= 0:
                fail(f"kernels.cases[{index}] sizes must be positive")
            for backend in ("numpy", "scalar"):
                if backend not in case["backends"]:
                    fail(f"kernels.cases[{index}].backends missing {backend!r}")
            for backend, timing in case["backends"].items():
                for key in ("median", "min"):
                    if not isinstance(timing.get(key), float) or timing[key] <= 0:
                        fail(
                            f"kernels.cases[{index}].backends.{backend}.{key} "
                            "must be a positive float"
                        )
                if not isinstance(timing.get("repeats"), list) or not timing["repeats"]:
                    fail(
                        f"kernels.cases[{index}].backends.{backend}.repeats "
                        "must be a non-empty list"
                    )
            cache = case["cache"]
            for side in ("cold", "warm"):
                timing = cache.get(side)
                if not isinstance(timing, dict):
                    fail(f"kernels.cases[{index}].cache.{side} must be a dict")
                for key in ("median", "min"):
                    if not isinstance(timing.get(key), float) or timing[key] <= 0:
                        fail(
                            f"kernels.cases[{index}].cache.{side}.{key} "
                            "must be a positive float"
                        )
            for key, kind in (("speedup", float), ("hits", int), ("entries", int)):
                if not isinstance(cache.get(key), kind):
                    fail(f"kernels.cases[{index}].cache.{key} must be {kind.__name__}")
            if cache["speedup"] <= 0 or cache["hits"] < 1:
                fail(f"kernels.cases[{index}].cache rates must be positive")
    if "mitigation" in payload:
        mitigation = payload["mitigation"]
        if not isinstance(mitigation, dict):
            fail("mitigation must be a dict")
        for key in ("function", "algorithm"):
            if not isinstance(mitigation.get(key), str):
                fail(f"mitigation.{key} must be a str")
        if not isinstance(mitigation.get("cases"), list) or not mitigation["cases"]:
            fail("mitigation.cases must be a non-empty list")
        for index, case in enumerate(mitigation["cases"]):
            for key, kind in (
                ("scenario", str),
                ("function", str),
                ("algorithm", str),
                ("strategy", str),
                ("params", dict),
                ("n_partitions", int),
                ("k", int),
                ("audit_unfairness", float),
                ("unfairness_before", float),
                ("unfairness_after", float),
                ("ndcg_at_k", float),
                ("retained_score_mass", float),
                ("runtime_seconds", float),
                ("ranking_digest", int),
            ):
                if not isinstance(case.get(key), kind):
                    fail(f"mitigation.cases[{index}].{key} must be {kind.__name__}")
            if case["k"] < 1 or case["n_partitions"] < 1:
                fail(f"mitigation.cases[{index}] sizes must be positive")
            for key in ("unfairness_before", "unfairness_after"):
                if case[key] < 0:
                    fail(f"mitigation.cases[{index}].{key} is negative")
            if not 0.0 <= case["ndcg_at_k"] <= 1.0 + 1e-9:
                fail(f"mitigation.cases[{index}].ndcg_at_k must be in [0, 1]")
            if case["runtime_seconds"] < 0:
                fail(f"mitigation.cases[{index}].runtime_seconds is negative")
    if "scaling" in payload:
        scaling = payload["scaling"]
        if not isinstance(scaling, dict):
            fail("scaling must be a dict")
        if not isinstance(scaling.get("function"), str):
            fail("scaling.function must be a str")
        if not isinstance(scaling.get("repeats"), int) or scaling["repeats"] < 1:
            fail("scaling.repeats must be a positive int")
        if not isinstance(scaling.get("cases"), list) or not scaling["cases"]:
            fail("scaling.cases must be a non-empty list")
        for index, case in enumerate(scaling["cases"]):
            for key, kind in (
                ("population", int),
                ("n_atoms", int),
                ("atom_table_build_seconds", float),
                ("paths", dict),
            ):
                if not isinstance(case.get(key), kind):
                    fail(f"scaling.cases[{index}].{key} must be {kind.__name__}")
            if case["population"] <= 0 or case["n_atoms"] <= 0:
                fail(f"scaling.cases[{index}] sizes must be positive")
            for path in SCALING_PATHS:
                timing = case["paths"].get(path)
                if not isinstance(timing, dict):
                    fail(f"scaling.cases[{index}].paths.{path} must be a dict")
                for key in ("median", "min"):
                    if not isinstance(timing.get(key), float) or timing[key] <= 0:
                        fail(
                            f"scaling.cases[{index}].paths.{path}.{key} "
                            "must be a positive float"
                        )
                if not isinstance(timing.get("repeats"), list) or not timing["repeats"]:
                    fail(
                        f"scaling.cases[{index}].paths.{path}.repeats "
                        "must be a non-empty list"
                    )


def run_suite(
    quick: bool,
    repeats: int,
    scaling: bool = False,
    streaming: bool = False,
    mitigation: bool = False,
    kernels: bool = False,
    service_load: bool = False,
    chaos: bool = False,
) -> dict:
    """Execute the fixed suite and return the (validated) payload."""
    cases = []
    overhead = None
    for label, scenario in _suite(quick):
        scores = scenario.functions[BENCH_FUNCTION](scenario.population)
        for algorithm in PAPER_ALGORITHMS:
            print(f"[{label}] {algorithm} ...", flush=True)
            cases.append(_run_case(scenario, scores, algorithm))
            print(f"    {cases[-1]['wall_seconds']:.3f}s", flush=True)
        if overhead is None:
            # The fused kernels cut the A/B audit to milliseconds, so the
            # measurement needs more interleaved repeats than the section
            # timings to keep min-of-N below the 2% noise budget — they
            # are cheap for exactly the same reason.
            overhead_repeats = max(repeats, 15)
            print(
                f"[{label}] no-op tracer overhead ({overhead_repeats} repeats) ...",
                flush=True,
            )
            overhead = _measure_overhead(scenario, scores, overhead_repeats)
    print("[service] audit daemon throughput (queue depth 8) ...", flush=True)
    service = run_service_bench()
    payload = {
        "schema": BENCH_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "quick" if quick else "full",
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "cases": cases,
        "overhead": overhead,
        "service": service,
    }
    if scaling:
        payload["scaling"] = run_scaling(quick, repeats)
    if streaming:
        payload["streaming"] = run_streaming(quick, repeats)
    if mitigation:
        payload["mitigation"] = run_mitigation(quick)
    if kernels:
        payload["kernels"] = run_kernels(quick, repeats)
    if service_load:
        payload["service_load"] = run_service_load(quick)
    if chaos:
        print("[chaos] daemon under seeded fault injection ...", flush=True)
        payload["chaos"] = run_chaos(quick)
    validate_bench_payload(payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small table1 population only (CI smoke mode)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="overhead-measurement repeats (default: 3 quick, 5 full)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: benchmarks/results/BENCH_<timestamp>.json)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="also run the atom-vs-member-vs-full scaling sweep "
        f"({SCALING_POPULATIONS_QUICK} quick / {SCALING_POPULATIONS} full workers)",
    )
    parser.add_argument(
        "--assert-atom-speedup",
        action="store_true",
        help="exit 1 unless the atom path beats the member path at the "
        "largest scaling population (implies --scaling)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="also run the streaming-vs-rebuild mutable-population sweep "
        f"({SCALING_POPULATIONS_QUICK} quick / {SCALING_POPULATIONS} full workers)",
    )
    parser.add_argument(
        "--assert-streaming-speedup",
        action="store_true",
        help="exit 1 unless the streaming re-audit beats the full rebuild "
        "at the largest population — by >=10x in full mode, >1x in --quick "
        "(implies --streaming)",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also run the compiled-kernel + cross-job-cache sweep "
        f"({SCALING_POPULATIONS_QUICK} quick / {SCALING_POPULATIONS} full workers)",
    )
    parser.add_argument(
        "--assert-kernel-speedup",
        action="store_true",
        help="exit 1 unless the compiled numpy kernel beats the scalar loop "
        "AND warm-cache jobs beat cold ones at the largest population — by "
        f">={KERNEL_CACHE_SPEEDUP_FULL}x in full mode, "
        f">={KERNEL_CACHE_SPEEDUP_QUICK}x in --quick (implies --kernels)",
    )
    parser.add_argument(
        "--service-load",
        action="store_true",
        help="also run the daemon SLO-curve load sweep (benchmarks/load_gen.py: "
        f"offered rates {LOAD_RATES_QUICK} quick / {LOAD_RATES} full jobs/s "
        f"across the {LOAD_MIXES} arrival mixes, real serve subprocess)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="also run the chaos point (benchmarks/load_gen.py --chaos): the "
        "real serve subprocess under seeded fault injection, recording "
        "availability, recovery-time percentiles and jobs/s at the injected "
        "fault rate",
    )
    parser.add_argument(
        "--mitigation",
        action="store_true",
        help="also run the repair-strategy sweep (every registered strategy "
        "applied to each scenario's worst partitioning)",
    )
    parser.add_argument(
        "--assert-mitigation-improvement",
        action="store_true",
        help="exit 1 unless every repair strictly decreases unfairness and "
        f"the re-ranking strategies keep NDCG@k >= {MITIGATION_NDCG_FLOOR} "
        "(implies --mitigation)",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (3 if args.quick else 5)
    scaling = args.scaling or args.assert_atom_speedup
    streaming = args.streaming or args.assert_streaming_speedup
    mitigation = args.mitigation or args.assert_mitigation_improvement
    kernels = args.kernels or args.assert_kernel_speedup
    payload = run_suite(
        args.quick,
        repeats,
        scaling=scaling,
        streaming=streaming,
        mitigation=mitigation,
        kernels=kernels,
        service_load=args.service_load,
        chaos=args.chaos,
    )

    if args.out:
        out_path = Path(args.out)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        out_path = RESULTS_DIR / f"BENCH_{stamp}.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")

    overhead = payload["overhead"]
    print(f"\nwrote {len(payload['cases'])} cases to {out_path}")
    service = payload["service"]
    print(
        f"service: {service['jobs_per_second']:.1f} jobs/s at queue depth "
        f"{service['queue_depth']} (median submit→result latency "
        f"{service['latency_seconds']['median'] * 1000:.1f}ms)"
    )
    print(
        f"no-op tracer: A/B delta {overhead['relative']:.2%}, "
        f"estimated instrumentation cost {overhead['estimated_fraction']:.3%} "
        f"({overhead['spans_per_audit']} span sites x "
        f"{overhead['noop_span_ns']:.0f}ns)"
    )
    if "service_load" in payload:
        best = max(
            (
                point
                for entry in payload["service_load"]["mixes"]
                for point in entry["points"]
            ),
            key=lambda point: point["jobs_per_second"],
        )
        print(
            f"service_load: peak {best['jobs_per_second']:.0f} jobs/s sustained "
            f"through the HTTP front end "
            f"(at {best['offered_jobs_per_second']:g} jobs/s offered, "
            f"p99 {best['latency_seconds']['p99'] * 1000:.0f}ms)"
        )
    if "chaos" in payload:
        chaos_section = payload["chaos"]
        print(
            "chaos: {:.1%} available under {} ({} degraded episodes, "
            "recovery p99 {:.0f}ms, {:.0f} jobs/s, ends {})".format(
                chaos_section["availability"],
                chaos_section["spec"],
                chaos_section["degraded_episodes"],
                chaos_section["recovery_seconds"]["p99"] * 1000,
                chaos_section["jobs_per_second"],
                chaos_section["final_state"],
            )
        )
    if "scaling" in payload:
        population, speedup = scaling_speedup(payload["scaling"])
        print(
            f"scaling: atom path is {speedup:.1f}x the member path "
            f"at {population} workers"
        )
        if args.assert_atom_speedup and speedup <= 1.0:
            print(
                f"FAIL: atom path did not beat the member path at {population} "
                f"workers (speedup {speedup:.2f}x)",
                file=sys.stderr,
            )
            return 1
    if "streaming" in payload:
        population, speedup = streaming_speedup(payload["streaming"])
        print(
            f"streaming: delta re-audit is {speedup:.1f}x the full rebuild "
            f"at {population} workers"
        )
        if args.assert_streaming_speedup:
            required = 1.0 if args.quick else 10.0
            if speedup < required:
                print(
                    f"FAIL: streaming re-audit speedup {speedup:.2f}x at "
                    f"{population} workers is below the {required:.0f}x bar",
                    file=sys.stderr,
                )
                return 1
    if "kernels" in payload:
        population, kernel_ratio, cache_ratio = kernel_speedups(payload["kernels"])
        print(
            f"kernels: compiled numpy kernel is {kernel_ratio:.1f}x the scalar "
            f"loop, warm-cache jobs are {cache_ratio:.1f}x cold ones "
            f"at {population} workers"
        )
        if args.assert_kernel_speedup:
            required = (
                KERNEL_CACHE_SPEEDUP_QUICK if args.quick else KERNEL_CACHE_SPEEDUP_FULL
            )
            if kernel_ratio <= 1.0:
                print(
                    f"FAIL: compiled kernel did not beat the scalar loop at "
                    f"{population} workers (speedup {kernel_ratio:.2f}x)",
                    file=sys.stderr,
                )
                return 1
            if cache_ratio < required:
                print(
                    f"FAIL: warm-cache speedup {cache_ratio:.2f}x at {population} "
                    f"workers is below the {required}x bar",
                    file=sys.stderr,
                )
                return 1
    if "mitigation" in payload:
        worst = max(
            payload["mitigation"]["cases"],
            key=lambda case: case["unfairness_before"] - case["unfairness_after"],
        )
        print(
            "mitigation: best repair {} on {} ({:.4f} -> {:.4f}, "
            "ndcg@{} {:.4f}) across {} cases".format(
                worst["strategy"],
                worst["scenario"],
                worst["unfairness_before"],
                worst["unfairness_after"],
                worst["k"],
                worst["ndcg_at_k"],
                len(payload["mitigation"]["cases"]),
            )
        )
        if args.assert_mitigation_improvement:
            failures = mitigation_failures(payload["mitigation"])
            for message in failures:
                print(f"FAIL: {message}", file=sys.stderr)
            if failures:
                return 1
    if overhead["relative"] >= 0.02 and overhead["relative"] >= overhead.get("noise", 0.0):
        # Only a delta that clears both the budget and the run's own
        # intra-arm jitter is a measurable regression; anything below the
        # noise floor would flake on loaded machines.
        print("WARNING: no-op overhead A/B delta exceeds the 2% budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
