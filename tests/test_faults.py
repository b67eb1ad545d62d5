"""Fault injection + the pool retry loop: determinism, bit-identity, typed
failure.

The contract under test (see docs/robustness.md): a run that survives
injected faults returns values bit-identical to an undisturbed run, because
every recovery path (retry, straggler re-dispatch, pool rebuild, in-process
degradation) recomputes through the same arithmetic; and an exhausted retry
budget fails fast with a typed error instead of hanging.  Faults fire where
a worker process can really fail: in the workers of the ``process`` and
``sharded`` backends, which share one chunk loop.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.chaos import ChaosConfig, EngineFaults, corrupt_values, seeded_roll
from repro.core.algorithms import get_algorithm
from repro.engine.backends import (
    ProcessPoolBackend,
    SequentialBackend,
    ShardedBackend,
    get_backend,
)
from repro.engine.resilience import RetryPolicy, validate_batch
from repro.exceptions import (
    BackendExhaustedError,
    CorruptResultError,
    PartitioningError,
    WorkerCrashError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.simulation.config import PaperConfig
from repro.simulation.runner import run_scenario
from repro.simulation.scenarios import table1_scenario

FAST = RetryPolicy(backoff_seconds=0.0)


def _counters(metrics: MetricsRegistry) -> dict:
    return metrics.as_dict()["counters"]


# ----------------------------------------------------- engine fault schedule


class TestFaultConfig:
    def test_roll_is_deterministic_and_seed_sensitive(self):
        config = EngineFaults(crash_rate=0.5, seed=3)
        keys = [f"0-{i}-0" for i in range(200)]
        first = [config.roll("crash", k) for k in keys]
        assert first == [config.roll("crash", k) for k in keys]
        other = EngineFaults(crash_rate=0.5, seed=4)
        assert first != [other.roll("crash", k) for k in keys]
        # rate is respected in aggregate (crc32 is uniform enough for this)
        assert 0.3 < np.mean(first) < 0.7

    def test_roll_is_the_shared_seeded_roll(self):
        config = EngineFaults(crash_rate=0.4, corrupt_rate=0.2, seed=9)
        for key in (f"0-{i}-0" for i in range(100)):
            assert config.roll("crash", key) == seeded_roll(9, "crash", key, 0.4)
            assert config.roll("corrupt", key) == seeded_roll(9, "corrupt", key, 0.2)

    def test_zero_rate_never_fires(self):
        config = EngineFaults(crash_rate=0.0, seed=1)
        assert not any(config.roll("crash", str(i)) for i in range(100))

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            EngineFaults(crash_rate=1.5)
        with pytest.raises(ValueError):
            EngineFaults(hang_rate=-0.1)
        with pytest.raises(ValueError):
            EngineFaults(hang_seconds=0.0)

    def test_corruption_is_always_detectable(self):
        config = EngineFaults(corrupt_rate=1.0, seed=9)
        clean = [0.1, 0.2, 0.3, 0.4]
        for key in (f"k{i}" for i in range(50)):
            damaged = corrupt_values(clean, config.seed, key)
            with pytest.raises(CorruptResultError):
                validate_batch(damaged, len(clean))

    @pytest.mark.parametrize(
        "spec", ["crash", "bogus=1", "crash=2.0", "seed=x", "crash=0.1,,hang"]
    )
    def test_parse_rejects_malformed(self, spec):
        # The old bare-key engine specs are refused by the engine's --chaos
        # grammar, and the error names the first bad entry.
        first = spec.split(",")[0]
        with pytest.raises(ValueError, match=re.escape(f"chaos spec entry {first!r}")):
            ChaosConfig.parse(spec, ("engine",))


# ------------------------------------------------ the pool backends' retry loop


def _audit_unfairness(population, scores, backend):
    result = get_algorithm("balanced").run(population, scores, backend=backend)
    return result.unfairness


#: The backends with worker processes; both run the pool's chunk loop.
POOL_BACKENDS = ("process", "sharded")


def _pool_backend(name: str, policy: RetryPolicy, faults=None):
    """A two-worker pool backend; ``shard_min_rows=2`` shards every
    multi-atom histogram, so small populations exercise the shard loop."""
    if name == "sharded":
        return ShardedBackend(workers=2, shard_min_rows=2, policy=policy, faults=faults)
    return ProcessPoolBackend(workers=2, policy=policy, faults=faults)


def _run_on(name, population, scores, policy, faults=None, **kwargs):
    backend = _pool_backend(name, policy, faults)
    try:
        return get_algorithm("balanced").run(
            population, scores, backend=backend, **kwargs
        )
    finally:
        backend.close()


class TestRetryingBackend:
    """The retrying backends — ``process`` and ``sharded`` share the
    pool's chunk loop — under worker-side fault injection."""

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_bit_identical_under_injected_crashes(
        self, paper_population_small, rate
    ):
        scores = np.random.default_rng(0).uniform(size=paper_population_small.size)
        clean = _audit_unfairness(paper_population_small, scores, None)
        faults = EngineFaults(crash_rate=rate, corrupt_rate=rate / 2, seed=17)
        policy = RetryPolicy(max_retries=10, backoff_seconds=0.0)
        for name in POOL_BACKENDS:
            result = _run_on(name, paper_population_small, scores, policy, faults)
            assert result.unfairness == clean, name

    def test_counters_and_retry_spans(self, small_population):
        scores = np.linspace(0.0, 0.99, small_population.size)
        faults = EngineFaults(crash_rate=0.5, seed=0)
        policy = RetryPolicy(max_retries=10, backoff_seconds=0.0)
        for name in POOL_BACKENDS:
            metrics = MetricsRegistry()
            tracer = Tracer()
            _run_on(
                name, small_population, scores, policy, faults,
                tracer=tracer, metrics=metrics,
            )
            counters = _counters(metrics)
            assert counters["engine.retries"] >= 1, name
            assert counters["engine.worker_crashes"] >= 1, name
            assert any(s.name == "backend.retry" for s in tracer.iter_spans()), name

    def test_exhaustion_raises_typed_error_not_hang(self, small_population):
        scores = np.linspace(0.0, 0.99, small_population.size)
        faults = EngineFaults(crash_rate=1.0, seed=1)
        policy = RetryPolicy(
            max_retries=2, backoff_seconds=0.0, fallback_sequential=False
        )
        for name in POOL_BACKENDS:
            with pytest.raises(BackendExhaustedError) as excinfo:
                _run_on(name, small_population, scores, policy, faults)
            assert excinfo.value.attempts == 3, name
            assert isinstance(excinfo.value.last_error, WorkerCrashError), name

    def test_exhaustion_with_fallback_recovers_bit_identically(
        self, small_population
    ):
        scores = np.linspace(0.0, 0.99, small_population.size)
        clean = _audit_unfairness(small_population, scores, None)
        faults = EngineFaults(crash_rate=1.0, seed=1)
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.0)
        for name in POOL_BACKENDS:
            metrics = MetricsRegistry()
            result = _run_on(
                name, small_population, scores, policy, faults, metrics=metrics
            )
            assert result.unfairness == clean, name
            assert _counters(metrics)["engine.backend_fallbacks"] >= 1, name

    def test_timeout_reaps_hung_dispatch(self, small_population):
        scores = np.linspace(0.0, 0.99, small_population.size)
        clean = _audit_unfairness(small_population, scores, None)
        faults = EngineFaults(hang_rate=0.3, seed=5, hang_seconds=0.2)
        policy = RetryPolicy(
            max_retries=10, timeout_seconds=0.1, backoff_seconds=0.0
        )
        for name in POOL_BACKENDS:
            metrics = MetricsRegistry()
            result = _run_on(
                name, small_population, scores, policy, faults, metrics=metrics
            )
            assert result.unfairness == clean, name
            assert _counters(metrics)["engine.timeouts"] >= 1, name

    def test_deadlines_count_only_time_on_a_worker(
        self, small_population, monkeypatch
    ):
        # Every hung attempt times out exactly once: no chunk times out while
        # it waits behind a hung worker, so the budget never runs out.
        scores = np.linspace(0.0, 0.99, small_population.size)
        clean = _audit_unfairness(small_population, scores, None)
        faults = EngineFaults(hang_rate=0.3, seed=5, hang_seconds=0.2)
        policy = RetryPolicy(
            max_retries=10, timeout_seconds=0.1, backoff_seconds=0.0
        )
        keys: "list[str]" = []
        submit = ProcessPoolExecutor.submit

        def recording_submit(pool, fn, *args, **kwargs):
            keys.append(args[-1])  # the attempt key _run_chunk rolls on
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
        for name in POOL_BACKENDS:
            keys.clear()
            metrics = MetricsRegistry()
            result = _run_on(
                name, small_population, scores, policy, faults, metrics=metrics
            )
            hung = sum(faults.roll("hang", key) for key in keys)
            counters = _counters(metrics)
            assert result.unfairness == clean, name
            assert hung >= 1, name
            assert counters.get("engine.timeouts", 0) == hung, name
            assert counters.get("engine.backend_fallbacks", 0) == 0, name

    def test_sequential_backend_has_no_retry_layer(self):
        backend = get_backend("sequential", policy=FAST)
        assert type(backend) is SequentialBackend

    def test_fault_injection_needs_a_worker_pool(self, small_population):
        scores = np.linspace(0.0, 0.99, small_population.size)
        with pytest.raises(PartitioningError, match="worker pool"):
            get_backend("sequential", faults=EngineFaults(crash_rate=0.1))
        with pytest.raises(PartitioningError, match="worker pool"):
            get_algorithm("balanced").run(
                small_population, scores, fault_config=EngineFaults(crash_rate=0.1)
            )
        # A schedule that can never fire is not injection.
        assert type(get_backend(None, faults=EngineFaults())) is SequentialBackend

    def test_policy_validation(self):
        with pytest.raises(PartitioningError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(PartitioningError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(PartitioningError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(PartitioningError):
            RetryPolicy(jitter=2.0)

    def test_backoff_schedule_grows(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.4)


class TestValidateBatch:
    def test_accepts_clean_values(self):
        assert validate_batch([0.0, 1.5], 2) == [0.0, 1.5]

    @pytest.mark.parametrize(
        "values,expected",
        [([0.1], 2), (None, 1), ([0.1, float("nan")], 2), ([float("inf")], 1)],
    )
    def test_rejects_damage(self, values, expected):
        with pytest.raises(CorruptResultError):
            validate_batch(values, expected)


# ----------------------------------------------- ProcessPoolBackend (native)


@pytest.mark.slow
class TestProcessPoolFaults:
    """Worker-side injection: real cross-process crashes, hangs, corruption."""

    def test_chaotic_pool_run_bit_identical_to_clean_sequential(self):
        # The ISSUE's acceptance scenario: crash-rate 0.3 / hang-rate 0.1 on
        # a table1-style run must converge to the exact clean values.
        scenario = table1_scenario(PaperConfig(n_workers=80, seed=1))
        clean = run_scenario(scenario, algorithms=("balanced",), seed=3)
        metrics = MetricsRegistry()
        policy = RetryPolicy(
            max_retries=8, timeout_seconds=5.0, backoff_seconds=0.0
        )
        faults = EngineFaults(
            crash_rate=0.3, hang_rate=0.1, corrupt_rate=0.1, seed=11,
            hang_seconds=0.2,
        )
        chaotic = run_scenario(
            scenario,
            algorithms=("balanced",),
            seed=3,
            backend="process",
            workers=2,
            metrics=metrics,
            retry_policy=policy,
            fault_config=faults,
        )
        for clean_row, chaotic_row in zip(clean.rows, chaotic.rows):
            assert chaotic_row.unfairness == clean_row.unfairness
            assert chaotic_row.attributes_used == clean_row.attributes_used
        counters = _counters(metrics)
        assert counters["engine.retries"] >= 1
        assert counters.get("engine.worker_crashes", 0) >= 1

    def test_straggler_redispatch_on_timeout(self):
        scenario = table1_scenario(PaperConfig(n_workers=60, seed=1))
        clean = run_scenario(scenario, algorithms=("balanced",), seed=3)
        metrics = MetricsRegistry()
        policy = RetryPolicy(
            max_retries=6, timeout_seconds=0.6, backoff_seconds=0.0
        )
        faults = EngineFaults(hang_rate=0.15, seed=5, hang_seconds=3.0)
        hungover = run_scenario(
            scenario,
            algorithms=("balanced",),
            seed=3,
            backend="process",
            workers=2,
            metrics=metrics,
            retry_policy=policy,
            fault_config=faults,
        )
        assert hungover.rows[0].unfairness == clean.rows[0].unfairness
        counters = _counters(metrics)
        assert counters["engine.timeouts"] >= 1
        assert counters["engine.straggler_redispatches"] >= 1

    def test_hard_crash_rebuilds_pool_or_degrades(self):
        # os._exit in a worker breaks the pool; the backend must rebuild (or
        # ultimately degrade to sequential) and still return exact values.
        scenario = table1_scenario(PaperConfig(n_workers=60, seed=1))
        clean = run_scenario(scenario, algorithms=("balanced",), seed=3)
        metrics = MetricsRegistry()
        policy = RetryPolicy(max_retries=4, backoff_seconds=0.0)
        faults = EngineFaults(crash_rate=0.05, seed=13, crash_hard=True)
        battered = run_scenario(
            scenario,
            algorithms=("balanced",),
            seed=3,
            backend="process",
            workers=2,
            metrics=metrics,
            retry_policy=policy,
            fault_config=faults,
        )
        assert battered.rows[0].unfairness == clean.rows[0].unfairness
        counters = _counters(metrics)
        assert (
            counters.get("engine.pool_rebuilds", 0) >= 1
            or counters.get("engine.backend_fallbacks", 0) >= 1
        )

    def test_exhausted_pool_raises_typed_error(self, paper_population_small):
        scores = np.random.default_rng(0).uniform(size=paper_population_small.size)
        policy = RetryPolicy(
            max_retries=1, backoff_seconds=0.0, fallback_sequential=False
        )
        faults = EngineFaults(crash_rate=1.0, seed=1)
        backend = ProcessPoolBackend(workers=2, policy=policy, faults=faults)
        try:
            with pytest.raises(BackendExhaustedError):
                get_algorithm("balanced").run(
                    paper_population_small, scores, backend=backend
                )
        finally:
            backend.close()

    def test_hang_injection_requires_timeout(self):
        with pytest.raises(PartitioningError):
            ProcessPoolBackend(
                workers=2,
                policy=RetryPolicy(),
                faults=EngineFaults(hang_rate=0.1),
            )

    def test_degraded_backend_serves_locally(self, paper_population_small):
        scores = np.random.default_rng(0).uniform(size=paper_population_small.size)
        clean = _audit_unfairness(paper_population_small, scores, None)
        backend = ProcessPoolBackend(workers=2, policy=FAST)
        backend._degraded = True
        try:
            assert (
                _audit_unfairness(paper_population_small, scores, backend) == clean
            )
            assert backend.degraded
        finally:
            backend.close()


# ------------------------------------------------------------------ CLI glue


class TestFaultCli:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "audit",
                "pop.csv",
                "--engine-retries",
                "5",
                "--engine-timeout",
                "2.5",
                "--engine-retry-backoff",
                "0.01",
                "--engine-no-fallback",
                "--chaos",
                "engine-crash=0.3,engine-hang=0.1,seed=7",
            ]
        )
        assert args.engine_retries == 5
        assert args.engine_timeout == 2.5
        assert args.engine_no_fallback
        assert args.chaos.engine == EngineFaults(
            crash_rate=0.3, hang_rate=0.1, seed=7
        )

    def test_bad_fault_spec_exits(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "pop.csv", "--chaos", "bogus=1"])
        assert "'bogus=1'" in capsys.readouterr().err

    def test_resilience_defaults_timeout_for_hangs(self):
        from repro.cli import _resilience, build_parser

        args = build_parser().parse_args(
            ["audit", "pop.csv", "--chaos", "engine-hang=0.2,seed=1"]
        )
        policy, faults = _resilience(args)
        assert policy is not None and policy.timeout_seconds == 5.0
        assert faults.hang_rate == 0.2

    def test_resilience_defaults_off_without_flags(self):
        from repro.cli import _resilience, build_parser

        args = build_parser().parse_args(["audit", "pop.csv"])
        assert _resilience(args) == (None, None)
